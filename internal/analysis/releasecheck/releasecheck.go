// Package releasecheck defines an analyzer enforcing the pooled-batch
// lifecycle contract from PR 5 (DESIGN.md §9, §11): every *stream.Batch
// acquired from Pool.Get / Pool.GetView / Pool.GetHeader /
// Pool.ViewRetained must, on every control-flow path, be released,
// handed off to a sink (passed to a call, stored, returned, or sent), or
// carry an explicit ownership transfer annotation (//themis:owns <why>);
// and no acquired batch may be used — or re-released — after a Release
// call that dominates the use.
//
// The analysis is intraprocedural and deliberately conservative in both
// directions that matter: any escape of the batch value (call argument,
// store, alias, capture by a closure) transfers ownership and ends
// tracking, so the leak check cannot false-positive on sink handoffs;
// and use-after-release / double-release fire only when the release
// dominates (must-analysis over the go/cfg graph), so merge points
// where only one branch released do not misfire.
package releasecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/astparents"
	"repro/internal/analysis/directives"
	"repro/internal/xtools/go/analysis"
	"repro/internal/xtools/go/analysis/passes/inspect"
	"repro/internal/xtools/go/ast/inspector"
	"repro/internal/xtools/go/cfg"
	"repro/internal/xtools/go/types/typeutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "releasecheck",
	Doc: `enforce the pooled batch acquire/release lifecycle

Flags batches acquired from stream.Pool that may leak (some path
reaches a return without Release or a handoff), uses of a batch after a
dominating Release, and double releases. //themis:owns <why> on the
acquisition line transfers ownership out of the analysis.`,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// PoolPackages holds the import paths whose Pool type hands out pooled
// batches.
var PoolPackages = "repro/internal/stream"

// acquireMethods on *Pool return a batch the caller owns.
var acquireMethods = map[string]bool{"Get": true, "GetView": true, "GetHeader": true, "ViewRetained": true}

func init() {
	Analyzer.Flags.StringVar(&PoolPackages, "poolpkgs", PoolPackages, "comma-separated import paths defining the batch Pool type")
}

func isPoolPkg(path string) bool {
	for _, p := range strings.Split(PoolPackages, ",") {
		if strings.TrimSpace(p) == path {
			return true
		}
	}
	return false
}

// isAcquire reports whether call acquires a pooled batch.
func isAcquire(info *types.Info, call *ast.CallExpr) bool {
	fn := typeutil.Callee(info, call)
	if fn == nil || fn.Pkg() == nil || !acquireMethods[fn.Name()] || !isPoolPkg(fn.Pkg().Path()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := directives.Parse(pass.Fset, pass.Files)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		}
		if body != nil {
			checkFunc(pass, dirs, body)
		}
	})
	return nil, nil
}

type eventKind uint8

const (
	evAcquire eventKind = iota
	evRelease
	evHandoff
	evKill
	evUse
)

type event struct {
	pos  token.Pos
	kind eventKind
}

// state possibility bits for the dataflow.
const (
	stLive     = 1 << iota // acquired, caller-owned
	stReleased             // released; any use is a bug
	stDone                 // untracked: consumed, killed, or not yet acquired
)

func checkFunc(pass *analysis.Pass, dirs *directives.Set, body *ast.BlockStmt) {
	info := pass.TypesInfo
	parents := astparents.Map(body)

	// Discover tracked variables: idents assigned directly from an
	// acquisition call.
	type tracked struct {
		obj     types.Object
		acquire *ast.CallExpr
		escapes bool // captured by a closure, aliased, or address taken
	}
	var vars []*tracked
	byObj := map[types.Object]*tracked{}

	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !isAcquire(info, call) {
			return true
		}
		asg, ok := parents[call].(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 || asg.Rhs[0] != call || len(asg.Lhs) != 1 {
			return true // result used directly: immediate handoff
		}
		id, ok := asg.Lhs[0].(*ast.Ident)
		if !ok {
			return true // stored into a field/index: handoff
		}
		if id.Name == "_" {
			pass.Reportf(call.Pos(), "pooled batch acquired and discarded (assigned to _): it can never be released")
			return true
		}
		if _, ok := dirs.Covering(call.Pos(), "owns"); ok {
			return true // annotated ownership transfer
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return true
		}
		if _, dup := byObj[obj]; dup {
			return true // re-acquisition into the same var: handled as events
		}
		t := &tracked{obj: obj, acquire: call}
		byObj[obj] = t
		vars = append(vars, t)
		return true
	})
	if len(vars) == 0 {
		return
	}

	// Classify every mention of each tracked object as an event.
	events := map[types.Object][]event{}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.ObjectOf(id)
		t, ok := byObj[obj]
		if !ok {
			return true
		}
		// Capture by a nested function literal escapes the variable.
		for p := parents[ast.Node(id)]; p != nil; p = parents[p] {
			if _, isLit := p.(*ast.FuncLit); isLit {
				t.escapes = true
				return true
			}
		}
		ev := classify(info, parents, id)
		events[obj] = append(events[obj], ev)
		return true
	})

	// Build the CFG once per function.
	g := cfg.New(body, mayReturn(info))

	for _, t := range vars {
		if t.escapes {
			continue
		}
		evs := events[t.obj]
		sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		analyzeVar(pass, g, t.obj.Name(), t.acquire.Pos(), evs)
	}
}

// classify maps one identifier occurrence to a lifecycle event.
func classify(info *types.Info, parents map[ast.Node]ast.Node, id *ast.Ident) event {
	p := parents[ast.Node(id)]
	switch p := p.(type) {
	case *ast.SelectorExpr:
		if p.X == id && p.Sel.Name == "Release" {
			if call, ok := parents[ast.Node(p)].(*ast.CallExpr); ok && call.Fun == ast.Expr(p) {
				return event{call.Pos(), evRelease}
			}
		}
		return event{id.Pos(), evUse}
	case *ast.CallExpr:
		for _, a := range p.Args {
			if a == ast.Expr(id) {
				return event{id.Pos(), evHandoff}
			}
		}
		return event{id.Pos(), evUse}
	case *ast.AssignStmt:
		for i, l := range p.Lhs {
			if l == ast.Expr(id) {
				// Reassignment: a fresh acquisition re-arms tracking,
				// anything else kills it.
				if i < len(p.Rhs) {
					if call, ok := p.Rhs[i].(*ast.CallExpr); ok && isAcquire(info, call) && len(p.Lhs) == len(p.Rhs) {
						return event{id.Pos(), evAcquire}
					}
				}
				return event{id.Pos(), evKill}
			}
		}
		return event{id.Pos(), evHandoff} // appears on the RHS: aliased or stored
	case *ast.ValueSpec, *ast.ReturnStmt, *ast.SendStmt, *ast.CompositeLit, *ast.KeyValueExpr:
		return event{id.Pos(), evHandoff}
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return event{id.Pos(), evHandoff} // address taken
		}
		return event{id.Pos(), evUse}
	default:
		return event{id.Pos(), evUse}
	}
}

// mayReturn is the no-return heuristic for CFG construction.
func mayReturn(info *types.Info) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "panic" {
				if _, ok := info.ObjectOf(fun).(*types.Builtin); ok {
					return false
				}
			}
		case *ast.SelectorExpr:
			switch fun.Sel.Name {
			case "Fatal", "Fatalf", "Exit", "Panic", "Panicf":
				return false
			}
		}
		return true
	}
}

// analyzeVar runs the per-variable dataflow over the CFG and reports.
func analyzeVar(pass *analysis.Pass, g *cfg.CFG, name string, acqPos token.Pos, evs []event) {
	blocks := g.Blocks
	if len(blocks) == 0 {
		return
	}
	in := make([]uint8, len(blocks))
	out := make([]uint8, len(blocks))
	preds := make([][]int32, len(blocks))
	for _, b := range blocks {
		for _, s := range b.Succs {
			preds[s.Index] = append(preds[s.Index], b.Index)
		}
	}
	in[0] = stDone

	blockEvents := func(b *cfg.Block) []event {
		var lo, hi token.Pos = token.Pos(1 << 60), token.NoPos
		for _, n := range b.Nodes {
			if n.Pos() < lo {
				lo = n.Pos()
			}
			if n.End() > hi {
				hi = n.End()
			}
		}
		var out []event
		for _, e := range evs {
			if e.pos >= lo && e.pos < hi {
				out = append(out, e)
			}
		}
		return out
	}

	transfer := func(state uint8, evs []event, report bool) uint8 {
		for _, e := range evs {
			switch e.kind {
			case evAcquire:
				state = stLive
			case evRelease:
				if report && state == stReleased {
					pass.Reportf(e.pos, "pooled batch %s released twice (second Release will panic at runtime)", name)
				}
				if state&stLive != 0 || state == stReleased {
					state = stReleased
				} else {
					state = stDone
				}
			case evHandoff:
				if report && state == stReleased {
					pass.Reportf(e.pos, "pooled batch %s handed off after Release (storage may already be recycled)", name)
				}
				state = stDone
			case evKill:
				state = stDone
			case evUse:
				if report && state == stReleased {
					pass.Reportf(e.pos, "use of pooled batch %s after Release (storage may already be recycled)", name)
				}
			}
		}
		return state
	}

	// Fixpoint.
	for changed := true; changed; {
		changed = false
		for i, b := range blocks {
			var s uint8
			if i == 0 {
				s = stDone
			}
			for _, p := range preds[i] {
				s |= out[p]
			}
			if !b.Live {
				continue
			}
			in[i] = s
			ns := transfer(s, blockEvents(b), false)
			if ns != out[i] {
				out[i] = ns
				changed = true
			}
		}
	}

	// Reporting pass: use-after-release / double-release, with stable
	// in-states.
	for i, b := range blocks {
		if !b.Live {
			continue
		}
		transfer(in[i], blockEvents(b), true)
	}

	// Leak check: a no-successor block (function exit) where the batch
	// may still be live. Panic exits are excused — a panicking run is
	// already fatal.
	leaked := false
	for i, b := range blocks {
		if !b.Live || len(b.Succs) != 0 || leaked {
			continue
		}
		if isPanicExit(b) {
			continue
		}
		if out[i]&stLive != 0 {
			leaked = true
		}
	}
	if leaked {
		pass.Reportf(acqPos, "pooled batch %s may leak: some path reaches a function exit without Release or a handoff (release it, hand it to a sink, or annotate //themis:owns <why>)", name)
	}
}

func isPanicExit(b *cfg.Block) bool {
	for _, n := range b.Nodes {
		found := false
		ast.Inspect(n, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					found = true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "Fatal", "Fatalf", "Exit", "Panic", "Panicf":
						found = true
					}
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
