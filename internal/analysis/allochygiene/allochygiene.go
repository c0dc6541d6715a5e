// Package allochygiene defines an analyzer guarding the zero-allocation
// steady-state contract from PR 5 (TestSteadyStateZeroAlloc): functions
// on Engine.Step's steady-state call graph must not allocate
// unconditionally. The hot set is generated from the call graph (see
// roots.go / hotset_gen.go); inside a hot function the analyzer flags
// unguarded slice/map composite literals, make/new calls, &T{} escapes,
// closure allocations, cross-variable appends (the grow-and-alias
// smell), and fmt/errors formatting calls.
//
// Allocations inside an if/switch/select arm are treated as guarded
// cold paths — the grow-on-demand idiom ("if cap(buf) < n { buf =
// make(...) }") is the sanctioned way to allocate in hot code, and the
// runtime zero-alloc tests hold the amortised budget. //themis:coldalloc
// <why> suppresses a finding that the syntactic rule cannot see is
// cold. Interface boxing that does not go through fmt is out of scope
// (documented limitation; the AllocsPerRun tests are the backstop).
package allochygiene

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/astparents"
	"repro/internal/analysis/directives"
	"repro/internal/xtools/go/analysis"
	"repro/internal/xtools/go/analysis/passes/inspect"
	"repro/internal/xtools/go/ast/inspector"
	"repro/internal/xtools/go/types/typeutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "allochygiene",
	Doc: `flag unconditional allocations in steady-state hot functions

The hot set is the call graph reachable from the roots in roots.go
(regenerate with go generate ./internal/analysis/allochygiene).`,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// HotList optionally overrides the generated hot set: a comma-separated
// list of types.Func FullName symbols. Used by tests; empty means "use
// hotset_gen.go".
var HotList = ""

func init() {
	Analyzer.Flags.StringVar(&HotList, "hotlist", HotList, "comma-separated function symbols to treat as hot (overrides the generated set)")
}

func hotSet() map[string]bool {
	if HotList == "" {
		return hotFuncs
	}
	m := map[string]bool{}
	for _, s := range strings.Split(HotList, ",") {
		if s = strings.TrimSpace(s); s != "" {
			m[s] = true
		}
	}
	return m
}

func run(pass *analysis.Pass) (interface{}, error) {
	hot := hotSet()
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := directives.Parse(pass.Fset, pass.Files)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil {
			return
		}
		fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if !ok || !hot[fn.FullName()] {
			return
		}
		checkHot(pass, dirs, fn, decl.Body)
	})
	return nil, nil
}

func checkHot(pass *analysis.Pass, dirs *directives.Set, fn *types.Func, body *ast.BlockStmt) {
	parents := astparents.Map(body)
	report := func(n ast.Node, what string) {
		if cold(parents, body, n) {
			return
		}
		if _, ok := dirs.Covering(n.Pos(), "coldalloc"); ok {
			return
		}
		pass.Reportf(n.Pos(), "%s in steady-state hot function %s (guard it behind a cold branch, hoist it to setup, or annotate //themis:coldalloc <why>)", what, fn.FullName())
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				report(n, "slice literal allocates")
			case *types.Map:
				report(n, "map literal allocates")
			default:
				if u, ok := parents[ast.Node(n)].(*ast.UnaryExpr); ok && u.Op.String() == "&" {
					report(n, "&composite literal escapes to the heap")
				}
			}
		case *ast.FuncLit:
			// A literal passed directly as a call argument (sort.Slice,
			// rng.Shuffle callbacks) does not escape and is
			// stack-allocated; the AllocsPerRun tests verify this.
			// Stored, returned, deferred or goroutine-launched literals
			// escape and are flagged.
			if call, ok := parents[ast.Node(n)].(*ast.CallExpr); ok && call.Fun != ast.Expr(n) {
				isArg := false
				for _, a := range call.Args {
					if a == ast.Expr(n) {
						isArg = true
					}
				}
				if isArg {
					if _, isGo := parents[ast.Node(call)].(*ast.GoStmt); !isGo {
						return true
					}
				}
			}
			report(n, "closure allocation")
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok {
					switch b.Name() {
					case "make":
						report(n, "make allocates")
					case "new":
						report(n, "new allocates")
					}
					return true
				}
			}
			if callee := typeutil.Callee(pass.TypesInfo, n); callee != nil && callee.Pkg() != nil {
				switch p := callee.Pkg().Path(); {
				case p == "fmt":
					report(n, "fmt."+callee.Name()+" allocates and boxes its arguments")
				case p == "errors" && callee.Name() == "New":
					report(n, "errors.New allocates")
				}
			}
		case *ast.AssignStmt:
			checkCrossAppend(pass, report, n)
		}
		return true
	})
}

// checkCrossAppend flags y = append(x, ...) where y and x differ: the
// sanctioned amortised-growth idiom reassigns the same backing variable.
func checkCrossAppend(pass *analysis.Pass, report func(ast.Node, string), asg *ast.AssignStmt) {
	for i, rhs := range asg.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || i >= len(asg.Lhs) || len(call.Args) == 0 {
			continue
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			continue
		}
		if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "append" {
			continue
		}
		if render(asg.Lhs[i]) != render(call.Args[0]) {
			report(call, "append result assigned to a different variable (backing array may grow per call)")
		}
	}
}

func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return render(e.X) + "[...]"
	case *ast.SliceExpr:
		return render(e.X) + "[:]"
	default:
		return "?"
	}
}

// cold reports whether n sits under a conditional arm (if/switch/select
// body) within the function — the guarded-allocation idiom.
func cold(parents map[ast.Node]ast.Node, body *ast.BlockStmt, n ast.Node) bool {
	for c := n; c != nil && c != ast.Node(body); c = parents[c] {
		p := parents[c]
		switch p := p.(type) {
		case *ast.IfStmt:
			if c == ast.Node(p.Body) || c == p.Else {
				return true
			}
		case *ast.CaseClause, *ast.CommClause:
			return true
		}
	}
	return false
}
