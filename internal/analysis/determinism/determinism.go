// Package determinism defines an analyzer that enforces the engine's
// bit-determinism contract (DESIGN.md §11): inside the hot-path
// packages, results must not depend on wall-clock time, global RNG
// state, map iteration order, or goroutine scheduling. Violations are
// fixed or carry a reviewed //themis: annotation with a justification.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/directives"
	"repro/internal/xtools/go/analysis"
	"repro/internal/xtools/go/analysis/passes/inspect"
	"repro/internal/xtools/go/ast/inspector"
	"repro/internal/xtools/go/types/typeutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: `forbid nondeterminism sources in hot-path packages

In the allowlisted packages (engine, control plane, node, operator, sic,
core, stream, coordinator, cql planning) the analyzer rejects: time.Now/time.Since
(annotate //themis:wallclock for stats-only reads), global math/rand
calls (seeded rand.New(rand.NewSource(...)) is fine), go statements
(annotate //themis:goroutine), and map ranges whose bodies emit
tuples/updates or append to result slices that are not subsequently
sorted (annotate //themis:maporder).`,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// Packages is the comma-separated allowlist of import paths the
// analyzer polices. Transport, experiments and benches legitimately
// read the wall clock and spawn goroutines; the hot-path packages must
// not.
var Packages = strings.Join([]string{
	"repro",
	"repro/internal/control",
	"repro/internal/federation",
	"repro/internal/node",
	"repro/internal/operator",
	"repro/internal/sic",
	"repro/internal/core",
	"repro/internal/stream",
	"repro/internal/coordinator",
	"repro/internal/cql",
	"repro/internal/sources",
	"repro/internal/query",
}, ",")

func init() {
	Analyzer.Flags.StringVar(&Packages, "packages", Packages, "comma-separated import paths to police")
}

// randConstructors are the math/rand package-level functions that do
// not touch the global RNG: they build isolated, seeded generators.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

func inList(list, path string) bool {
	for _, p := range strings.Split(list, ",") {
		if strings.TrimSpace(p) == path {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !inList(Packages, pass.Pkg.Path()) {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := directives.Parse(pass.Fset, pass.Files)

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil), (*ast.GoStmt)(nil), (*ast.FuncDecl)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, dirs, n)
		case *ast.GoStmt:
			if _, ok := dirs.Covering(n.Pos(), "goroutine"); ok {
				return
			}
			pass.Reportf(n.Pos(), "go statement in hot-path package %s (scheduling order is nondeterministic; annotate //themis:goroutine <why>)", pass.Pkg.Path())
		case *ast.FuncDecl:
			if n.Body != nil {
				checkMapRanges(pass, dirs, n.Body)
			}
		}
	})
	return nil, nil
}

func checkCall(pass *analysis.Pass, dirs *directives.Set, call *ast.CallExpr) {
	fn := typeutil.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			if _, ok := dirs.Covering(call.Pos(), "wallclock"); ok {
				return
			}
			pass.Reportf(call.Pos(), "time.%s in hot-path package %s (results must be a function of virtual time; annotate //themis:wallclock <why> if stats-only)", fn.Name(), pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		// Methods on *rand.Rand are seeded and deterministic; only
		// package-level functions share hidden global state.
		if fn.Type().(*types.Signature).Recv() != nil {
			return
		}
		if randConstructors[fn.Name()] {
			return
		}
		pass.Reportf(call.Pos(), "global %s.%s in hot-path package %s (shares process-wide RNG state; use a seeded rand.New(rand.NewSource(...)))", fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
	}
}

// checkMapRanges flags map iteration whose order can leak into results:
// bodies that append to slices outliving the loop without a subsequent
// sort, write into emission structures, or send on channels.
func checkMapRanges(pass *analysis.Pass, dirs *directives.Set, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if _, ok := dirs.Covering(rng.Pos(), "maporder"); ok {
			return true
		}
		if sink := orderSink(pass, body, rng); sink != "" {
			pass.Reportf(rng.Pos(), "map iteration order reaches %s in hot-path package %s (sort the keys first, or annotate //themis:maporder <why> if provably order-independent)", sink, pass.Pkg.Path())
		}
		return true
	})
}

// orderSink reports how (if at all) the iteration order of rng escapes:
// "a channel send", "an emission call", or "unsorted slice X". The
// sorted-keys idiom — append keys to a slice inside the loop, sort it
// after — is recognised and permitted.
func orderSink(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) string {
	var sink string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "a channel send"
		case *ast.AssignStmt:
			// x = append(x, ...) — where does x live?
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(n.Lhs) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.SelectorExpr:
					// Field accumulators follow the same sorted-keys
					// idiom as locals: a sort of the same selector
					// after the loop launders the order.
					if !sortedAfterRender(pass, fnBody, rng, exprString(lhs)) {
						sink = "a field append (" + exprString(lhs) + ")"
					}
				case *ast.Ident:
					obj := pass.TypesInfo.ObjectOf(lhs)
					if obj == nil || within(rng.Pos(), rng.End(), obj.Pos()) {
						continue // loop-local accumulator
					}
					if !sortedAfter(pass, fnBody, rng, obj) {
						sink = "unsorted slice " + lhs.Name
					}
				}
			}
		case *ast.CallExpr:
			if fn := typeutil.Callee(pass.TypesInfo, n); fn != nil {
				if name := fn.Name(); name == "Push" || name == "Emit" {
					sink = "an emission call (" + name + ")"
				}
			}
		}
		return sink == ""
	})
	return sink
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether obj is passed to a sort call after the
// range statement within the same function body.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= rng.End() {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := typeutil.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentions(pass, arg, obj) {
				found = true
			}
		}
		return true
	})
	return found
}

// sortedAfterRender is sortedAfter for selector targets (n.field):
// selectors have no single object identity, so arguments are matched by
// their rendered path instead.
func sortedAfterRender(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= rng.End() {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := typeutil.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(c ast.Node) bool {
				if sel, ok := c.(*ast.SelectorExpr); ok && exprString(sel) == target {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}

func mentions(pass *analysis.Pass, e ast.Expr, obj types.Object) bool {
	hit := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			hit = true
		}
		return !hit
	})
	return hit
}

func within(lo, hi, p token.Pos) bool { return p >= lo && p <= hi }

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	default:
		return "expr"
	}
}
