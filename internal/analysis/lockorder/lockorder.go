// Package lockorder defines an analyzer enforcing the global mutex
// acquisition order established in PRs 1 and 5 (DESIGN.md §11): locks
// are ranked, and while holding a lock of rank r only strictly
// greater-ranked locks may be acquired. In particular a loop's step
// mutex (Controller.mu, rank 10; NodeServer.mu, rank 20) must never be
// acquired while the plan cache's or a stream pool's lock is held.
//
// The check is intraprocedural with one level of in-package summaries:
// each function's transitively-acquired rank set is computed by
// fixpoint over the package's call graph, so a call made while a lock
// is held is flagged if the callee may acquire a rank that is not
// strictly greater. go and defer launches are excluded (they do not run
// at the call site), as are function literal bodies (scanned as their
// own regions). //themis:lockorder <why> suppresses a reviewed site.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis/directives"
	"repro/internal/xtools/go/analysis"
	"repro/internal/xtools/go/analysis/passes/inspect"
	"repro/internal/xtools/go/ast/inspector"
	"repro/internal/xtools/go/types/typeutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: `enforce the global mutex acquisition order

Ranked locks (see -ranks) must be acquired in strictly increasing rank
order; acquiring a lower-or-equal rank while holding one is a potential
deadlock and is flagged, including through one level of in-package
calls.`,
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// Ranks configures the lock order as pkgpath.Type.field=rank entries.
// Lower rank = outermost. The default encodes the repository's
// discipline:
//
//	Controller.mu (10)  — held by whoever applies a controller step,
//	                      for that step; never nests inside others
//	NodeServer.mu (20)  — held by the host loop for one step; taken
//	                      before any pool lock
//	PlanCache.mu (60)   — plan memo
//	Pool.mu (100)       — free lists; innermost leaf, may nest under all
var Ranks = strings.Join([]string{
	"repro/internal/transport.Controller.mu=10",
	"repro/internal/transport.NodeServer.mu=20",
	"repro/internal/cql.PlanCache.mu=60",
	"repro/internal/stream.Pool.mu=100",
}, ",")

func init() {
	Analyzer.Flags.StringVar(&Ranks, "ranks", Ranks, "comma-separated pkgpath.Type.field=rank lock classes")
}

type lockClass struct {
	name string // pkgpath.Type.field
	rank int
}

func parseRanks() (map[string]lockClass, error) {
	m := map[string]lockClass{}
	for _, ent := range strings.Split(Ranks, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		key, val, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("lockorder: bad -ranks entry %q", ent)
		}
		r, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("lockorder: bad rank in %q: %v", ent, err)
		}
		m[key] = lockClass{name: key, rank: r}
	}
	return m, nil
}

func run(pass *analysis.Pass) (interface{}, error) {
	classes, err := parseRanks()
	if err != nil {
		return nil, err
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	dirs := directives.Parse(pass.Fset, pass.Files)

	// classOf resolves x.field.(Lock|Unlock|RLock|RUnlock)() to a
	// ranked class, if the field is configured.
	classOf := func(call *ast.CallExpr) (lockClass, bool, bool) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return lockClass{}, false, false
		}
		var acquire bool
		switch sel.Sel.Name {
		case "Lock", "RLock":
			acquire = true
		case "Unlock", "RUnlock":
		default:
			return lockClass{}, false, false
		}
		field, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return lockClass{}, false, false
		}
		fsel, ok := pass.TypesInfo.Selections[field]
		if !ok {
			return lockClass{}, false, false
		}
		v, ok := fsel.Obj().(*types.Var)
		if !ok || !v.IsField() {
			return lockClass{}, false, false
		}
		rt := fsel.Recv()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return lockClass{}, false, false
		}
		key := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + v.Name()
		c, ok := classes[key]
		return c, acquire, ok
	}

	// Pass 1: per-function summaries of directly-acquired ranks, then a
	// fixpoint over in-package calls.
	type summary struct {
		acquires map[int]lockClass
		calls    []*types.Func
	}
	sums := map[*types.Func]*summary{}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil {
			return
		}
		fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if !ok {
			return
		}
		sum := &summary{acquires: map[int]lockClass{}}
		sums[fn] = sum
		ast.Inspect(decl.Body, func(c ast.Node) bool {
			if _, isLit := c.(*ast.FuncLit); isLit {
				return false // runs at another time; scanned separately
			}
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			if cls, acquire, ranked := classOf(call); ranked {
				if acquire {
					sum.acquires[cls.rank] = cls
				}
				return true
			}
			if callee, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func); ok && callee.Pkg() == pass.Pkg {
				sum.calls = append(sum.calls, callee)
			}
			return true
		})
	})
	for changed := true; changed; {
		changed = false
		for _, sum := range sums {
			for _, callee := range sum.calls {
				cs, ok := sums[callee]
				if !ok {
					continue
				}
				for r, cls := range cs.acquires {
					if _, have := sum.acquires[r]; !have {
						sum.acquires[r] = cls
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: linear region scan of every function (and literal) body.
	report := func(pos token.Pos, format string, args ...interface{}) {
		if _, ok := dirs.Covering(pos, "lockorder"); ok {
			return
		}
		pass.Reportf(pos, format, args...)
	}
	scanBody := func(body *ast.BlockStmt) {
		held := map[string]lockClass{} // class name -> class
		ast.Inspect(body, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				return false // runs concurrently, not under these locks
			case *ast.CallExpr:
				if cls, acquire, ranked := classOf(c); ranked {
					if acquire {
						for _, h := range held {
							if cls.rank <= h.rank {
								report(c.Pos(), "acquiring %s (rank %d) while holding %s (rank %d) violates the lock order", cls.name, cls.rank, h.name, h.rank)
							}
						}
						held[cls.name] = cls
					} else {
						delete(held, cls.name)
					}
					return true
				}
				if len(held) == 0 {
					return true
				}
				callee, ok := typeutil.Callee(pass.TypesInfo, c).(*types.Func)
				if !ok || callee.Pkg() != pass.Pkg {
					return true
				}
				if sum, ok := sums[callee]; ok {
					ranks := make([]int, 0, len(sum.acquires))
					for r := range sum.acquires {
						ranks = append(ranks, r)
					}
					sort.Ints(ranks)
					for _, r := range ranks {
						cls := sum.acquires[r]
						for _, h := range held {
							if cls.rank <= h.rank {
								report(c.Pos(), "call to %s may acquire %s (rank %d) while %s (rank %d) is held", callee.Name(), cls.name, cls.rank, h.name, h.rank)
							}
						}
					}
				}
			case *ast.DeferStmt:
				// defer x.mu.Unlock() keeps the lock held to the end of
				// the function — which the linear scan models by simply
				// never removing it. Any other deferred call is skipped
				// (it does not run at this point).
				// (classOf(c.Call) being a ranked Unlock needs no action.)
				return false
			}
			return true
		})
	}
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				scanBody(n.Body)
			}
		case *ast.FuncLit:
			scanBody(n.Body)
		}
	})
	return nil, nil
}
