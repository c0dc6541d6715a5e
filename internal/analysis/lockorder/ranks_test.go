package lockorder

import (
	"go/types"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/load"
)

// TestRanksNameRealMutexes keeps the default lock order from going stale:
// every pkgpath.Type.field in Ranks must name a field that exists and is
// a sync.Mutex or sync.RWMutex. A rank left behind for a deleted lock
// would otherwise constrain nothing and read as if the lock were still
// there.
func TestRanksNameRealMutexes(t *testing.T) {
	classes, err := parseRanks()
	if err != nil {
		t.Fatal(err)
	}
	byPkg := map[string][]string{} // package path → Type.field entries
	for key := range classes {
		dot := strings.LastIndex(key, ".")
		dot = strings.LastIndex(key[:dot], ".")
		if dot < 0 {
			t.Fatalf("rank %q is not pkgpath.Type.field", key)
		}
		byPkg[key[:dot]] = append(byPkg[key[:dot]], key[dot+1:])
	}
	paths := make([]string, 0, len(byPkg))
	for p := range byPkg {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	// The test runs in internal/analysis/lockorder; the module root is
	// three levels up.
	res, err := load.Module("../../..", paths...)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		pkg := res.ByPath[path]
		if pkg == nil {
			t.Errorf("package %s of a ranked lock did not load", path)
			continue
		}
		for _, tf := range byPkg[path] {
			typeName, field, _ := strings.Cut(tf, ".")
			if err := isMutexField(pkg.Types, typeName, field); err != "" {
				t.Errorf("rank %s.%s: %s", path, tf, err)
			}
		}
	}
}

// isMutexField reports why pkg's typeName.field is not a sync.Mutex or
// sync.RWMutex field, or "" when it is one.
func isMutexField(pkg *types.Package, typeName, field string) string {
	obj, _ := pkg.Scope().Lookup(typeName).(*types.TypeName)
	if obj == nil {
		return "no such type"
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return "not a struct type"
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != field {
			continue
		}
		named, ok := f.Type().(*types.Named)
		if ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" &&
			(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex") {
			return ""
		}
		return "field is a " + f.Type().String() + ", not a sync.Mutex or sync.RWMutex"
	}
	return "no such field"
}
