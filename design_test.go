package themis_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestDesignNamesExist holds DESIGN.md's names to the code. Every
// backticked span outside a fenced block is classified and resolved:
//
//   - a Go identifier or dotted name (`Controller.step`, `node.Deploy`,
//     `Pool.Live()`) must have its last component declared in the
//     repository's Go files — bench/ included — as a package, type,
//     function, method, constant, variable or field; or, when its first
//     component names a standard-library package the repository imports
//     (`time.Now`), be declared in that package. A single word may also
//     be a keyword, a predeclared name, an imported package (`fmt`) or a
//     string literal of the repository (`jain`, a metric);
//   - a path (`internal/transport`, `codec.go`) must exist: relative to
//     the repository root, as the base name of a file in it, or as a
//     standard-library package directory (`math/rand`);
//   - a snake_case name, dotted or not (`checkpoint_ticks`,
//     `net_overload_24x48`, `transport.build_ms`), must be a string
//     literal or a json struct tag name somewhere in the repository.
//
// Everything else (expressions, numbers, quoted text) is not checked.
// Sources are read with go/parser alone: no type-checking, no go list.
func TestDesignNamesExist(t *testing.T) {
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	repo := scanRepo(t, ".")
	std := stdPackages{imports: repo.imports, parsed: map[string]map[string]bool{}}
	for _, fault := range designNameFaults(string(text), repo, &std) {
		t.Error(fault)
	}
}

var (
	designSpan  = regexp.MustCompile("`([^`\n]+)`")
	designIdent = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$`)
	designSnake = regexp.MustCompile(`^[a-z][a-z0-9.]*(_[a-z0-9.]+)+$`)
	designPath  = regexp.MustCompile(`^[A-Za-z0-9_.\-]+(/[A-Za-z0-9_.\-]+)*/?$`)
	designFile  = regexp.MustCompile(`\.(go|sh|md|json|yml)$`)
	designCall  = regexp.MustCompile(`^\*?([A-Za-z_][A-Za-z0-9_.]*)\(.*\)$`)
)

// designNameFaults returns one fault, with its DESIGN.md line, per
// backticked name in text that does not resolve against repo or the
// standard library.
func designNameFaults(text string, repo *repoNames, std *stdPackages) []string {
	var faults []string
	fenced := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range designSpan.FindAllStringSubmatch(line, -1) {
			if msg := resolveDesignName(m[1], repo, std); msg != "" {
				faults = append(faults, fmt.Sprintf("DESIGN.md:%d: `%s`: %s", i+1, m[1], msg))
			}
		}
	}
	return faults
}

// resolveDesignName returns why tok does not resolve, or "".
func resolveDesignName(tok string, repo *repoNames, std *stdPackages) string {
	if m := designCall.FindStringSubmatch(tok); m != nil {
		tok = m[1]
	}
	tok = strings.TrimPrefix(tok, "*")
	switch {
	case designSnake.MatchString(tok):
		if !repo.strs[tok] {
			return "no string literal or struct tag carries this name"
		}
	case designIdent.MatchString(tok) && !designFile.MatchString(tok):
		parts := strings.Split(tok, ".")
		last := parts[len(parts)-1]
		if repo.decls[last] {
			return ""
		}
		if len(parts) == 1 && (token.IsKeyword(tok) || types.Universe.Lookup(tok) != nil || repo.imports[tok] != nil || repo.strs[tok]) {
			return ""
		}
		if len(parts) > 1 && std.declares(parts[0], last) {
			return ""
		}
		return "not declared in the repository or the standard library"
	case designPath.MatchString(tok) && (strings.Contains(tok, "/") || designFile.MatchString(tok)):
		if _, err := os.Stat(filepath.FromSlash(tok)); err == nil || repo.files[tok] {
			return ""
		}
		if _, err := os.Stat(filepath.Join(runtime.GOROOT(), "src", filepath.FromSlash(tok))); err == nil {
			return ""
		}
		return "no such path"
	}
	return ""
}

// repoNames is what the repository's Go files declare: identifiers
// (types, functions, methods, constants, variables, struct fields,
// interface methods), string literals and struct tag names, file base
// names, and imported package paths by their last element.
type repoNames struct {
	decls   map[string]bool
	strs    map[string]bool
	files   map[string]bool
	imports map[string][]string
}

func scanRepo(t *testing.T, root string) *repoNames {
	t.Helper()
	r := &repoNames{decls: map[string]bool{}, strs: map[string]bool{}, files: map[string]bool{}, imports: map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		r.files[d.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			r.imports[name] = append(r.imports[name], p)
		}
		r.decls[f.Name.Name] = true
		collectDecls(f, r.decls)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					if s, err := strconv.Unquote(n.Value); err == nil {
						r.strs[s] = true
					}
				}
			case *ast.Field:
				if n.Tag != nil {
					tag, _ := strconv.Unquote(n.Tag.Value)
					if v, ok := reflect.StructTag(tag).Lookup("json"); ok {
						r.strs[strings.Split(v, ",")[0]] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// collectDecls adds every name f declares — not parameters or := locals —
// to into.
func collectDecls(f *ast.File, into map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			into[n.Name.Name] = true
		case *ast.TypeSpec:
			into[n.Name.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				into[id.Name] = true
			}
		case *ast.StructType:
			addFieldNames(n.Fields, into)
		case *ast.InterfaceType:
			addFieldNames(n.Methods, into)
		}
		return true
	})
}

func addFieldNames(fl *ast.FieldList, into map[string]bool) {
	for _, fld := range fl.List {
		for _, id := range fld.Names {
			into[id.Name] = true
		}
		if len(fld.Names) == 0 { // embedded: the type's name is the field's
			typ := fld.Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if sel, ok := typ.(*ast.SelectorExpr); ok {
				into[sel.Sel.Name] = true
			} else if id, ok := typ.(*ast.Ident); ok {
				into[id.Name] = true
			}
		}
	}
}

// stdPackages resolves a name in a standard-library package the
// repository imports, parsing each package's non-test files once.
type stdPackages struct {
	imports map[string][]string
	parsed  map[string]map[string]bool
}

func (s *stdPackages) declares(pkg, name string) bool {
	for _, path := range s.imports[pkg] {
		decls, ok := s.parsed[path]
		if !ok {
			decls = map[string]bool{}
			dir := filepath.Join(runtime.GOROOT(), "src", filepath.FromSlash(path))
			ents, _ := os.ReadDir(dir)
			fset := token.NewFileSet()
			for _, e := range ents {
				if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
					if f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution); err == nil {
						collectDecls(f, decls)
					}
				}
			}
			s.parsed[path] = decls
		}
		if decls[name] {
			return true
		}
	}
	return false
}
