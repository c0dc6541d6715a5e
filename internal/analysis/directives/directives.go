// Package directives parses the //themis: suppression annotations the
// themis-vet analyzers honor. The grammar (DESIGN.md §11):
//
//	//themis:NAME one-line justification
//
// as a trailing comment on the offending line or as a comment line
// immediately above it. NAME is one of the known directive names; the
// justification is mandatory — a bare directive is itself a diagnostic
// (reported by the themisdirective analyzer), so suppressions cannot
// silently accrete without recorded reasons.
package directives

import (
	"go/ast"
	"go/token"
	"strings"
)

// Known directive names and which analyzer consumes each.
var Known = map[string]string{
	"owns":      "releasecheck: ownership of an acquired batch transfers to the annotated callee/structure",
	"wallclock": "determinism: reviewed wall-clock read (stats/diagnostics only, never result-affecting)",
	"maporder":  "determinism: reviewed map iteration (order provably does not affect results)",
	"goroutine": "determinism: reviewed goroutine launch in a hot-path package (scheduling provably does not affect results)",
	"coldalloc": "allochygiene: reviewed allocation on a cold/amortised path of a hot function",
	"lockorder": "lockorder: reviewed lock acquisition outside the global order",
}

// Directive is one parsed //themis: annotation.
type Directive struct {
	Name          string
	Justification string
	Pos           token.Pos
	Line          int // line the directive suppresses (its own line for trailing, next line otherwise)
}

// Set indexes a file set's directives by (file, line).
type Set struct {
	fset *token.FileSet
	// byLine maps file name + line to the directives covering that line.
	byLine map[string]map[int][]Directive
	All    []Directive
}

// Parse scans the comments of files for //themis: directives.
func Parse(fset *token.FileSet, files []*ast.File) *Set {
	s := &Set{fset: fset, byLine: map[string]map[int][]Directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//themis:")
				if !ok {
					continue
				}
				name, just, _ := strings.Cut(text, " ")
				pos := fset.Position(c.Pos())
				d := Directive{Name: name, Justification: strings.TrimSpace(just), Pos: c.Pos()}
				// A directive on a line by itself covers the next line;
				// a trailing directive covers its own line. We detect
				// "own line" by column 1 token on the line being the
				// comment itself: approximate by checking whether any
				// non-comment code shares the line — cheap heuristic:
				// trailing comments start after column 1 AND the line
				// has code before them. We can't see raw source here,
				// so cover both the directive's line and the next one;
				// the analyzers only consult lines that hold flagged
				// statements, so the over-coverage is one line wide.
				d.Line = pos.Line
				m := s.byLine[pos.Filename]
				if m == nil {
					m = map[int][]Directive{}
					s.byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], d)
				m[pos.Line+1] = append(m[pos.Line+1], d)
				s.All = append(s.All, d)
			}
		}
	}
	return s
}

// Covering returns the directive of the given name covering pos (same
// line as the annotation or the line after it), if any.
func (s *Set) Covering(pos token.Pos, name string) (Directive, bool) {
	p := s.fset.Position(pos)
	for _, d := range s.byLine[p.Filename][p.Line] {
		if d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}
