package cql

import (
	"testing"

	"repro/internal/sources"
)

// FuzzCQL drives arbitrary text through the lexer, the parser and the
// distributed planner — the path a deploy frame's CQL field takes on
// every host. Nothing may panic; a statement that parses must satisfy
// the parse → String → parse fixed point, and one that also plans (over
// one fragment or three) must produce a plan that validates.
func FuzzCQL(f *testing.F) {
	for _, src := range table1Statements {
		f.Add(src)
	}
	for _, c := range parseErrorCases {
		f.Add(c.src)
	}
	for _, src := range planErrorCases {
		f.Add(src)
	}
	cat := DefaultCatalog(sources.Uniform)
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return
		}
		checkFixedPoint(t, src)
		for _, frags := range []int{1, 3} {
			p, err := PlanDistributed(st, cat, frags)
			if err != nil {
				continue
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("%q over %d fragments plans to an invalid plan: %v", src, frags, err)
			}
		}
	})
}
