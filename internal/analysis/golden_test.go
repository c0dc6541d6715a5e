package analysis_test

import (
	"testing"

	"repro/internal/analysis/allochygiene"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/harness"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/releasecheck"
	"repro/internal/analysis/themisdirective"
)

// override swaps an analyzer flag variable for the test and returns the
// restore func. The golden fixtures live outside the real hot-path
// package lists, so most tests point the relevant allowlist at the
// fixture's import path.
func override(p *string, v string) func() {
	old := *p
	*p = v
	return func() { *p = old }
}

func TestReleasecheckGolden(t *testing.T) {
	// Fixtures import the real repro/internal/stream, so the default
	// -poolpkgs applies unchanged.
	harness.RunFixture(t, "releasebad", releasecheck.Analyzer)
}

func TestDeterminismGolden(t *testing.T) {
	defer override(&determinism.Packages, determinism.Packages+",fixture/determbad")()
	harness.RunFixture(t, "determbad", determinism.Analyzer)
}

// TestDeterminismAllowlistGate proves the package allowlist gates the
// analyzer: the fixture violates every rule but is not listed, so no
// diagnostics may fire.
func TestDeterminismAllowlistGate(t *testing.T) {
	harness.RunFixture(t, "determallowed", determinism.Analyzer)
}

func TestAllochygieneGolden(t *testing.T) {
	defer override(&allochygiene.HotList, ""+
		"fixture/allocbad.hotMake,"+
		"fixture/allocbad.hotFmt,"+
		"fixture/allocbad.hotComposite,"+
		"fixture/allocbad.hotSliceLit,"+
		"fixture/allocbad.hotMapLit,"+
		"fixture/allocbad.hotCrossAppend,"+
		"(*fixture/allocbad.T).hotStoredClosure,"+
		"fixture/allocbad.hotGoClosure,"+
		"(*fixture/allocbad.T).hotGuardedGrow,"+
		"fixture/allocbad.hotSameAppend,"+
		"fixture/allocbad.hotCallbackClosure,"+
		"fixture/allocbad.hotAnnotated")()
	harness.RunFixture(t, "allocbad", allochygiene.Analyzer)
}

func TestLockorderGolden(t *testing.T) {
	defer override(&lockorder.Ranks, "fixture/lockbad.A.mu=10,fixture/lockbad.B.mu=20")()
	harness.RunFixture(t, "lockbad", lockorder.Analyzer)
}

func TestThemisdirectiveGolden(t *testing.T) {
	harness.RunFixture(t, "directivebad", themisdirective.Analyzer)
}
