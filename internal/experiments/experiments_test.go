package experiments

import (
	"strings"
	"testing"

	"repro/internal/stream"
)

// tiny keeps every experiment smoke test in the tens-of-milliseconds to
// low-seconds range while exercising the full code paths.
var tiny = Scale{
	Name:       "tiny",
	Duration:   20 * stream.Second,
	Warmup:     10 * stream.Second,
	Rate:       12,
	LoadFactor: 0.04,
}

func TestScaleQueries(t *testing.T) {
	if got := tiny.queries(100); got != 4 {
		t.Errorf("scaled count: %d, want 4", got)
	}
	if got := tiny.queries(10); got != 3 {
		t.Errorf("floor: %d, want 3", got)
	}
	if got := Paper.queries(500); got != 500 {
		t.Errorf("paper scale: %d, want 500", got)
	}
}

func TestTable1Render(t *testing.T) {
	res := Table1Queries()
	if len(res.Rows) != 9 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	out := res.Render()
	for _, want := range []string{"AVG-all", "TOP-5", "COV", "13", "28"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("correlation sweep in -short mode")
	}
	res := Fig6(tiny, 1)
	if len(res) != 3 {
		t.Fatalf("panels: %d", len(res))
	}
	for _, panel := range res {
		if len(panel.Series) != 5 {
			t.Errorf("%s: %d datasets", panel.QueryType, len(panel.Series))
		}
		for _, s := range panel.Series {
			if len(s.Points) == 0 {
				t.Errorf("%s/%s: no points", panel.QueryType, s.Dataset)
			}
			for _, p := range s.Points {
				if p.SIC < 0 || p.SIC > 1.2 || p.Err < 0 {
					t.Errorf("%s/%s: implausible point %+v", panel.QueryType, s.Dataset, p)
				}
			}
		}
		if !strings.Contains(panel.Render(), panel.QueryType) {
			t.Error("render missing query type")
		}
	}
	// Shape: COUNT error at low SIC must exceed AVG error at low SIC
	// (the paper's key observation in Fig. 6).
	avgLow := lowSICErr(res[0])
	countLow := lowSICErr(res[1])
	if countLow <= avgLow {
		t.Errorf("COUNT low-SIC error %.3f should exceed AVG %.3f", countLow, avgLow)
	}
}

// lowSICErr averages the bucketed error over SIC < 0.5 across datasets.
func lowSICErr(r *CorrResult) float64 {
	var sum float64
	var n int
	for _, s := range r.Series {
		for b := 0; b < 5; b++ {
			if v := s.Bucketed[b]; v == v { // skip NaN
				sum += v
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("correlation sweep in -short mode")
	}
	res := Fig7(tiny, 1)
	if len(res) != 2 {
		t.Fatalf("panels: %d", len(res))
	}
	if res[0].QueryType != "TOP-5" || res[1].QueryType != "COV" {
		t.Errorf("panel order: %s, %s", res[0].QueryType, res[1].QueryType)
	}
	for _, s := range res[0].Series {
		for _, p := range s.Points {
			if p.Err < 0 || p.Err > 1 {
				t.Errorf("Kendall distance out of range: %+v", p)
			}
		}
	}
}

func TestFig8Shape(t *testing.T) {
	res := Fig8(tiny, 1)
	if len(res.Rows) != 11 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	// Mean SIC decays with load; Jain stays high.
	if res.Rows[0].MeanSIC <= res.Rows[len(res.Rows)-1].MeanSIC {
		t.Errorf("mean SIC did not decay: %.3f .. %.3f",
			res.Rows[0].MeanSIC, res.Rows[len(res.Rows)-1].MeanSIC)
	}
	for _, r := range res.Rows {
		if r.Jain < 0.7 {
			t.Errorf("row %s: Jain %.3f collapsed", r.Label, r.Jain)
		}
	}
	if !strings.Contains(res.Render(), "Figure 8") {
		t.Error("render title")
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node sweep in -short mode")
	}
	res := Fig10(tiny, 1)
	if len(res.Rows) != 6 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	wins := 0
	for _, r := range res.Rows {
		if r.Balance.Jain > r.Random.Jain {
			wins++
		}
	}
	if wins < 4 {
		t.Errorf("BALANCE-SIC beat random on Jain in only %d of 6 configs", wins)
	}
	if !strings.Contains(res.Render(), "Jain B-SIC") {
		t.Error("render header")
	}
}

func TestFig14Shape(t *testing.T) {
	res := Fig14(tiny, 1)
	if len(res.Rows) != 8 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	// The paper's claim: mean SIC stays in the same ballpark across
	// deployments (LAN vs WAN; steady vs bursty at matching load).
	lan20 := res.Rows[0].MeanSIC
	wan20 := res.Rows[2].MeanSIC
	if lan20 == 0 || wan20 == 0 {
		t.Fatal("zero SIC in Fig 14")
	}
	if wan20 < lan20*0.5 || wan20 > lan20*2 {
		t.Errorf("WAN SIC %.3f far from LAN %.3f", wan20, lan20)
	}
}

func TestSec75Shape(t *testing.T) {
	res := Sec75(tiny, 1)
	if res.FITFullyServed < 2 || res.FITFullyServed > 5 {
		t.Errorf("FIT fully served: %d, want ~3", res.FITFullyServed)
	}
	if res.FITStarved < 50 {
		t.Errorf("FIT starved: %d, want most of 60", res.FITStarved)
	}
	if res.FITJain > 0.2 {
		t.Errorf("FIT Jain: %.3f, want near-minimal", res.FITJain)
	}
	if res.BalanceComplexJain < 0.9 {
		t.Errorf("BALANCE-SIC complex Jain: %.3f, want ~0.97", res.BalanceComplexJain)
	}
	if res.ZhaoComplexJain >= res.BalanceComplexJain {
		t.Errorf("Zhao complex Jain %.3f should trail BALANCE-SIC %.3f",
			res.ZhaoComplexJain, res.BalanceComplexJain)
	}
	if !strings.Contains(res.Render(), "FIT") {
		t.Error("render")
	}
}

func TestSec76Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead experiment in -short mode")
	}
	res := Sec76(tiny, 1)
	if res.FairNanosPerBatch <= 0 || res.RandomNanosPerBatch <= 0 {
		t.Fatalf("missing timings: %+v", res)
	}
	if res.HeaderBytesPerBatch != 10 || res.CoordinatorMsgBytes != 30 {
		t.Errorf("meta-data sizes: %+v", res)
	}
	if res.CoordinatorMessages == 0 || res.CoordinatorTraffic == 0 {
		t.Error("coordinator traffic not accounted")
	}
	if !strings.Contains(res.Render(), "overhead") {
		t.Error("render")
	}
}

func TestSTWShape(t *testing.T) {
	res := STW(tiny, 1)
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.MeanSIC < 0.9 || r.MeanSIC > 1.1 {
			t.Errorf("STW %v: mean SIC %.4f, want ~1", r.STW, r.MeanSIC)
		}
	}
}

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep in -short mode")
	}
	res := Ablation(tiny, 1)
	if len(res.Rows) != 5 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	full := res.Rows[0]
	noUpd := res.Rows[1]
	random := res.Rows[4]
	if full.Jain <= random.Jain {
		t.Errorf("full BALANCE-SIC Jain %.3f should beat random %.3f", full.Jain, random.Jain)
	}
	if full.Jain < noUpd.Jain-0.02 {
		t.Errorf("updateSIC should not hurt fairness: %.3f vs %.3f", full.Jain, noUpd.Jain)
	}
}

func TestTableRendering(t *testing.T) {
	out := table([]string{"a", "long-header"}, [][]string{{"1", "2"}, {"333", "4"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("separator: %q", lines[1])
	}
}

// TestChurnRecoveryExperiment: the recovery-time experiment must show
// the canonical shape in both regimes — near-perfect SIC before the
// kill; without checkpointing a deep dip at the recovery epoch and a
// refill whose duration grows with the window; with checkpointing no
// deep dip and an immediate 90% recovery regardless of the window.
func TestChurnRecoveryExperiment(t *testing.T) {
	res, err := ChurnRecovery([]stream.Duration{1 * stream.Second, 2 * stream.Second}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	for _, row := range res.Rows {
		if row.PreKillSIC < 0.9 {
			t.Errorf("stw %dms: pre-kill SIC %.3f, want steady state", row.STWMs, row.PreKillSIC)
		}
		if row.RecoveryTicks < 0 {
			t.Errorf("stw %dms ckpt=%v: SIC never recovered", row.STWMs, row.Checkpoint)
		}
		if row.RecoveredSIC < 0.9*row.PreKillSIC {
			t.Errorf("stw %dms ckpt=%v: recovered SIC %.3f below threshold", row.STWMs, row.Checkpoint, row.RecoveredSIC)
		}
		if !row.Checkpoint && row.DipSIC > 0.5*row.PreKillSIC {
			t.Errorf("stw %dms: dip SIC %.3f vs pre-kill %.3f: recovery epoch not visible", row.STWMs, row.DipSIC, row.PreKillSIC)
		}
		if row.Checkpoint {
			if row.DipSIC < 0.5*row.PreKillSIC {
				t.Errorf("stw %dms: checkpointed dip SIC %.3f — restore did not skip the refill", row.STWMs, row.DipSIC)
			}
			if row.RecoveryTicks > 20 {
				t.Errorf("stw %dms: checkpointed 90%% recovery took %d ticks, want <= 2 slides", row.STWMs, row.RecoveryTicks)
			}
		}
	}
	// Rows alternate off/on per STW. Window refill dominates the legacy
	// recovery: a 2 s STW must take longer than 1 s.
	if res.Rows[2].RecoveryTicks <= res.Rows[0].RecoveryTicks {
		t.Errorf("recovery %d ticks (2s STW) not above %d ticks (1s STW)", res.Rows[2].RecoveryTicks, res.Rows[0].RecoveryTicks)
	}
}

// TestChurnRecoverySettlesFully guards the long-STW measurement against
// the quantisation artifact it used to suffer: for an STW of ten result
// slides the sliding sum refills in 0.1 steps, so the 90% threshold
// crossing lands exactly on 0.90 — which is NOT the recovered level. The
// settled SIC must come back to the pre-kill value for every window,
// including windows longer than the recovery transient.
func TestChurnRecoverySettlesFully(t *testing.T) {
	if testing.Short() {
		t.Skip("long STW sweep")
	}
	res, err := ChurnRecovery([]stream.Duration{10 * stream.Second}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.FullRecoveryTicks < 0 {
			t.Fatalf("stw %dms ckpt=%v: SIC never settled (recovered %.4f)", row.STWMs, row.Checkpoint, row.RecoveredSIC)
		}
	}
	legacy, ckpt := res.Rows[0], res.Rows[1]
	if legacy.RecoveredSIC < 0.99*legacy.PreKillSIC {
		t.Errorf("stw %dms: settled SIC %.4f below pre-kill %.4f", legacy.STWMs, legacy.RecoveredSIC, legacy.PreKillSIC)
	}
	// The checkpointed run settles within ~2 slides — ten slides sooner
	// than the legacy refill for this window — and its plateau is within
	// the in-transit loss (2 of 30 partial-units) of pre-kill.
	if ckpt.SettledTicks > 20 {
		t.Errorf("checkpointed run settled after %d ticks, want <= 2 slides", ckpt.SettledTicks)
	}
	if legacy.SettledTicks <= 2*ckpt.SettledTicks {
		t.Errorf("legacy settle %d ticks vs checkpointed %d: refill advantage not visible", legacy.SettledTicks, ckpt.SettledTicks)
	}
	if ckpt.RecoveredSIC < (1-2.0/30)*ckpt.PreKillSIC-0.005 {
		t.Errorf("checkpointed plateau %.4f below the in-transit bound of pre-kill %.4f", ckpt.RecoveredSIC, ckpt.PreKillSIC)
	}
}
