package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	w, err := NewCSVWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	fr := &FairnessResult{
		XLabel: "queries",
		Rows:   []FairnessRow{{Label: "30", MeanSIC: 0.5, Jain: 0.99, StdSIC: 0.01}},
	}
	if err := fr.CSV(w, "fig8"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig8.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "queries,mean_sic,jain,std" {
		t.Errorf("header: %q", lines[0])
	}
	if lines[1] != "30,0.5000,0.9900,0.0100" {
		t.Errorf("row: %q", lines[1])
	}

	cr := &CorrResult{
		QueryType: "AVG",
		Series: []CorrSeries{{
			Dataset: "gaussian",
			Points:  []CorrPoint{{SIC: 0.5, Err: 0.1}},
		}},
	}
	if err := cr.CSV(w, "fig6_avg"); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(filepath.Join(dir, "fig6_avg.csv"))
	if !strings.Contains(string(data), "gaussian,0.5000,0.1000") {
		t.Errorf("corr csv: %q", string(data))
	}

	f10 := &Fig10Result{Rows: []Fig10Row{{
		Fragments: "2",
		Balance:   FairnessRow{Jain: 0.99, StdSIC: 0.02, MeanSIC: 0.3},
		Random:    FairnessRow{Jain: 0.9, StdSIC: 0.06, MeanSIC: 0.25},
	}}}
	if err := f10.CSV(w, "fig10"); err != nil {
		t.Fatal(err)
	}
	ab := &AblationResult{Rows: []FairnessRow{{Label: "full", MeanSIC: 0.3, Jain: 0.99}}}
	if err := ab.CSV(w, "ablation"); err != nil {
		t.Fatal(err)
	}
	stw := &STWValidation{Rows: []STWRow{{STW: 10000, MeanSIC: 0.99, StdSIC: 0.001}}}
	if err := stw.CSV(w, "stw"); err != nil {
		t.Fatal(err)
	}
	s75 := &Sec75Result{FITFullyServed: 3, FITPartial: 1, FITStarved: 56, FITJain: 0.064}
	if err := s75.CSV(w, "sec75"); err != nil {
		t.Fatal(err)
	}
	s76 := &Sec76Result{FairNanosPerBatch: 250, RandomNanosPerBatch: 30}
	if err := s76.CSV(w, "sec76"); err != nil {
		t.Fatal(err)
	}
	ch := &ChurnResult{IntervalMs: 100, Rows: []ChurnRow{{STWMs: 5000, Checkpoint: true, PreKillSIC: 1, DipSIC: 1,
		RecoveryTicks: 1, SettledTicks: 10, FullRecoveryTicks: -1, RecoveredSIC: 0.8667}}}
	if err := ch.CSV(w, "churn"); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(filepath.Join(dir, "churn.csv"))
	if !strings.Contains(string(data), "5000,true,1.0000,1.0000,1,10,-1,0.8667") {
		t.Errorf("churn csv: %q", string(data))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8 {
		t.Errorf("csv files: %d, want 8", len(entries))
	}
}
