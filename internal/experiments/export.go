package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// CSV export: every experiment result can be written as a CSV file whose
// columns mirror the figure's axes, so the paper's plots can be
// regenerated with any plotting tool (cmd/themis-bench -csv <dir>).

// CSVWriter collects named tables and writes them to a directory.
type CSVWriter struct {
	dir string
}

// NewCSVWriter prepares (and creates) the output directory.
func NewCSVWriter(dir string) (*CSVWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &CSVWriter{dir: dir}, nil
}

// write emits one file with a header row and records.
func (w *CSVWriter) write(name string, header []string, rows [][]string) error {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(w.dir, name+".csv"), []byte(b.String()), 0o644)
}

// CSV writes a fairness figure as label,mean_sic,jain,std.
func (r *FairnessResult) CSV(w *CSVWriter, name string) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Label, f4(row.MeanSIC), f4(row.Jain), f4(row.StdSIC)})
	}
	return w.write(name, []string{r.XLabel, "mean_sic", "jain", "std"}, rows)
}

// CSV writes the raw correlation point cloud as dataset,sic,err — one
// record per (query, overload level) observation, the scatter the paper
// plots.
func (r *CorrResult) CSV(w *CSVWriter, name string) error {
	var rows [][]string
	for _, s := range r.Series {
		for _, p := range s.Points {
			if math.IsNaN(p.Err) {
				continue
			}
			rows = append(rows, []string{s.Dataset, f4(p.SIC), f4(p.Err)})
		}
	}
	return w.write(name, []string{"dataset", "sic", "error"}, rows)
}

// CSV writes the Figure 10 comparison as
// fragments,jain_balance,jain_random,std_balance,std_random,mean_balance,mean_random.
func (r *Fig10Result) CSV(w *CSVWriter, name string) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Fragments,
			f4(row.Balance.Jain), f4(row.Random.Jain),
			f4(row.Balance.StdSIC), f4(row.Random.StdSIC),
			f4(row.Balance.MeanSIC), f4(row.Random.MeanSIC),
		})
	}
	return w.write(name, []string{"fragments", "jain_balance", "jain_random",
		"std_balance", "std_random", "mean_balance", "mean_random"}, rows)
}

// CSV writes the ablation table.
func (r *AblationResult) CSV(w *CSVWriter, name string) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Label, f4(row.MeanSIC), f4(row.Jain), f4(row.StdSIC)})
	}
	return w.write(name, []string{"variant", "mean_sic", "jain", "std"}, rows)
}

// CSV writes the STW validation rows.
func (r *STWValidation) CSV(w *CSVWriter, name string) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%g", row.STW.Seconds()), f4(row.MeanSIC), f4(row.StdSIC),
		})
	}
	return w.write(name, []string{"stw_seconds", "mean_sic", "std"}, rows)
}

// CSV writes the §7.5 comparison rows.
func (r *Sec75Result) CSV(w *CSVWriter, name string) error {
	return w.write(name, []string{"metric", "value"}, [][]string{
		{"fit_fully_served", fmt.Sprint(r.FITFullyServed)},
		{"fit_partial", fmt.Sprint(r.FITPartial)},
		{"fit_starved", fmt.Sprint(r.FITStarved)},
		{"fit_jain", f4(r.FITJain)},
		{"zhao_simple_jain", f4(r.ZhaoSimpleJain)},
		{"zhao_complex_jain", f4(r.ZhaoComplexJain)},
		{"balance_complex_jain", f4(r.BalanceComplexJain)},
	})
}

// CSV writes the §7.6 overhead rows.
func (r *Sec76Result) CSV(w *CSVWriter, name string) error {
	return w.write(name, []string{"metric", "value"}, [][]string{
		{"fair_ns_per_batch", f4(r.FairNanosPerBatch)},
		{"random_ns_per_batch", f4(r.RandomNanosPerBatch)},
		{"overhead_percent", f4(r.OverheadPercent)},
		{"header_bytes", fmt.Sprint(r.HeaderBytesPerBatch)},
		{"coordinator_msg_bytes", fmt.Sprint(r.CoordinatorMsgBytes)},
		{"coordinator_messages", fmt.Sprint(r.CoordinatorMessages)},
		{"coordinator_traffic_bytes", fmt.Sprint(r.CoordinatorTraffic)},
	})
}

// CSV writes the node-churn recovery sweep, spans in ticks (-1: never).
func (r *ChurnResult) CSV(w *CSVWriter, name string) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprint(row.STWMs), fmt.Sprint(row.Checkpoint),
			f4(row.PreKillSIC), f4(row.DipSIC),
			fmt.Sprint(row.RecoveryTicks), fmt.Sprint(row.SettledTicks), fmt.Sprint(row.FullRecoveryTicks),
			f4(row.RecoveredSIC),
		})
	}
	return w.write(name, []string{"stw_ms", "checkpoint", "pre_kill_sic", "dip_sic",
		"recovery_ticks", "settled_ticks", "full_recovery_ticks", "recovered_sic"}, rows)
}
