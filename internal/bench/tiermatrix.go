package bench

import (
	"fmt"
	"math"
	"strings"

	"streamscale/internal/apps"
	"streamscale/internal/hw"
)

// The tiered (-tier) variants of the figure sweeps, plus the widened
// scenario matrix the fast tier makes affordable. Each builds TierGroups,
// runs them through RunCellsTiered, and renders a table where verified
// (simulated) entries are marked '*' and everything else is the fast
// tier's analytical estimate. The untiered sweeps in experiments.go are
// untouched: the default dspreport output stays byte-identical.

// TierBatchSizes is the widened Fig 12/13 batch-size axis (the untiered
// sweep stops at 8).
var TierBatchSizes = []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// TierCorePoints is the widened Fig 6b/6c core-count axis. Points are
// chosen so parallelism re-tuning (scale = cores/8) only takes values
// whose full-machine probes other sweeps share or need anyway.
var TierCorePoints = []int{1, 2, 3, 4, 6, 8, 12, 16, 20, 32}

// TieredBatching runs the widened Fig 12/13 sweep through the fast tier:
// every (app, system) group screens all of TierBatchSizes and verifies
// the anchor, the predicted best, the midpoint, and the least certain.
func TieredBatching() (*TierRun, error) {
	var groups []TierGroup
	for _, app := range apps.BenchmarkNames() {
		for _, sys := range Systems {
			g := TierGroup{Name: app + "/" + sys}
			for _, s := range TierBatchSizes {
				g.Cells = append(g.Cells, Cell{App: app, System: sys, Sockets: 1, BatchSize: s})
			}
			groups = append(groups, g)
		}
	}
	return RunCellsTiered("fig12-wide", groups, TierPolicy{Budget: 4, Midpoint: true})
}

// TieredBatchingTables renders the wide Fig 12 and Fig 13 tables.
func TieredBatchingTables(run *TierRun) string {
	hdr := make([]string, len(TierBatchSizes))
	for i, s := range TierBatchSizes {
		hdr[i] = fmt.Sprintf("S=%d", s)
	}
	tp := tierSeriesTable("Fig 12 (tiered, wide) — normalized throughput with tuple batching (* = simulation-verified)",
		run, hdr, tierThroughputSeries)
	lat := tierSeriesTable("Fig 13 (tiered, wide) — normalized latency with tuple batching (* = simulation-verified)",
		run, hdr, tierLatencySeries)
	return tp + "\n" + lat
}

// TieredScalability runs the widened Fig 6b/6c sweep for one system.
// Cells mirror ScalabilityFor exactly (event scaling for tiny slices,
// parallelism re-tuned with the core count), so a verified point is the
// same simulation the untiered figure would run.
func TieredScalability(system string) (*TierRun, error) {
	var groups []TierGroup
	for _, app := range apps.BenchmarkNames() {
		g := TierGroup{Name: app + "/" + system}
		for _, cores := range TierCorePoints {
			scale := 1.0
			if cores <= 2 {
				scale = 0.5
			}
			par := cores / 8
			if par < 1 {
				par = 1
			}
			g.Cells = append(g.Cells, Cell{App: app, System: system, Cores: cores, EventScale: scale, Scale: par})
		}
		groups = append(groups, g)
	}
	name := "fig6b-wide"
	if system == "flink" {
		name = "fig6c-wide"
	}
	return RunCellsTiered(name, groups, TierPolicy{Budget: 3, Midpoint: true})
}

// TieredScalabilityTable renders the wide Fig 6b/6c table.
func TieredScalabilityTable(system string, run *TierRun) string {
	fig := "6b"
	if system == "flink" {
		fig = "6c"
	}
	hdr := make([]string, len(TierCorePoints))
	for i, p := range TierCorePoints {
		hdr[i] = fmt.Sprintf("%dc", p)
	}
	title := fmt.Sprintf("Fig %s (tiered, wide) — %s normalized throughput vs cores (1 core = 100%%, * = simulation-verified)", fig, system)
	return tierSeriesTable(title, run, hdr, tierThroughputSeries)
}

// tierThroughputSeries returns a group's throughput series normalized to
// its anchor, each point flagged verified or estimated. Verified points
// normalize measured-to-measured, estimated points predicted-to-predicted,
// so neither scale contaminates the other.
func tierThroughputSeries(cells []TierCell) ([]float64, []bool) {
	vals := make([]float64, len(cells))
	ver := make([]bool, len(cells))
	basePred := cells[0].Pred.ThroughputEPS
	var baseMeas float64
	if cells[0].Res != nil {
		baseMeas = cells[0].Res.Throughput().PerSecond()
	}
	for i, c := range cells {
		switch {
		case c.Res != nil && baseMeas > 0:
			vals[i] = c.Res.Throughput().PerSecond() / baseMeas
			ver[i] = true
		case basePred > 0:
			vals[i] = c.Pred.ThroughputEPS / basePred
		}
	}
	return vals, ver
}

// tierLatencySeries is tierThroughputSeries for mean latency.
func tierLatencySeries(cells []TierCell) ([]float64, []bool) {
	vals := make([]float64, len(cells))
	ver := make([]bool, len(cells))
	basePred := cells[0].Pred.LatencyMs
	var baseMeas float64
	if cells[0].Res != nil {
		baseMeas = cells[0].Res.Latency.Mean()
	}
	for i, c := range cells {
		switch {
		case c.Res != nil && baseMeas > 0:
			vals[i] = c.Res.Latency.Mean() / baseMeas
			ver[i] = true
		case basePred > 0:
			vals[i] = c.Pred.LatencyMs / basePred
		}
	}
	return vals, ver
}

// tierSeriesTable renders one normalized-series table over a tiered run
// whose groups are named "app/system".
func tierSeriesTable(title string, run *TierRun, hdr []string, series func([]TierCell) ([]float64, []bool)) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-6s %-6s", "sys", "app")
	for _, h := range hdr {
		fmt.Fprintf(&b, "%9s", h)
	}
	b.WriteByte('\n')
	for _, sys := range Systems {
		for gi, g := range run.Groups {
			app, gsys, ok := strings.Cut(g.Name, "/")
			if !ok || gsys != sys {
				continue
			}
			vals, ver := series(run.Cells[gi])
			fmt.Fprintf(&b, "%-6s %-6s", gsys, app)
			for i, v := range vals {
				mark := ""
				if ver[i] {
					mark = "*"
				}
				fmt.Fprintf(&b, "%9s", fmt.Sprintf("%.0f%%%s", v*100, mark))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// --- the widened scenario matrix -----------------------------------------

// matrixSlices and matrixBatches are the spec-matrix axes: machine slice
// (sockets enabled; 0 = whole machine), parallelism scale, and batch size.
var (
	matrixSlices  = []int{1, 2, 0}
	matrixScales  = []int{1, 2}
	matrixBatches = []int{1, 2, 4, 8, 16, 32, 64}
)

// SpecMatrix screens every (machine variant x slice x scale x batch)
// configuration of every workload — thousands of cells, one probe per
// (workload, scale) — and verifies the predicted best of each group plus
// its crossover neighbors. This is the sweep the fast tier exists for:
// simulating it exhaustively would take hours.
func SpecMatrix() (*TierRun, error) {
	var groups []TierGroup
	for _, app := range apps.BenchmarkNames() {
		for _, sys := range Systems {
			g := TierGroup{Name: app + "/" + sys}
			seen := make(map[string]bool)
			for _, variant := range hw.VariantNames() {
				for _, sl := range matrixSlices {
					for _, scale := range matrixScales {
						for _, batch := range matrixBatches {
							c := Cell{
								App: app, System: sys, Spec: variant,
								Sockets: sl, Scale: scale, BatchSize: batch,
							}
							// A slice equal to the variant's whole machine
							// duplicates the sockets=0 cell; keep one.
							if key := c.Canonical(); !seen[key] {
								seen[key] = true
								g.Cells = append(g.Cells, c)
							}
						}
					}
				}
			}
			groups = append(groups, g)
		}
	}
	return RunCellsTiered("spec-matrix", groups, TierPolicy{Budget: 4, Neighborhood: 1})
}

// SpecMatrixTable renders, per workload and machine variant, the best
// predicted configuration and its throughput relative to the Table III
// variant's best.
func SpecMatrixTable(run *TierRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Spec matrix (tiered) — best configuration per machine variant (fast-tier estimates; * = simulation-verified)\n")
	fmt.Fprintf(&b, "%-6s %-6s %-9s %7s %6s %6s %12s %9s %12s\n",
		"sys", "app", "variant", "sockets", "scale", "batch", "pred k/s", "vs base", "measured")
	for _, sys := range Systems {
		for gi, g := range run.Groups {
			app, gsys, ok := strings.Cut(g.Name, "/")
			if !ok || gsys != sys {
				continue
			}
			// Best predicted cell per variant, in VariantNames order.
			baseBest := math.NaN()
			for _, variant := range hw.VariantNames() {
				best := -1
				for i, tc := range run.Cells[gi] {
					if tc.Cell.Spec != variant {
						continue
					}
					if best < 0 || tc.Pred.ThroughputEPS > run.Cells[gi][best].Pred.ThroughputEPS {
						best = i
					}
				}
				if best < 0 {
					continue
				}
				tc := run.Cells[gi][best]
				if variant == "" {
					baseBest = tc.Pred.ThroughputEPS
				}
				name := variant
				if name == "" {
					name = "table3"
				}
				sockets := tc.Cell.Sockets
				if sockets == 0 {
					if spec, err := tc.Cell.MachineSpec(); err == nil {
						sockets = spec.Sockets
					}
				}
				vsBase := tc.Pred.ThroughputEPS / baseBest
				measured := "-"
				if tc.Res != nil {
					measured = fmt.Sprintf("%10.1f*", tc.Res.Throughput().KPerSecond())
				}
				fmt.Fprintf(&b, "%-6s %-6s %-9s %7d %6d %6d %12.1f %8.2fx %12s\n",
					gsys, app, name, sockets, tc.Cell.Scale, tc.Cell.BatchSize,
					tc.Pred.ThroughputEPS/1e3, vsBase, measured)
			}
		}
	}
	return b.String()
}
