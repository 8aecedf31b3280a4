package bench

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"streamscale/internal/apps"

	"streamscale/internal/engine"
	"streamscale/internal/hw"
	"streamscale/internal/jvm"
	"streamscale/internal/place"
	"streamscale/internal/profiler"
)

// Systems are the two engine profiles under study.
var Systems = []string{"storm", "flink"}

// CellResult pairs a cell with its run result.
type CellResult struct {
	Cell Cell
	Res  *engine.Result
}

// Sweep runs one cell per (app x system) with a common configuration
// mutation and returns results in deterministic order. Cells execute on
// the package worker pool (see RunCells / SetJobs).
func Sweep(appNames []string, mutate func(*Cell)) ([]CellResult, error) {
	var cells []Cell
	for _, app := range appNames {
		for _, sys := range Systems {
			c := Cell{App: app, System: sys, Sockets: 1}
			if mutate != nil {
				mutate(&c)
			}
			cells = append(cells, c)
		}
	}
	return runCells(cells)
}

func (cr CellResult) key() string { return cr.Cell.App + "/" + cr.Cell.System }

func find(cells []CellResult, app, sys string) *CellResult {
	for i := range cells {
		if cells[i].Cell.App == app && cells[i].Cell.System == sys {
			return &cells[i]
		}
	}
	return nil
}

// --- E1 / E4 / E5 / E6 / E11: the single-socket study -------------------

// SingleSocketStudy runs the seven applications on one socket under both
// systems; its results feed Fig 6a, Table IV, Fig 7, Fig 8 and Fig 11.
func SingleSocketStudy() ([]CellResult, error) {
	return Sweep(apps.BenchmarkNames(), nil)
}

// Fig6aTable renders absolute throughput per app and system (Figure 6a).
func Fig6aTable(cells []CellResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6a — throughput on a single socket (k events/s)\n")
	fmt.Fprintf(&b, "%-6s %12s %12s\n", "app", "storm", "flink")
	for _, app := range apps.BenchmarkNames() {
		s := find(cells, app, "storm")
		f := find(cells, app, "flink")
		fmt.Fprintf(&b, "%-6s %12.1f %12.1f\n", app,
			s.Res.Throughput().KPerSecond(), f.Res.Throughput().KPerSecond())
	}
	return b.String()
}

// TableIV renders CPU and memory bandwidth utilization (Table IV).
func TableIV(cells []CellResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV — CPU and memory bandwidth utilization, single socket\n")
	fmt.Fprintf(&b, "%-16s", "")
	for _, app := range apps.BenchmarkNames() {
		fmt.Fprintf(&b, "%8s", app)
	}
	b.WriteByte('\n')
	for _, sys := range Systems {
		for _, row := range []string{"CPU", "Memory"} {
			fmt.Fprintf(&b, "%-6s %-9s", sys, row)
			for _, app := range apps.BenchmarkNames() {
				cr := find(cells, app, sys)
				v := cr.Res.CPUUtil
				if row == "Memory" {
					v = cr.Res.MemUtil
				}
				fmt.Fprintf(&b, "%7.0f%%", v*100)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Fig7Table renders the execution-time breakdown (Figure 7).
func Fig7Table(cells []CellResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7 — execution time breakdown (%% of cycles)\n")
	fmt.Fprintf(&b, "%-6s %-6s %6s %6s %6s %6s %7s\n",
		"sys", "app", "comp", "front", "back", "spec", "stalls")
	for _, sys := range Systems {
		for _, app := range apps.BenchmarkNames() {
			bd := find(cells, app, sys).Res.Profile.Breakdown()
			fmt.Fprintf(&b, "%-6s %-6s %5.1f%% %5.1f%% %5.1f%% %5.1f%% %6.1f%%\n",
				sys, app, bd.Computation*100, bd.FrontEnd*100, bd.BackEnd*100,
				bd.BadSpec*100, (1-bd.Computation)*100)
		}
	}
	return b.String()
}

// Fig8Table renders the front-end stall breakdown (Figure 8).
func Fig8Table(cells []CellResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8 — front-end stall breakdown (%% of front-end stalls)\n")
	fmt.Fprintf(&b, "%-6s %-6s %10s %10s %8s\n", "sys", "app", "i-decode", "l1i-miss", "itlb")
	for _, sys := range Systems {
		for _, app := range apps.BenchmarkNames() {
			fe := find(cells, app, sys).Res.Profile.FrontEnd()
			fmt.Fprintf(&b, "%-6s %-6s %9.1f%% %9.1f%% %7.1f%%\n",
				sys, app, fe.IDecoding*100, fe.L1IMiss*100, fe.ITLB*100)
		}
	}
	return b.String()
}

// Fig11Table renders the back-end stall breakdown (Figure 11).
func Fig11Table(cells []CellResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 11 — back-end stall breakdown (%% of back-end stalls)\n")
	fmt.Fprintf(&b, "%-6s %-6s %8s %8s %8s %8s\n", "sys", "app", "l1d", "l2", "llc", "dtlb")
	for _, sys := range Systems {
		for _, app := range apps.BenchmarkNames() {
			be := find(cells, app, sys).Res.Profile.BackEnd()
			fmt.Fprintf(&b, "%-6s %-6s %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
				sys, app, be.L1D*100, be.L2*100, be.LLC*100, be.DTLB*100)
		}
	}
	return b.String()
}

// --- E2 / E3: scalability (Fig 6b, 6c) ----------------------------------

// ScalePoints is the paper's core sweep: 1..8 cores on one socket, then 2
// and 4 full sockets.
var ScalePoints = []int{1, 2, 4, 8, 16, 32}

// ScalabilityResult holds normalized throughput per app over ScalePoints.
type ScalabilityResult struct {
	System     string
	Points     []int
	Normalized map[string][]float64 // app -> normalized throughput
}

// Scalability runs the full Fig 6b/6c sweep for one system.
func Scalability(system string) (*ScalabilityResult, error) {
	return ScalabilityFor(system, apps.BenchmarkNames(), ScalePoints)
}

// ScalabilityFor runs the scalability sweep for a subset of applications
// and core counts. The first point is the normalization base.
func ScalabilityFor(system string, appNames []string, points []int) (*ScalabilityResult, error) {
	out := &ScalabilityResult{
		System:     system,
		Points:     points,
		Normalized: map[string][]float64{},
	}
	var cells []Cell
	for _, app := range appNames {
		for _, cores := range points {
			scale := 1.0
			if cores <= 2 {
				scale = 0.5 // fewer events keep 1-2 core runs tractable
			}
			// Re-tune parallelism per machine slice, as the paper does:
			// executor counts grow with the enabled core count.
			par := cores / 8
			if par < 1 {
				par = 1
			}
			cells = append(cells, Cell{App: app, System: system, Cores: cores, EventScale: scale, Scale: par})
		}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	for ai, app := range appNames {
		var base float64
		for i := range points {
			tp := results[ai*len(points)+i].Res.Throughput().PerSecond()
			if i == 0 {
				base = tp
			}
			out.Normalized[app] = append(out.Normalized[app], tp/base)
		}
	}
	return out, nil
}

// Table renders the scalability sweep.
func (s *ScalabilityResult) Table() string {
	var b strings.Builder
	fig := "6b"
	if s.System == "flink" {
		fig = "6c"
	}
	fmt.Fprintf(&b, "Fig %s — %s normalized throughput vs cores (1 core = 100%%)\n", fig, s.System)
	fmt.Fprintf(&b, "%-6s", "app")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%9dc", p)
	}
	b.WriteByte('\n')
	names := make([]string, 0, len(s.Normalized))
	for app := range s.Normalized {
		names = append(names, app)
	}
	sort.Strings(names)
	for _, app := range names {
		fmt.Fprintf(&b, "%-6s", app)
		for _, v := range s.Normalized[app] {
			fmt.Fprintf(&b, "%9.0f%%", v*100)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// --- E7: instruction footprint CDF (Fig 9) ------------------------------

// FootprintResult holds a Figure 9 CDF for one app/system.
type FootprintResult struct {
	App, System string
	Points      []profiler.CDFPoint
	// OverL1I is the fraction of footprints exceeding the 32 KB L1I.
	OverL1I float64
}

// FootprintCDF runs the Fig 9 study: all seven applications plus the
// "null" application, single socket.
func FootprintCDF(system string) ([]FootprintResult, error) {
	names := append(append([]string{}, apps.BenchmarkNames()...), "null")
	cells := make([]Cell, len(names))
	for i, app := range names {
		cells[i] = Cell{App: app, System: system, Sockets: 1}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	var out []FootprintResult
	for i, app := range names {
		res := results[i].Res
		pts := res.Profile.FootprintCDF(profiler.DefaultCDFThresholds())
		out = append(out, FootprintResult{
			App: app, System: system, Points: pts,
			OverL1I: 1 - res.Profile.Footprint.CDFAt(32<<10),
		})
	}
	return out, nil
}

// Fig9Table renders selected CDF points.
func Fig9Table(rows []FootprintResult) string {
	marks := []int{1 << 10, 8 << 10, 32 << 10, 256 << 10, 1 << 20, 10 << 20}
	var b strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&b, "Fig 9 — instruction footprint CDF, %s (fraction of invocation gaps <= x)\n", rows[0].System)
	}
	fmt.Fprintf(&b, "%-6s", "app")
	for _, m := range marks {
		fmt.Fprintf(&b, "%9s", byteLabel(m))
	}
	fmt.Fprintf(&b, "%10s\n", ">L1I(32K)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s", r.App)
		for _, m := range marks {
			v := 0.0
			for _, p := range r.Points {
				if p.Bytes <= m {
					v = p.Fraction
				}
			}
			fmt.Fprintf(&b, "%8.2f ", v)
		}
		fmt.Fprintf(&b, "%9.0f%%\n", r.OverL1I*100)
	}
	return b.String()
}

func byteLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// --- E8: Table V — LLC misses on four sockets ----------------------------

// TableVRow holds LLC miss stall shares for one app.
type TableVRow struct {
	App           string
	Local, Remote float64 // share of total execution time
}

// TableV runs the four-socket LLC study for one system (the paper reports
// Storm; we support both).
func TableV(system string) ([]TableVRow, error) {
	names := apps.BenchmarkNames()
	cells := make([]Cell, len(names))
	for i, app := range names {
		cells[i] = Cell{App: app, System: system, Sockets: 4, Scale: 4}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	var out []TableVRow
	for i, app := range names {
		lo, re := results[i].Res.Profile.LLCMissShares()
		out = append(out, TableVRow{App: app, Local: lo, Remote: re})
	}
	return out, nil
}

// TableVTable renders Table V.
func TableVTable(system string, rows []TableVRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table V — LLC miss stalls, %s on four sockets (%% of execution time)\n", system)
	fmt.Fprintf(&b, "%-6s %12s %12s\n", "app", "llc-local", "llc-remote")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %11.1f%% %11.1f%%\n", r.App, r.Local*100, r.Remote*100)
	}
	return b.String()
}

// --- E9 / E10: Fig 10 — Map-Match executor sweep -------------------------

// Fig10Row is one parallelism point of the Map-Matcher sweep.
type Fig10Row struct {
	Executors     int
	MeanLatencyMs float64
	StddevMs      float64
	// BackEndShares of LLC-remote / LLC-local / other (Fig 10b).
	RemoteShare, LocalShare, OtherShare float64
}

// Fig10Executors is the paper's parallelism points for Map-Match.
var Fig10Executors = []int{32, 40, 48, 56}

// Fig10 sweeps the TM Map-Matcher executor count on four sockets (Storm).
func Fig10() ([]Fig10Row, error) {
	cells := make([]Cell, len(Fig10Executors))
	for i, n := range Fig10Executors {
		cells[i] = Cell{
			App: "tm", System: "storm", Sockets: 4,
			EventScale:          4,
			ParallelismOverride: map[string]int{"map-match": n},
		}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	var out []Fig10Row
	for i, n := range Fig10Executors {
		res := results[i].Res
		mean, sd := res.MeanExecLatencyMs("map-match")
		row := Fig10Row{Executors: n, MeanLatencyMs: mean, StddevMs: sd}
		if be := res.Profile.Costs.BackEnd(); be > 0 {
			// Convert LLC shares from share-of-total to share-of-back-end.
			loShare, reShare := res.Profile.LLCMissShares()
			t := float64(res.Profile.Total())
			row.RemoteShare = reShare * t / float64(be)
			row.LocalShare = loShare * t / float64(be)
			row.OtherShare = 1 - row.RemoteShare - row.LocalShare
		}
		out = append(out, row)
	}
	return out, nil
}

// Fig10Table renders both panels of Figure 10.
func Fig10Table(rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 10 — TM Map-Matcher executors on four sockets (storm)\n")
	fmt.Fprintf(&b, "%-10s %14s %12s %14s %14s\n",
		"executors", "mean ms/event", "stddev", "be llc-remote", "be llc-local")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %14.2f %12.2f %13.1f%% %13.1f%%\n",
			r.Executors, r.MeanLatencyMs, r.StddevMs, r.RemoteShare*100, r.LocalShare*100)
	}
	return b.String()
}

// --- E12 / E13: Fig 12, 13 — tuple batching ------------------------------

// BatchingRow holds one app/system's normalized results across batch sizes.
type BatchingRow struct {
	App, System string
	Sizes       []int
	// Throughput and Latency are normalized to the non-batched run.
	Throughput []float64
	Latency    []float64
}

// Batching runs the Fig 12/13 sweep on a single socket.
func Batching() ([]BatchingRow, error) {
	sizes := append([]int{1}, place.BatchSizes...)
	var cells []Cell
	for _, app := range apps.BenchmarkNames() {
		for _, sys := range Systems {
			for _, s := range sizes {
				cells = append(cells, Cell{App: app, System: sys, Sockets: 1, BatchSize: s})
			}
		}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	var out []BatchingRow
	i := 0
	for _, app := range apps.BenchmarkNames() {
		for _, sys := range Systems {
			row := BatchingRow{App: app, System: sys, Sizes: sizes}
			var baseTp, baseLat float64
			for _, s := range sizes {
				res := results[i].Res
				i++
				tp := res.Throughput().PerSecond()
				lat := res.Latency.Mean()
				if s == 1 {
					baseTp, baseLat = tp, lat
				}
				row.Throughput = append(row.Throughput, tp/baseTp)
				if baseLat > 0 {
					row.Latency = append(row.Latency, lat/baseLat)
				} else {
					row.Latency = append(row.Latency, 1)
				}
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// Fig12Table renders normalized throughput under batching.
func Fig12Table(rows []BatchingRow) string {
	return batchingTable("Fig 12 — normalized throughput with tuple batching", rows, func(r BatchingRow) []float64 { return r.Throughput })
}

// Fig13Table renders normalized latency under batching.
func Fig13Table(rows []BatchingRow) string {
	return batchingTable("Fig 13 — normalized latency with tuple batching", rows, func(r BatchingRow) []float64 { return r.Latency })
}

func batchingTable(title string, rows []BatchingRow, pick func(BatchingRow) []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if len(rows) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-6s %-6s", "sys", "app")
	for _, s := range rows[0].Sizes {
		fmt.Fprintf(&b, "%9s", fmt.Sprintf("S=%d", s))
	}
	b.WriteByte('\n')
	for _, sys := range Systems {
		for _, r := range rows {
			if r.System != sys {
				continue
			}
			fmt.Fprintf(&b, "%-6s %-6s", r.System, r.App)
			for _, v := range pick(r) {
				fmt.Fprintf(&b, "%8.0f%%", v*100)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// --- E14 / E15: Fig 14, 15 — placement and combined ----------------------

// PlacementRow holds one app/system's Fig 14/15 series, normalized to the
// unoptimized four-socket run.
type PlacementRow struct {
	App, System string
	// SingleSocket, FourSockets, Placed, Combined are normalized
	// throughputs (FourSockets = 100%).
	SingleSocket float64
	FourSockets  float64
	Placed       float64
	Combined     float64
	// BestK is the socket count of the winning placement plan (0 when
	// the batch-1 decision kept the unplaced run).
	BestK int
	// PlacedKept and CombinedKept mark the rows whose batch-1 and batched
	// decisions kept their incumbent, the unplaced run.
	PlacedKept, CombinedKept bool
}

// keptMark is the suffix a Fig 14/15 row carries when its decision kept
// the unplaced run: no verified plan measured strictly faster.
func keptMark(kept bool) string {
	if kept {
		return "  (kept unplaced)"
	}
	return ""
}

// Placement runs the Fig 14 and Fig 15 studies: single socket, four
// sockets unoptimized, four sockets with NUMA-aware placement, and four
// sockets with placement plus batching (S = place.DefaultBatchSize).
// Placement plans come from the model-guided search (placement.go); the
// second return value carries one model-vs-measured record per row, over
// both of its searches, system by system.
func Placement() ([]PlacementRow, []Validation, error) {
	// The unplaced baselines for every (app, system) are independent:
	// batch them through the pool, then derive each row's placement plans
	// (SearchPlacement fans its verification runs out internally, and its
	// probe memo-shares with the four-socket baseline run here).
	var cells []Cell
	for _, app := range apps.BenchmarkNames() {
		for _, sys := range Systems {
			cells = append(cells,
				Cell{App: app, System: sys, Sockets: 1},
				Cell{App: app, System: sys, Sockets: 4, Scale: 4})
		}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, nil, err
	}
	var out []PlacementRow
	val := make([][]Validation, len(Systems))
	i := 0
	for _, app := range apps.BenchmarkNames() {
		for si, sys := range Systems {
			one, four := results[i].Res, results[i+1].Res
			i += 2
			placed, err := SearchPlacement(app, sys, 1, 4)
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%s placement: %w", app, sys, err)
			}
			comb, err := SearchPlacement(app, sys, place.DefaultBatchSize, 4)
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%s combined: %w", app, sys, err)
			}
			base := four.Throughput().PerSecond()
			out = append(out, PlacementRow{
				App: app, System: sys,
				SingleSocket: one.Throughput().PerSecond() / base,
				FourSockets:  1,
				Placed:       placed.Throughput / base,
				Combined:     comb.Throughput / base,
				BestK:        placed.WinnerK,
				PlacedKept:   placed.Kept,
				CombinedKept: comb.Kept,
			})
			v := placed.Validation
			v.Screened += comb.Validation.Screened
			v.score(placed.Verified, comb.Verified)
			val[si] = append(val[si], v)
		}
	}
	return out, slices.Concat(val...), nil
}

// Fig14Table renders the placement-only comparison.
func Fig14Table(rows []PlacementRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14 — NUMA-aware executor placement (normalized to 4 sockets w/o optimizations)\n")
	fmt.Fprintf(&b, "%-6s %-6s %10s %10s %12s %6s\n", "sys", "app", "1 socket", "4 sockets", "4s+placed", "bestK")
	for _, sys := range Systems {
		for _, r := range rows {
			if r.System != sys {
				continue
			}
			bestK := "-"
			if r.BestK > 0 {
				bestK = fmt.Sprint(r.BestK)
			}
			fmt.Fprintf(&b, "%-6s %-6s %9.0f%% %9.0f%% %11.0f%% %6s%s\n",
				r.System, r.App, r.SingleSocket*100, r.FourSockets*100, r.Placed*100, bestK, keptMark(r.PlacedKept))
		}
	}
	return b.String()
}

// Fig15Table renders the combined-optimizations comparison.
func Fig15Table(rows []PlacementRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 15 — both optimizations (batching S=%d + placement), normalized to 4 sockets w/o optimizations\n", place.DefaultBatchSize)
	fmt.Fprintf(&b, "%-6s %-6s %10s %10s %12s\n", "sys", "app", "1 socket", "4 sockets", "4s+both")
	for _, sys := range Systems {
		for _, r := range rows {
			if r.System != sys {
				continue
			}
			fmt.Fprintf(&b, "%-6s %-6s %9.0f%% %9.0f%% %11.0f%%%s\n",
				r.System, r.App, r.SingleSocket*100, r.FourSockets*100, r.Combined*100, keptMark(r.CombinedKept))
		}
	}
	return b.String()
}

// --- E16: GC ablation (§V-D) ---------------------------------------------

// GCRow compares collector overheads for one app/system.
type GCRow struct {
	App, System       string
	G1Share, ParShare float64
	G1Minor, ParMinor int64
}

// GCStudy measures mutator-visible GC share under G1 and parallelGC.
func GCStudy(appNames []string) ([]GCRow, error) {
	g1cfg := jvm.G1()
	g1cfg.YoungBytes = 2 << 20
	pcfg := jvm.Parallel()
	pcfg.YoungBytes = 2 << 20
	var cells []Cell
	for _, app := range appNames {
		for _, sys := range Systems {
			cells = append(cells,
				Cell{App: app, System: sys, Sockets: 1, GC: g1cfg},
				Cell{App: app, System: sys, Sockets: 1, GC: pcfg})
		}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	var out []GCRow
	i := 0
	for _, app := range appNames {
		for _, sys := range Systems {
			g1, par := results[i].Res, results[i+1].Res
			i += 2
			out = append(out, GCRow{
				App: app, System: sys,
				G1Share: g1.GCShare, ParShare: par.GCShare,
				G1Minor: g1.MinorGCs, ParMinor: par.MinorGCs,
			})
		}
	}
	return out, nil
}

// GCTable renders the collector comparison.
func GCTable(rows []GCRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "GC ablation (§V-D) — mutator-visible GC share of execution time\n")
	fmt.Fprintf(&b, "%-6s %-6s %8s %10s %8s %8s\n", "sys", "app", "G1", "parallel", "gc(G1)", "gc(par)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-6s %7.1f%% %9.1f%% %8d %8d\n",
			r.System, r.App, r.G1Share*100, r.ParShare*100, r.G1Minor, r.ParMinor)
	}
	return b.String()
}

// --- E17: huge pages ablation (§V-D) -------------------------------------

// HugePagesRow compares TLB stall shares with 4 KB and 2 MB pages.
type HugePagesRow struct {
	App, System  string
	TLB4K, TLB2M float64 // ITLB+DTLB share of execution time
	Speedup      float64
}

// HugePages measures the §V-D finding that huge pages help only marginally.
func HugePages(appNames []string) ([]HugePagesRow, error) {
	var out []HugePagesRow
	tlbShare := func(r *engine.Result) float64 {
		t := float64(r.Profile.Total())
		if t == 0 {
			return 0
		}
		return (float64(r.Profile.Costs[hw.FeITLB]) + float64(r.Profile.Costs[hw.BeDTLB])) / t
	}
	var cells []Cell
	for _, app := range appNames {
		for _, sys := range Systems {
			cells = append(cells,
				Cell{App: app, System: sys, Sockets: 1},
				Cell{App: app, System: sys, Sockets: 1, HugePages: true})
		}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, app := range appNames {
		for _, sys := range Systems {
			small, big := results[i].Res, results[i+1].Res
			i += 2
			out = append(out, HugePagesRow{
				App: app, System: sys,
				TLB4K:   tlbShare(small),
				TLB2M:   tlbShare(big),
				Speedup: big.Throughput().PerSecond() / small.Throughput().PerSecond(),
			})
		}
	}
	return out, nil
}

// HugePagesTable renders the huge-pages comparison.
func HugePagesTable(rows []HugePagesRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Huge-pages ablation (§V-D) — TLB stall share and speedup with 2 MB pages\n")
	fmt.Fprintf(&b, "%-6s %-6s %10s %10s %9s\n", "sys", "app", "tlb@4K", "tlb@2M", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-6s %9.2f%% %9.2f%% %8.2fx\n",
			r.System, r.App, r.TLB4K*100, r.TLB2M*100, r.Speedup)
	}
	return b.String()
}

// --- Ablation: placement strategies --------------------------------------

// PlacementAblationRow compares placement strategies on four sockets.
type PlacementAblationRow struct {
	App, System string
	// Normalized to OS-spread (no placement). MinKCut is the best
	// simulated min-k-cut seed plan; ModelSearch the model-guided search
	// winner (never worse: the seeds are in its verification pool).
	RoundRobin  float64
	MinKCut     float64
	ModelSearch float64
}

// PlacementAblation compares the model-guided placement search against
// min-k-cut, round-robin, and unplaced baselines.
func PlacementAblation(appNames []string) ([]PlacementAblationRow, error) {
	// Plan construction is cheap and stays sequential; the baseline and
	// round-robin runs for every (app, system) batch through the pool.
	var cells []Cell
	for _, app := range appNames {
		for _, sys := range Systems {
			topo, err := apps.Build(app, apps.Config{Events: Cell{App: app}.Events(), Seed: 1, Scale: 4})
			if err != nil {
				return nil, err
			}
			sp, _ := SystemProfile(sys)
			g, err := place.BuildCommGraph(topo, sp)
			if err != nil {
				return nil, err
			}
			rr := place.RoundRobinPlan(g, 4)
			cells = append(cells,
				Cell{App: app, System: sys, Sockets: 4, Scale: 4},
				Cell{App: app, System: sys, Sockets: 4, Scale: 4, Placement: rr.Placement()})
		}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	var out []PlacementAblationRow
	i := 0
	for _, app := range appNames {
		for _, sys := range Systems {
			base, rrRes := results[i].Res, results[i+1].Res
			i += 2
			ps, err := SearchPlacement(app, sys, 1, 4)
			if err != nil {
				return nil, err
			}
			b := base.Throughput().PerSecond()
			out = append(out, PlacementAblationRow{
				App: app, System: sys,
				RoundRobin:  rrRes.Throughput().PerSecond() / b,
				MinKCut:     ps.SeedThroughput / b,
				ModelSearch: ps.Throughput / b,
			})
		}
	}
	return out, nil
}

// PlacementAblationTable renders the strategy comparison.
func PlacementAblationTable(rows []PlacementAblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — placement strategy vs OS-spread baseline (4 sockets)\n")
	fmt.Fprintf(&b, "%-6s %-6s %12s %12s %12s\n", "sys", "app", "round-robin", "min-k-cut", "model-search")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-6s %11.0f%% %11.0f%% %11.0f%%\n",
			r.System, r.App, r.RoundRobin*100, r.MinKCut*100, r.ModelSearch*100)
	}
	return b.String()
}

// SortRows orders cell results deterministically (app, then system).
func SortRows(cells []CellResult) {
	sort.Slice(cells, func(i, j int) bool { return cells[i].key() < cells[j].key() })
}

// --- Ablation: decoded-µop cache (D-ICache) ------------------------------

// UopCacheRow compares throughput with and without the decoded-µop cache.
// §V-B predicts near-parity: the hot paths far exceed the D-ICache's
// 1.5 kµop capacity and every L1I miss invalidates it, so the accelerator
// cannot engage on these workloads.
type UopCacheRow struct {
	App, System string
	// Slowdown is throughput-without / throughput-with (~1.0 per §V-B).
	Slowdown float64
	// DecodeShare4K is the I-decoding share of front-end stalls without
	// the µop cache.
	DecodeShareOff float64
}

// UopCacheAblation quantifies what the D-ICache buys the studied designs.
func UopCacheAblation(appNames []string) ([]UopCacheRow, error) {
	var cells []Cell
	for _, app := range appNames {
		for _, sys := range Systems {
			cells = append(cells,
				Cell{App: app, System: sys, Sockets: 1},
				Cell{App: app, System: sys, Sockets: 1, NoUopCache: true})
		}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	var out []UopCacheRow
	i := 0
	for _, app := range appNames {
		for _, sys := range Systems {
			with, without := results[i].Res, results[i+1].Res
			i += 2
			out = append(out, UopCacheRow{
				App: app, System: sys,
				Slowdown:       without.Throughput().PerSecond() / with.Throughput().PerSecond(),
				DecodeShareOff: without.Profile.FrontEnd().IDecoding,
			})
		}
	}
	return out, nil
}

// UopCacheTable renders the D-ICache ablation.
func UopCacheTable(rows []UopCacheRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — decoded-µop cache (D-ICache) disabled\n")
	fmt.Fprintf(&b, "%-6s %-6s %18s %16s\n", "sys", "app", "tp without/with", "decode share off")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-6s %17.2fx %15.1f%%\n", r.System, r.App, r.Slowdown, r.DecodeShareOff*100)
	}
	return b.String()
}

// --- Extension: latency vs offered load ----------------------------------

// LoadLatencyRow is one point of the open-loop latency curve.
type LoadLatencyRow struct {
	// Load is the offered fraction of the saturated throughput.
	Load float64
	// P50 and P99 are end-to-end latencies in ms.
	P50, P99 float64
}

// LoadLatency sweeps open-loop offered load for one app/system on a single
// socket — the classic latency knee the paper's throughput/latency
// trade-off discussion (Figs 12/13) motivates but does not plot.
func LoadLatency(app, system string, batch int) ([]LoadLatencyRow, error) {
	sat, err := Run(Cell{App: app, System: system, Sockets: 1, BatchSize: batch})
	if err != nil {
		return nil, err
	}
	satRate := sat.Throughput().PerSecond()
	loads := []float64{0.2, 0.5, 0.8}
	cells := make([]Cell, len(loads))
	for i, load := range loads {
		cells[i] = Cell{
			App: app, System: system, Sockets: 1, BatchSize: batch,
			SourceRate:         satRate * load, // per source executor; apps use one
			LatencySampleEvery: 1,
		}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	var out []LoadLatencyRow
	for i, r := range results {
		out = append(out, LoadLatencyRow{
			Load: loads[i],
			P50:  r.Res.Latency.Quantile(0.5),
			P99:  r.Res.Latency.Quantile(0.99),
		})
	}
	out = append(out, LoadLatencyRow{
		Load: 1, P50: sat.Latency.Quantile(0.5), P99: sat.Latency.Quantile(0.99),
	})
	return out, nil
}

// LoadLatencyTable renders an open-loop latency curve.
func LoadLatencyTable(app, system string, rows []LoadLatencyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — open-loop latency vs offered load (%s/%s, single socket)\n", app, system)
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "load", "p50 ms", "p99 ms")
	for _, r := range rows {
		label := fmt.Sprintf("%.0f%%", r.Load*100)
		if r.Load >= 1 {
			label = "saturated"
		}
		fmt.Fprintf(&b, "%-10s %12.2f %12.2f\n", label, r.P50, r.P99)
	}
	return b.String()
}

// --- Ablation: operator chaining ------------------------------------------

// ChainingRow compares throughput with Flink-style operator chaining.
type ChainingRow struct {
	App, System string
	// Gain is chained / unchained throughput.
	Gain float64
}

// ChainingAblation measures what task fusion buys on apps with chainable
// (shuffle, equal-parallelism) hops. Only SD qualifies in the benchmark.
func ChainingAblation(appNames []string) ([]ChainingRow, error) {
	var cells []Cell
	for _, app := range appNames {
		for _, sys := range Systems {
			cells = append(cells,
				Cell{App: app, System: sys, Sockets: 1},
				Cell{App: app, System: sys, Sockets: 1, Chaining: true})
		}
	}
	results, err := runCells(cells)
	if err != nil {
		return nil, err
	}
	var out []ChainingRow
	i := 0
	for _, app := range appNames {
		for _, sys := range Systems {
			plain, chained := results[i].Res, results[i+1].Res
			i += 2
			out = append(out, ChainingRow{
				App: app, System: sys,
				Gain: chained.Throughput().PerSecond() / plain.Throughput().PerSecond(),
			})
		}
	}
	return out, nil
}

// ChainingTable renders the chaining ablation.
func ChainingTable(rows []ChainingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — operator chaining (Flink task fusion)\n")
	fmt.Fprintf(&b, "%-6s %-6s %16s\n", "sys", "app", "chained/plain")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-6s %15.2fx\n", r.System, r.App, r.Gain)
	}
	return b.String()
}

// --- Extension: sustainable throughput ------------------------------------

// SustainableResult reports the highest offered load an app sustains with
// bounded latency — the "sustainable throughput" methodology later
// benchmarks (e.g. Karimov et al.) advocate over closed-loop peak numbers.
type SustainableResult struct {
	App, System string
	// PeakKps is the closed-loop (saturated) throughput.
	PeakKps float64
	// SustainableKps is the highest open-loop rate whose p99 latency stays
	// under BoundMs.
	SustainableKps float64
	BoundMs        float64
}

// Sustainable binary-searches the offered load for the highest rate whose
// p99 end-to-end latency stays below boundMs.
func Sustainable(app, system string, boundMs float64) (*SustainableResult, error) {
	sat, err := Run(Cell{App: app, System: system, Sockets: 1})
	if err != nil {
		return nil, err
	}
	peak := sat.Throughput().PerSecond()
	lo, hi := 0.0, 1.0
	for i := 0; i < 6; i++ {
		mid := (lo + hi) / 2
		res, err := Run(Cell{
			App: app, System: system, Sockets: 1,
			SourceRate: peak * mid, LatencySampleEvery: 2,
		})
		if err != nil {
			return nil, err
		}
		if res.Latency.Quantile(0.99) <= boundMs {
			lo = mid
		} else {
			hi = mid
		}
	}
	return &SustainableResult{
		App: app, System: system,
		PeakKps:        peak / 1e3,
		SustainableKps: peak * lo / 1e3,
		BoundMs:        boundMs,
	}, nil
}

// SustainableTable renders sustainable-throughput results.
func SustainableTable(rows []*SustainableResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — sustainable throughput (p99 <= bound), single socket\n")
	fmt.Fprintf(&b, "%-6s %-6s %12s %14s %10s\n", "sys", "app", "peak k/s", "sustainable", "bound ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-6s %12.1f %13.1fk %10.1f\n",
			r.System, r.App, r.PeakKps, r.SustainableKps, r.BoundMs)
	}
	return b.String()
}
