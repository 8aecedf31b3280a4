package bench

import (
	"strings"
	"testing"
)

// The single-socket study backs five paper artifacts; run it once.
var studyCache []CellResult

func study(t *testing.T) []CellResult {
	t.Helper()
	if studyCache == nil {
		cells, err := SingleSocketStudy()
		if err != nil {
			t.Fatal(err)
		}
		studyCache = cells
	}
	return studyCache
}

// Finding 1: ~70% of execution time in processor stalls for all apps
// except TM, under both systems.
func TestFinding1StallsDominate(t *testing.T) {
	for _, cr := range study(t) {
		bd := cr.Res.Profile.Breakdown()
		stalls := 1 - bd.Computation
		if cr.Cell.App == "tm" {
			if stalls > 0.60 {
				t.Errorf("%s: TM stalls = %.0f%%, should be computation-dominated", cr.key(), stalls*100)
			}
			continue
		}
		if stalls < 0.55 {
			t.Errorf("%s: stalls = %.0f%%, paper reports ~70%%", cr.key(), stalls*100)
		}
	}
}

// Finding 2: front-end stalls are a major component on a single socket,
// and L1I misses plus instruction decoding dominate them (Fig 8).
func TestFinding2FrontEndShape(t *testing.T) {
	for _, cr := range study(t) {
		if cr.Cell.App == "tm" {
			continue
		}
		bd := cr.Res.Profile.Breakdown()
		if bd.FrontEnd < 0.25 {
			t.Errorf("%s: front-end = %.0f%%, paper reports 25-56%%", cr.key(), bd.FrontEnd*100)
		}
		fe := cr.Res.Profile.FrontEnd()
		if fe.L1IMiss+fe.IDecoding < 0.85 {
			t.Errorf("%s: L1I+decode = %.0f%% of front-end, should dominate", cr.key(), (fe.L1IMiss+fe.IDecoding)*100)
		}
		if fe.ITLB > 0.15 {
			t.Errorf("%s: ITLB share = %.0f%%, should be small", cr.key(), fe.ITLB*100)
		}
	}
}

// Table IV shape: TM has the highest CPU and memory demand.
func TestTableIVShapes(t *testing.T) {
	cells := study(t)
	for _, sys := range Systems {
		tm := find(cells, "tm", sys)
		if tm.Res.CPUUtil < 0.9 {
			t.Errorf("%s TM CPU = %.2f, paper reports ~0.98", sys, tm.Res.CPUUtil)
		}
		if tm.Res.MemUtil < 0.3 {
			t.Errorf("%s TM memory = %.2f, paper reports 0.52-0.60", sys, tm.Res.MemUtil)
		}
		for _, app := range []string{"fd", "sd"} {
			cr := find(cells, app, sys)
			if cr.Res.CPUUtil >= tm.Res.CPUUtil {
				t.Errorf("%s %s CPU %.2f >= TM %.2f; paper has FD/SD lowest", sys, app, cr.Res.CPUUtil, tm.Res.CPUUtil)
			}
		}
	}
}

// Fig 6a: FD on Flink is the throughput outlier, TM the slowest.
func TestFig6aOrdering(t *testing.T) {
	cells := study(t)
	fd := find(cells, "fd", "flink").Res.Throughput().KPerSecond()
	if fd < 500 {
		t.Errorf("FD/flink = %.0f k/s, paper reports ~1026", fd)
	}
	for _, sys := range Systems {
		tm := find(cells, "tm", sys).Res.Throughput().KPerSecond()
		if tm > 1.0 {
			t.Errorf("TM/%s = %.2f k/s, paper reports 0.20-0.26", sys, tm)
		}
		for _, app := range []string{"wc", "fd", "lg", "sd", "vs", "lr"} {
			if other := find(cells, app, sys).Res.Throughput().KPerSecond(); other <= tm {
				t.Errorf("%s/%s (%.2f) not above TM (%.2f)", app, sys, other, tm)
			}
		}
	}
}

func TestSingleSocketTablesRender(t *testing.T) {
	cells := study(t)
	for name, s := range map[string]string{
		"fig6a":   Fig6aTable(cells),
		"tableiv": TableIV(cells),
		"fig7":    Fig7Table(cells),
		"fig8":    Fig8Table(cells),
		"fig11":   Fig11Table(cells),
	} {
		if !strings.Contains(s, "tm") || len(strings.Split(strings.TrimSpace(s), "\n")) < 6 {
			t.Errorf("%s table malformed:\n%s", name, s)
		}
	}
}

// Fig 6b/c shape: light apps scale on one socket but not across sockets.
func TestScalabilityShape(t *testing.T) {
	for _, sys := range Systems {
		res, err := ScalabilityFor(sys, []string{"fd", "tm"}, []int{2, 8, 32})
		if err != nil {
			t.Fatal(err)
		}
		fd := res.Normalized["fd"]
		// 2 -> 8 cores: decent scaling on one socket.
		if fd[1] < 1.5 {
			t.Errorf("%s: FD 8-core/2-core = %.2f, want >= 1.5", sys, fd[1])
		}
		// 8 -> 32 cores (four sockets): little further gain (Finding: FD
		// degrades or stays flat across sockets).
		if fd[2] > fd[1]*1.6 {
			t.Errorf("%s: FD gained %.2fx from sockets; paper shows flat/degrading", sys, fd[2]/fd[1])
		}
		// TM keeps scaling across sockets (high resource demand).
		tm := res.Normalized["tm"]
		if tm[2] < tm[1]*1.5 {
			t.Errorf("%s: TM 32c/8c = %.2f, paper shows TM scaling across sockets", sys, tm[2]/tm[1])
		}
	}
}

// Table V: remote LLC stalls dominate local on four sockets.
func TestTableVRemoteDominates(t *testing.T) {
	rows, err := TableV("storm")
	if err != nil {
		t.Fatal(err)
	}
	remoteWins := 0
	for _, r := range rows {
		if r.Remote > r.Local {
			remoteWins++
		}
		if r.Remote == 0 {
			t.Errorf("%s: no remote LLC stalls on four sockets", r.App)
		}
	}
	if remoteWins < 5 {
		t.Errorf("remote > local for only %d of 7 apps", remoteWins)
	}
	out := TableVTable("storm", rows)
	if !strings.Contains(out, "llc-remote") {
		t.Error("Table V render malformed")
	}
}

// Fig 10: growing the Map-Matcher executor count raises mean latency,
// latency divergence across executors, and the remote-LLC back-end share.
func TestFig10ExecutorSweep(t *testing.T) {
	rows, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.MeanLatencyMs <= first.MeanLatencyMs {
		t.Errorf("mean latency %.1f -> %.1f ms; paper shows it rising", first.MeanLatencyMs, last.MeanLatencyMs)
	}
	if last.StddevMs <= first.StddevMs {
		t.Errorf("stddev %.2f -> %.2f; paper shows divergence growing", first.StddevMs, last.StddevMs)
	}
	if last.RemoteShare <= 0 {
		t.Error("no remote back-end share at 56 executors")
	}
	if s := Fig10Table(rows); !strings.Contains(s, "56") {
		t.Error("Fig 10 render malformed")
	}
}

// Fig 12/13: batching raises throughput substantially with sub-linear
// latency growth.
func TestBatchingShape(t *testing.T) {
	for _, sys := range Systems {
		for _, app := range []string{"wc", "fd"} {
			var base, batched *CellResult
			res1, err := Run(Cell{App: app, System: sys, Sockets: 1, BatchSize: 1})
			if err != nil {
				t.Fatal(err)
			}
			res8, err := Run(Cell{App: app, System: sys, Sockets: 1, BatchSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			_ = base
			_ = batched
			gain := res8.Throughput().PerSecond() / res1.Throughput().PerSecond()
			if gain < 1.3 {
				t.Errorf("%s/%s: batching S=8 gain = %.2fx, paper shows up to ~4.5x", app, sys, gain)
			}
			latRatio := res8.Latency.Mean() / res1.Latency.Mean()
			if latRatio > 8 {
				t.Errorf("%s/%s: latency grew %.1fx at S=8; paper shows sub-linear growth", app, sys, latRatio)
			}
		}
	}
}

// Fig 14: NUMA-aware placement does not hurt, and generally helps, on four
// sockets.
func TestPlacementHelps(t *testing.T) {
	base, err := Run(Cell{App: "wc", System: "storm", Sockets: 4, Scale: 4})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := SearchPlacement("wc", "storm", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	k, tp := ps.WinnerK, ps.Throughput
	// The unplaced run is the decision's incumbent, so placement can never
	// measure below it.
	ratio := tp / base.Throughput().PerSecond()
	if ratio < 1.0 {
		t.Errorf("placement ratio = %.2f, must not hurt", ratio)
	}
	if k < 0 || k > 4 || (k == 0) != ps.Kept {
		t.Errorf("best k = %d out of range (kept=%v)", k, ps.Kept)
	}
}

// GC ablation: parallelGC costs several times more than G1, and G1 stays
// in low single digits.
func TestGCStudyShape(t *testing.T) {
	rows, err := GCStudy([]string{"wc"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.G1Minor == 0 {
			t.Errorf("%s/%s: no G1 collections occurred", r.App, r.System)
		}
		if r.ParShare <= r.G1Share {
			t.Errorf("%s/%s: parallelGC share %.1f%% <= G1 %.1f%%", r.App, r.System, r.ParShare*100, r.G1Share*100)
		}
		if r.G1Share > 0.08 {
			t.Errorf("%s/%s: G1 share %.1f%%, paper reports 1-3%%", r.App, r.System, r.G1Share*100)
		}
	}
	if s := GCTable(rows); !strings.Contains(s, "parallel") {
		t.Error("GC table malformed")
	}
}

// Huge pages: TLB stalls shrink but throughput changes only marginally.
func TestHugePagesMarginal(t *testing.T) {
	rows, err := HugePages([]string{"wc"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TLB2M > r.TLB4K {
			t.Errorf("%s/%s: TLB share grew with huge pages", r.App, r.System)
		}
		if r.Speedup < 0.9 || r.Speedup > 1.25 {
			t.Errorf("%s/%s: huge-pages speedup %.2fx, paper reports marginal", r.App, r.System, r.Speedup)
		}
	}
}

// Fig 9: Storm's footprints are platform-dominated (the null app looks
// like real apps), and a large fraction of invocation gaps exceed the L1I.
func TestFig9FootprintShape(t *testing.T) {
	storm, err := FootprintCDF("storm")
	if err != nil {
		t.Fatal(err)
	}
	var nullOver, minAppOver, maxAppOver float64
	minAppOver = 1
	for _, r := range storm {
		if r.App == "null" {
			nullOver = r.OverL1I
			continue
		}
		if r.App == "tm" {
			continue // TM's giant per-tuple work makes footprints atypical
		}
		if r.OverL1I < minAppOver {
			minAppOver = r.OverL1I
		}
		if r.OverL1I > maxAppOver {
			maxAppOver = r.OverL1I
		}
	}
	if maxAppOver < 0.2 {
		t.Errorf("storm: only %.0f%% of footprints exceed L1I; paper reports 30-50%%", maxAppOver*100)
	}
	if nullOver < minAppOver*0.5 {
		t.Errorf("storm null app footprint (%.2f) much smaller than apps (%.2f); paper finds platform dominates", nullOver, minAppOver)
	}
	if s := Fig9Table(storm); !strings.Contains(s, "null") {
		t.Error("Fig 9 render malformed")
	}
}

func TestSweepUnknownSystem(t *testing.T) {
	if _, err := Run(Cell{App: "wc", System: "samza"}); err == nil {
		t.Fatal("unknown system accepted")
	}
	if _, err := Run(Cell{App: "nosuch", System: "storm"}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := Run(Cell{App: "tm", System: "storm", ParallelismOverride: map[string]int{"ghost": 3}}); err == nil {
		t.Fatal("override of unknown operator accepted")
	}
}

// Extension: the open-loop latency curve must rise toward saturation.
func TestLoadLatencyCurve(t *testing.T) {
	rows, err := LoadLatency("wc", "flink", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("points = %d, want 4", len(rows))
	}
	if rows[0].P50 >= rows[len(rows)-1].P50 {
		t.Errorf("p50 did not rise with load: %.2f at 20%% vs %.2f saturated",
			rows[0].P50, rows[len(rows)-1].P50)
	}
	for _, r := range rows {
		if r.P99 < r.P50 {
			t.Errorf("p99 %.2f below p50 %.2f at load %.1f", r.P99, r.P50, r.Load)
		}
	}
	if s := LoadLatencyTable("wc", "flink", rows); !strings.Contains(s, "saturated") {
		t.Error("table malformed")
	}
	// The saturated cell and the three loads are memoized cells.
	assertMemoized(t, 4, func() error { _, err := LoadLatency("wc", "flink", 1); return err })
}

// assertMemoized calls f, which repeats a call the test already made, and
// checks that it simulated nothing and served each of its cells from the
// memo once.
func assertMemoized(t *testing.T, cells int64, f func() error) {
	t.Helper()
	before := MemoStats()
	if err := f(); err != nil {
		t.Fatal(err)
	}
	after := MemoStats()
	if runs, hits := after.Runs-before.Runs, after.MemHits-before.MemHits; runs != 0 || hits != cells {
		t.Errorf("repeat call simulated %d cell(s) and hit the memo %d time(s), want 0 and %d", runs, hits, cells)
	}
}

// Chaining ablation: SD's moving-average -> spike-detection hop is
// chainable and fusing it must improve throughput; unchainable apps must
// be unchanged.
func TestChainingAblation(t *testing.T) {
	rows, err := ChainingAblation([]string{"sd", "wc"})
	if err != nil {
		t.Fatal(err)
	}
	sawWin := false
	for _, r := range rows {
		// Chaining must never materially hurt; it only raises throughput
		// when the chained stages are the bottleneck (a source-bound run
		// stays put).
		if r.Gain < 0.93 {
			t.Errorf("%s/%s: chaining hurt throughput (%.2fx)", r.App, r.System, r.Gain)
		}
		if r.App == "sd" && r.Gain > 1.02 {
			sawWin = true
		}
		if r.App == "wc" && r.Gain > 1.05 {
			t.Errorf("wc/%s: gain %.2fx for an app with no chainable hop", r.System, r.Gain)
		}
	}
	if !sawWin {
		t.Error("chaining never helped SD on either system")
	}
	if s := ChainingTable(rows); !strings.Contains(s, "chained/plain") {
		t.Error("chaining table malformed")
	}
}

// Sustainable throughput: the bounded-latency rate sits below the
// closed-loop peak but is a substantial fraction of it.
func TestSustainableThroughput(t *testing.T) {
	r, err := Sustainable("wc", "flink", 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if r.SustainableKps <= 0 {
		t.Fatal("no sustainable rate found")
	}
	if r.SustainableKps > r.PeakKps {
		t.Fatalf("sustainable %.1f above peak %.1f", r.SustainableKps, r.PeakKps)
	}
	if r.SustainableKps < r.PeakKps*0.1 {
		t.Fatalf("sustainable %.1f implausibly far below peak %.1f", r.SustainableKps, r.PeakKps)
	}
	if s := SustainableTable([]*SustainableResult{r}); !strings.Contains(s, "sustainable") {
		t.Error("table malformed")
	}
	// The saturated cell and the six bisection steps are memoized cells.
	assertMemoized(t, 7, func() error { _, err := Sustainable("wc", "flink", 5.0); return err })
}
