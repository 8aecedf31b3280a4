package bench

import (
	"strings"
	"testing"

	"streamscale/internal/engine"
)

// assertIdentical fails unless two results of the same cell are
// bit-identical in everything deterministic: profiler totals and per-bucket
// costs, throughput inputs, sink counts, GC activity, latency quantiles, and
// the kernel's event and the machine's operation counts.
func assertIdentical(t *testing.T, label string, a, b *engine.Result) {
	t.Helper()
	if a.Events != b.Events || a.Ops != b.Ops {
		t.Errorf("%s: operation counts differ: %d events, %+v\nvs\n%d events, %+v", label, a.Events, a.Ops, b.Events, b.Ops)
	}
	if a.Profile.Costs != b.Profile.Costs {
		t.Errorf("%s: profiler cost vectors differ:\n%v\nvs\n%v", label, a.Profile.Costs, b.Profile.Costs)
	}
	if a.Profile.Total() != b.Profile.Total() {
		t.Errorf("%s: profiler totals differ: %d vs %d", label, a.Profile.Total(), b.Profile.Total())
	}
	if a.SourceEvents != b.SourceEvents || a.SinkEvents != b.SinkEvents {
		t.Errorf("%s: event counts differ: %d/%d vs %d/%d", label,
			a.SourceEvents, a.SinkEvents, b.SourceEvents, b.SinkEvents)
	}
	if a.ElapsedSeconds != b.ElapsedSeconds {
		t.Errorf("%s: simulated elapsed differs: %v vs %v", label, a.ElapsedSeconds, b.ElapsedSeconds)
	}
	if a.Throughput().PerSecond() != b.Throughput().PerSecond() {
		t.Errorf("%s: throughput differs: %v vs %v", label,
			a.Throughput().PerSecond(), b.Throughput().PerSecond())
	}
	if a.MinorGCs != b.MinorGCs || a.GCShare != b.GCShare {
		t.Errorf("%s: GC activity differs", label)
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.Latency.Quantile(q) != b.Latency.Quantile(q) {
			t.Errorf("%s: latency p%v differs: %v vs %v", label, q*100,
				a.Latency.Quantile(q), b.Latency.Quantile(q))
		}
	}
}

// The safety net for the parallel harness: the same cell run twice
// sequentially, and once through RunCells with four workers, must produce
// bit-identical results. Run under -race this also proves cells share no
// mutable state.
func TestCellDeterminism(t *testing.T) {
	cells := []Cell{
		{App: "wc", System: "storm", Sockets: 1},
		{App: "wc", System: "flink", Sockets: 1},
		{App: "sd", System: "storm", Sockets: 1, BatchSize: 4},
		{App: "lg", System: "flink", Sockets: 1, Chaining: true},
	}

	sequential := make([]*engine.Result, len(cells))
	for i, c := range cells {
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		sequential[i] = res
	}

	// Re-run sequentially, bypassing the memo layer: the simulator itself
	// must be deterministic, not just the cache coherent.
	for i, c := range cells {
		res, err := runDirect(c)
		if err != nil {
			t.Fatal(err)
		}
		if res == sequential[i] {
			t.Fatalf("runDirect returned a memoized pointer for %s/%s", c.App, c.System)
		}
		assertIdentical(t, "rerun "+c.App+"/"+c.System, sequential[i], res)
	}

	// And through the pool at jobs=4. Drop the memoized entries first so
	// the workers really simulate concurrently — under -race this is what
	// proves cells share no mutable state.
	ResetMemo()
	parallel, err := RunCells(cells, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(cells) {
		t.Fatalf("RunCells returned %d results for %d cells", len(parallel), len(cells))
	}
	for i, cr := range parallel {
		if cr.Cell.App != cells[i].App || cr.Cell.System != cells[i].System {
			t.Fatalf("result %d out of order: got %s/%s", i, cr.Cell.App, cr.Cell.System)
		}
		assertIdentical(t, "parallel "+cr.Cell.App+"/"+cr.Cell.System, sequential[i], cr.Res)
	}
}

// RunCells must preserve input order and surface the first error in cell
// order, not completion order.
func TestRunCellsErrorOrder(t *testing.T) {
	cells := []Cell{
		{App: "wc", System: "storm", Sockets: 1},
		{App: "wc", System: "samza", Sockets: 1}, // unknown system
		{App: "nosuch", System: "storm"},         // unknown app
	}
	_, err := RunCells(cells, 4)
	if err == nil {
		t.Fatal("RunCells accepted a failing cell")
	}
	if got := err.Error(); !strings.Contains(got, "samza") {
		t.Errorf("error %q should name the first failing cell (samza)", got)
	}
}
