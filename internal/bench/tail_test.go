package bench

import (
	"strconv"
	"strings"
	"testing"

	"streamscale/internal/hw"
	"streamscale/internal/sim"
	"streamscale/internal/trace"
)

// TestTailSmoke gates the tail stack end to end on deliberately
// backpressured open-loop cells. It asserts:
//
//  1. the coordinated-omission gate: at an offered rate 3x the saturated
//     throughput, corrected p99 > uncorrected p99 — forgiving backpressure
//     stalls shrinks reported latency. At 2x the two p99s coincide, so
//     there a swapped correction would pass;
//  2. on the 2x cell, attribution reconciles with the cycle ledger: the
//     traced run is lossless (folded == ChargedCycles, the conservation
//     invariant), every per-root execute account is a subset of the
//     ledger, and the worst tuple's attribution is nonzero with a named
//     dominant stall;
//  3. the traced run reproduces the memoized run's latency distribution
//     bit-for-bit (tracing is a pure observer).
func TestTailSmoke(t *testing.T) {
	base := Cell{App: "wc", System: "storm", Sockets: 1, EventScale: 0.25}
	sat, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	overload := func(load float64) Cell {
		c := base
		c.SourceRate = sat.Throughput().PerSecond() * load
		c.LatencySampleEvery = 1
		return c
	}

	co := overload(3)
	coCorrected, err := Run(co)
	if err != nil {
		t.Fatal(err)
	}
	co.COUncorrected = true
	coUncorrected, err := Run(co)
	if err != nil {
		t.Fatal(err)
	}
	cp99, up99 := coCorrected.Latency.Quantile(0.99), coUncorrected.Latency.Quantile(0.99)
	t.Logf("offered 3.0x saturated (%.1f k/s), p99 corrected %.3f ms, uncorrected %.3f ms", co.SourceRate/1e3, cp99, up99)
	if cp99 <= up99 {
		t.Errorf("coordinated-omission gate: corrected p99 %.3f ms <= uncorrected %.3f ms", cp99, up99)
	}

	cell := overload(2) // guaranteed backpressure
	corrected, err := Run(cell)
	if err != nil {
		t.Fatal(err)
	}

	tr := trace.New(trace.Config{SampleEvery: 1, QueueCadence: -1})
	traced, err := RunTraced(cell, tr)
	if err != nil {
		t.Fatal(err)
	}
	if folded := tr.FoldedTotal(); folded != traced.ChargedCycles {
		t.Errorf("tail trace not lossless: folded %d cycles vs charged %d", int64(folded), int64(traced.ChargedCycles))
	}
	tails := tr.Tails(0)
	if len(tails) == 0 {
		t.Fatal("tail trace produced no sink-reaching trees")
	}
	var attributed sim.Cycles
	for i := range tails {
		rec := &tails[i]
		for bk := hw.Bucket(0); bk < hw.NumBuckets; bk++ {
			if rec.Buckets[bk] < 0 {
				t.Errorf("root %d: negative %s attribution", rec.Root, bk)
			}
		}
		attributed += rec.Buckets.Total()
	}
	t.Logf("per-root execute attribution %d cycles, charged %d", int64(attributed), int64(traced.ChargedCycles))
	if attributed <= 0 || attributed > traced.ChargedCycles {
		t.Errorf("per-root execute attribution %d cycles outside (0, charged %d]",
			int64(attributed), int64(traced.ChargedCycles))
	}
	worst := tails[0]
	dom, domCycles := worst.Dominant()
	clock := tr.ClockHz()
	t.Logf("worst root %d %.2f ms dominated by %s (%.2f ms)",
		worst.Root, sim.Cycles(worst.E2ECycles).Millis(clock), dom, sim.Cycles(domCycles).Millis(clock))
	if dom == "" || domCycles <= 0 || worst.AttributedCycles() <= 0 {
		t.Errorf("worst tuple %d has no attributable stall", worst.Root)
	}
	for _, q := range []float64{0.5, 0.99, 0.9999, 1} {
		if a, b := traced.Latency.Quantile(q), corrected.Latency.Quantile(q); a != b {
			t.Errorf("traced run perturbed latency: Quantile(%v) %v vs %v", q, a, b)
		}
	}
}

// TestTailDrillDownDeterministic pins the worst-tuple attribution: tracing
// the same cell twice names the same root, the same dominant stall, and the
// same cycle counts.
func TestTailDrillDownDeterministic(t *testing.T) {
	cell := Cell{App: "wc", System: "storm", Sockets: 1, EventScale: 0.25}
	sat, err := Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	cell.SourceRate = sat.Throughput().PerSecond() * TailLoad
	cell.LatencySampleEvery = 1

	var rows [2]TailRow
	for i := range rows {
		if err := fillWorst(&rows[i], cell); err != nil {
			t.Fatal(err)
		}
	}
	if rows[0] != rows[1] {
		t.Fatalf("drill-down not deterministic:\n%+v\n%+v", rows[0], rows[1])
	}
	if rows[0].Dominant == "" || rows[0].DominantMs <= 0 {
		t.Fatalf("no dominant stall named: %+v", rows[0])
	}
	if rows[0].WorstMs <= 0 {
		t.Fatalf("worst tuple has non-positive e2e: %+v", rows[0])
	}
}

// TestTailSummaryMatchesTracer pins the summary.json tail digest against the
// tracer's in-memory records: same roots, same ordering, same attribution.
// cmd/dsptrace -tail relies on this equivalence to cross-check artifacts.
func TestTailSummaryMatchesTracer(t *testing.T) {
	cell := Cell{App: "wc", System: "storm", Sockets: 1, EventScale: 0.25}
	tr := trace.New(trace.Config{SampleEvery: 1, QueueCadence: -1})
	if _, err := RunTraced(cell, tr); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tr.EncodeSummary(&sb); err != nil {
		t.Fatal(err)
	}
	recs := tr.Tails(5)
	if len(recs) == 0 {
		t.Fatal("no tail records")
	}
	for _, rec := range recs {
		needle := `{"root":` + strconv.FormatInt(rec.Root, 10) + `,"e2e_cycles":` + strconv.FormatInt(rec.E2ECycles, 10)
		if !strings.Contains(sb.String(), needle) {
			t.Fatalf("summary.json missing tail entry %s\n%s", needle, sb.String())
		}
	}
}

// TestTailTableFormat pins the table shape: header lines plus one row per
// config with the dominant-stall clause.
func TestTailTableFormat(t *testing.T) {
	rows := []TailRow{{
		App: "wc", System: "storm", Ack: true,
		RateKps: 123.4, Samples: 1000,
		P50: 1, P99: 2, P999: 3, P9999: 4, Max: 5,
		WorstRoot: 7, WorstMs: 5, Dominant: "queue-wait", DominantMs: 3.5,
	}}
	got := TailTable(rows)
	for _, want := range []string{"p99.99", "wc", "storm", "on", "e2e 5.00 ms, queue-wait 3.50 ms over tree"} {
		if !strings.Contains(got, want) {
			t.Fatalf("table missing %q:\n%s", want, got)
		}
	}
}
