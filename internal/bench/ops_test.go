package bench

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"streamscale/internal/engine"
	"streamscale/internal/hw"
)

// simCellsOps is one pass of perfbench's sim-cells mix, summed over its 24
// cells: the walks' calls and every cache level's hits and misses, as
// EXPERIMENTS.md ("Where a sim-cells cell's host time goes") lists them.
// No digest covers these counts, so they are the check that a probe a walk
// skips (a TLB page just translated, an MRU word's hit) still counts as
// the full probe would.
var simCellsOps = hw.Ops{
	FetchCalls:  568_026,
	FetchBlocks: 9_164_261,
	DataCalls:   1_289_513,
	DataLines:   1_588_658,
	L1I:         hw.Probes{Hits: 2_866_554, Misses: 6_297_707},
	L1D:         hw.Probes{Hits: 434_066, Misses: 1_154_592},
	L2:          hw.Probes{Hits: 6_376_743, Misses: 1_075_556},
	LLC:         hw.Probes{Hits: 282_095, Misses: 793_461},
	ITLB:        hw.Probes{Hits: 1_518_155, Misses: 6_799},
	DTLB:        hw.Probes{Hits: 928_764, Misses: 365_257},
	STLB:        hw.Probes{Hits: 214_078, Misses: 157_978},
}

// TestSimCellsProbeCounts runs perfbench's sim-cells mix once (every app
// but tm on storm and flink, one socket unbatched and four sockets at scale
// 4 with S=8; seed 1, EventScale 0.1) and requires its summed operation
// counts to equal simCellsOps.
func TestSimCellsProbeCounts(t *testing.T) {
	var cells []Cell
	for _, app := range []string{"wc", "sd", "lr", "fd", "lg", "vs"} {
		for _, sys := range []string{"storm", "flink"} {
			for _, m := range []struct{ sockets, scale, batch int }{{1, 1, 1}, {4, 4, 8}} {
				cells = append(cells, Cell{App: app, System: sys, Sockets: m.sockets, Scale: m.scale, BatchSize: m.batch, EventScale: 0.1, Seed: 1})
			}
		}
	}
	results, err := runCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	var got hw.Ops
	for _, r := range results {
		o := &r.Res.Ops
		got.FetchCalls += o.FetchCalls
		got.FetchBlocks += o.FetchBlocks
		got.DataCalls += o.DataCalls
		got.DataLines += o.DataLines
		got.StreamCalls += o.StreamCalls
		for _, p := range []struct{ sum, add *hw.Probes }{
			{&got.L1I, &o.L1I}, {&got.L1D, &o.L1D}, {&got.L2, &o.L2}, {&got.LLC, &o.LLC},
			{&got.ITLB, &o.ITLB}, {&got.DTLB, &o.DTLB}, {&got.STLB, &o.STLB},
		} {
			p.sum.Hits += p.add.Hits
			p.sum.Misses += p.add.Misses
		}
	}
	if got != simCellsOps {
		t.Errorf("one sim-cells pass counted\n%+v\nwant\n%+v", got, simCellsOps)
	}
}

// variantCellDigests pins cells on the two machine variants whose LLC set
// counts no report cell reaches: 2x16's 2^15 sets and 8x4's 2^13. Each
// digest hashes the cell's events, latency, ledger, QPI bytes, collections
// and every probe count. Neither report simulates these shapes (the tier
// report's spec matrix verifies only turbo rows), so a change to the cache
// model that moves a hit or a charge on them shows here.
var variantCellDigests = []struct {
	cell Cell
	want string
}{
	{Cell{App: "wc", System: "storm", Spec: "2x16", Scale: 4, BatchSize: 8}, "fdf12a3cfdb5a3f8"},
	{Cell{App: "vs", System: "flink", Spec: "2x16", Sockets: 1}, "9469266b7fdcb8a8"},
	{Cell{App: "lr", System: "storm", Spec: "2x16", HugePages: true}, "ea0c858210f1abcb"},
	{Cell{App: "wc", System: "storm", Spec: "8x4", Scale: 4, BatchSize: 8}, "eaa88d1617ab1360"},
	{Cell{App: "fd", System: "flink", Spec: "8x4", Sockets: 2}, "ad0dce3a300e08b5"},
	{Cell{App: "lg", System: "storm", Spec: "8x4", HugePages: true}, "33422a3c17281712"},
}

// cellDigest hashes the deterministic outcome of one simulated cell.
func cellDigest(r *engine.Result) string {
	h := fnv.New64a()
	var sum float64
	if n := r.Latency.Count(); n > 0 {
		sum = r.Latency.Mean() * float64(n)
	}
	o := &r.Ops
	for _, v := range []uint64{
		uint64(r.SourceEvents), uint64(r.SinkEvents), uint64(r.AckerCompleted),
		uint64(r.ChargedCycles), math.Float64bits(r.ElapsedSeconds),
		uint64(r.Latency.Count()), math.Float64bits(sum), r.QPIBytes, uint64(r.MinorGCs),
		o.FetchCalls, o.FetchBlocks, o.DataCalls, o.DataLines, o.StreamCalls,
		o.L1I.Hits, o.L1I.Misses, o.L1D.Hits, o.L1D.Misses, o.L2.Hits, o.L2.Misses,
		o.LLC.Hits, o.LLC.Misses, o.ITLB.Hits, o.ITLB.Misses, o.DTLB.Hits, o.DTLB.Misses,
		o.STLB.Hits, o.STLB.Misses,
	} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestVariantCellDigests runs each variantCellDigests cell at seed 1 and
// EventScale 0.1 and requires its digest.
func TestVariantCellDigests(t *testing.T) {
	cells := make([]Cell, len(variantCellDigests))
	for i, c := range variantCellDigests {
		cells[i] = c.cell
		cells[i].EventScale, cells[i].Seed = 0.1, 1
	}
	results, err := runCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		c := r.Cell
		if got := cellDigest(r.Res); got != variantCellDigests[i].want {
			t.Errorf("%s/%s on %s (sockets %d, huge pages %v): digest %s, want %s (%d cycles, LLC %+v)",
				c.App, c.System, c.Spec, c.Sockets, c.HugePages, got, variantCellDigests[i].want, r.Res.ChargedCycles, r.Res.Ops.LLC)
		}
	}
}
