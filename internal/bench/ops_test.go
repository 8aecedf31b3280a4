package bench

import (
	"testing"

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
