package bench

import (
	"runtime"
	"testing"

	"streamscale/internal/ring"
)

// simAllocCeilings bound the bytes a sim-cells cell allocates on a machine
// from the free list, each 1.2% above the largest of its measurements over
// two runs at -count 10: wc/storm allocated 4,144,136-4,144,400 bytes and
// vs/storm, the mix's largest, 5,443,200-5,443,704. Building a machine per
// cell (about 17 MB of caches) exceeds either at least four times over;
// dense VS Bloom filters, fixed 1024-message queue rings or a batch slab
// per message exceed the vs/storm ceiling.
var simAllocCeilings = []struct {
	app     string
	ceiling uint64
}{
	{"wc", 4_195_000},
	{"vs", 5_510_000},
}

// TestSimCellAllocCeiling runs the wc/storm and vs/storm cells of
// perfbench's sim-cells mix (4 sockets, scale 4, S=8, EventScale 0.1)
// through engine.RunSim twice each: the first run leaves its machine on
// the free list, and the second must allocate (runtime.MemStats.TotalAlloc)
// no more than the cell's ceiling and no less than 90% of it, so a cut in
// allocation has to lower the ceiling with it.
func TestSimCellAllocCeiling(t *testing.T) {
	if ring.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, g := range simAllocCeilings {
		c := Cell{App: g.app, System: "storm", Sockets: 4, Scale: 4, BatchSize: 8, EventScale: 0.1, Seed: 1}
		if _, err := runDirect(c); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := runDirect(c)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		t.Logf("the %s/storm cell allocated %d bytes", g.app, bytes)
		if bytes > g.ceiling {
			t.Errorf("the %s/storm cell allocated %d bytes, above the ceiling %d: a run allocates beyond what it touches (see simAllocCeilings)", g.app, bytes, g.ceiling)
		}
		if bytes < g.ceiling*9/10 {
			t.Errorf("the %s/storm cell allocated %d bytes, under 90%% of the ceiling %d: lower its ceiling", g.app, bytes, g.ceiling)
		}
	}
}
