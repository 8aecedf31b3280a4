package bench

import (
	"runtime"
	"testing"

	"streamscale/internal/ring"
)

// simAllocCeiling bounds the bytes one sim-cells cell allocates on a
// machine from the free list: 1.2% above the largest of 5,327,904-5,333,424
// bytes measured over two runs at -count 10. Building a machine per cell
// (about 17 MB of caches) exceeds it three times over.
const simAllocCeiling = 5_400_000

// TestSimCellAllocCeiling runs the wc/storm cell of perfbench's sim-cells
// mix (4 sockets, scale 4, S=8, EventScale 0.1) through engine.RunSim
// twice: the first run leaves its machine on the free list, and the second
// must allocate (runtime.MemStats.TotalAlloc) no more than simAllocCeiling
// bytes and no less than 90% of it, so a cut in allocation has to lower
// the ceiling with it.
func TestSimCellAllocCeiling(t *testing.T) {
	if ring.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	c := Cell{App: "wc", System: "storm", Sockets: 4, Scale: 4, BatchSize: 8, EventScale: 0.1, Seed: 1}
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
	t.Logf("the cell allocated %d bytes", bytes)
	if bytes > simAllocCeiling {
		t.Fatalf("the cell allocated %d bytes, above the ceiling %d: a run builds a machine or allocates per event", bytes, simAllocCeiling)
	}
	if bytes < simAllocCeiling*9/10 {
		t.Fatalf("the cell allocated %d bytes, under 90%% of the ceiling %d: lower simAllocCeiling", bytes, simAllocCeiling)
	}
}
