package hw_test

import (
	"slices"
	"testing"

	"streamscale/internal/apps"
	"streamscale/internal/engine"
	"streamscale/internal/hw"
)

// TestOneSocketRunBuildsOneSocket: a one-socket simulated run builds only
// that socket's slice of the machine, cores 0–7 and socket 0's LLC, and
// leaves it so on the free list; a two-socket run then builds socket 1's
// slice onto that machine.
func TestOneSocketRunBuildsOneSocket(t *testing.T) {
	spec := hw.TableIII()
	hw.TakePooled(spec) // no pooled machine to reuse
	topo, err := apps.Build("wc", apps.Config{Events: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sockets     int
		cores, llcs []int
	}{
		{1, []int{0, 1, 2, 3, 4, 5, 6, 7}, []int{0}},
		{2, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, []int{0, 1}},
	} {
		if _, err := engine.RunSim(topo, engine.SimConfig{Spec: spec, System: engine.Storm(), Sockets: c.sockets, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		pooled := hw.TakePooled(spec)
		if len(pooled) != 1 {
			t.Fatalf("%d sockets: the run left %d machines on the free list, want 1", c.sockets, len(pooled))
		}
		cores, llcs := pooled[0].Built()
		if !slices.Equal(cores, c.cores) || !slices.Equal(llcs, c.llcs) {
			t.Errorf("%d sockets: the run's machine has cores %v and the LLCs of sockets %v built, want %v and %v", c.sockets, cores, llcs, c.cores, c.llcs)
		}
		hw.ReleaseMachine(pooled[0])
	}
}
