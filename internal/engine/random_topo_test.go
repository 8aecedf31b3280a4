package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// Random-topology equivalence: generate random layered DAGs with random
// groupings, parallelism, and selectivities, and check that the native and
// simulated runtimes deliver exactly the same number of tuples to every
// operator — the runtimes must differ in performance, never in semantics.

// echoN emits each input tuple's key n times.
type echoN struct{ n int }

func (e echoN) Prepare(Context) {}
func (e echoN) Process(ctx Context, t Tuple) {
	for i := 0; i < e.n; i++ {
		ctx.Emit(t.Values[0], i)
	}
}

// keyedSource emits tuples with keys cycling over a small space.
type keyedSource struct{ n, keys int }

func (s *keyedSource) Prepare(Context) {}
func (s *keyedSource) Next(ctx Context) bool {
	if s.n <= 0 {
		return false
	}
	s.n--
	ctx.Emit(fmt.Sprintf("k%02d", s.n%s.keys), s.n)
	return s.n > 0
}

// randomTopology builds a layered DAG: a source layer, 1-3 middle layers,
// and a sink. Each middle node subscribes to 1-2 nodes of earlier layers
// with a random grouping.
func randomTopology(rng *rand.Rand, events int) *Topology {
	t := NewTopology("random")
	t.AddSource("src", 1+rng.Intn(2), func() Source {
		return &keyedSource{n: events, keys: 4 + rng.Intn(12)}
	}, Stream(DefaultStream, "key", "seq"))

	groupings := []func() Grouping{
		Shuffle,
		func() Grouping { return Fields("key") },
		Global,
	}
	prev := []string{"src"}
	layers := 1 + rng.Intn(3)
	id := 0
	for l := 0; l < layers; l++ {
		width := 1 + rng.Intn(2)
		var cur []string
		for w := 0; w < width; w++ {
			name := fmt.Sprintf("op%d", id)
			id++
			fan := 1 + rng.Intn(2)
			node := t.AddOp(name, 1+rng.Intn(3), func() Operator {
				return echoN{n: fan}
			}, Stream(DefaultStream, "key", "seq"))
			// Subscribe to 1..2 distinct nodes from the previous layer.
			subs := 1
			if len(prev) > 1 && rng.Intn(2) == 0 {
				subs = 2
			}
			perm := rng.Perm(len(prev))
			for s := 0; s < subs; s++ {
				node.SubDefault(prev[perm[s]], groupings[rng.Intn(len(groupings))]())
			}
			cur = append(cur, name)
		}
		prev = cur
	}
	sink := t.AddOp("sink", 1+rng.Intn(2), func() Operator {
		return ProcessFunc(func(Context, Tuple) {})
	})
	for _, p := range prev {
		sink.SubDefault(p, groupings[rng.Intn(3)]())
	}
	return t
}

func TestRandomTopologySimNativeEquivalence(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		seed := int64(trial)*997 + 13
		rng := rand.New(rand.NewSource(seed))
		events := 40 + rng.Intn(80)

		// Build twice from the same seed: factories capture rng state at
		// build time, so each runtime needs its own topology instance.
		rngA := rand.New(rand.NewSource(seed))
		rngB := rand.New(rand.NewSource(seed))
		topoA := randomTopology(rngA, events)
		topoB := randomTopology(rngB, events)

		sysIdx := trial % 2
		sys := Storm()
		if sysIdx == 1 {
			sys = Flink()
		}
		nat, err := RunNative(topoA, NativeConfig{System: sys, Seed: seed, BatchSize: 1 + trial%8})
		if err != nil {
			t.Fatalf("trial %d native: %v", trial, err)
		}
		sim, err := RunSim(topoB, SimConfig{System: sys, Seed: seed, Sockets: 1 + trial%4, BatchSize: 1 + trial%8})
		if err != nil {
			t.Fatalf("trial %d sim: %v", trial, err)
		}

		if nat.SourceEvents != sim.SourceEvents {
			t.Fatalf("trial %d: source events native %d != sim %d", trial, nat.SourceEvents, sim.SourceEvents)
		}
		if nat.SinkEvents != sim.SinkEvents {
			t.Fatalf("trial %d: sink events native %d != sim %d (seed %d)",
				trial, nat.SinkEvents, sim.SinkEvents, seed)
		}
		// Per-operator input-tuple totals must match too, the acker's
		// included.
		natCounts := map[string]int64{}
		for _, e := range nat.Executors {
			natCounts[e.Op] += e.Tuples
		}
		simCounts := map[string]int64{}
		for _, e := range sim.Executors {
			simCounts[e.Op] += e.Tuples
		}
		for op, n := range simCounts {
			if natCounts[op] != n {
				t.Fatalf("trial %d: operator %s tuples native %d != sim %d", trial, op, natCounts[op], n)
			}
		}
		if sys.AckEnabled && nat.AckerCompleted != nat.SourceEvents {
			t.Fatalf("trial %d: native acking incomplete %d/%d", trial, nat.AckerCompleted, nat.SourceEvents)
		}
		if sys.AckEnabled && sim.AckerCompleted != sim.SourceEvents {
			t.Fatalf("trial %d: sim acking incomplete %d/%d", trial, sim.AckerCompleted, sim.SourceEvents)
		}
	}
}
