package engine

import (
	"hash/fnv"
	"testing"
)

// TestNativeMatchesSimCounts runs the same word-count topology through the
// cycle-level simulator and the native runtime and checks they agree on
// every count the two runtimes share: source events, sink events, acked
// tuple trees, and per-operator input-tuple totals (the acker's included).
// This is the core parity contract behind the simulator-validation loop —
// if the runtimes diverge on *what* flows, comparing *how fast* it flows
// is meaningless.
func TestNativeMatchesSimCounts(t *testing.T) {
	// Topology shapes under test: the default word count, the same pipeline
	// under a non-default parallelism vector (the shape the joint search's
	// ParallelismOverride produces), and that scaled pipeline with its
	// chainable pair fused — parity must hold across parallelism and
	// chaining, not just the seed shape.
	shapes := []struct {
		name  string
		build func() *Topology
	}{
		{"default", func() *Topology {
			return wcTopology(100, func() Operator {
				return ProcessFunc(func(Context, Tuple) {})
			})
		}},
		{"scaled", func() *Topology {
			return wcScaledTopology(100, 2, 4, 3)
		}},
		{"scaled+chain", func() *Topology {
			chained, _, err := ChainTopology(wcScaledTopology(100, 2, 4, 3))
			if err != nil {
				t.Fatal(err)
			}
			return chained
		}},
	}
	for _, sys := range []SystemProfile{Storm(), Flink()} {
		for _, batch := range []int{1, 4} {
			for _, shape := range shapes {
				sim, err := RunSim(shape.build(), SimConfig{System: sys, BatchSize: batch, Seed: 11, Sockets: 1})
				if err != nil {
					t.Fatal(err)
				}
				nat, err := RunNative(shape.build(), NativeConfig{System: sys, BatchSize: batch, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				name := sys.Name + "/batch=" + string(rune('0'+batch)) + "/" + shape.name
				if sim.SourceEvents != nat.SourceEvents {
					t.Errorf("%s: source events sim %d native %d", name, sim.SourceEvents, nat.SourceEvents)
				}
				if sim.SinkEvents != nat.SinkEvents {
					t.Errorf("%s: sink events sim %d native %d", name, sim.SinkEvents, nat.SinkEvents)
				}
				if sim.AckerCompleted != nat.AckerCompleted {
					t.Errorf("%s: acked roots sim %d native %d", name, sim.AckerCompleted, nat.AckerCompleted)
				}
				simOps := opTupleTotals(sim)
				natOps := opTupleTotals(nat)
				for op, want := range simOps {
					if got := natOps[op]; got != want {
						t.Errorf("%s: operator %q input tuples sim %d native %d", name, op, want, got)
					}
				}
			}
		}
	}
}

func opTupleTotals(r *Result) map[string]int64 {
	out := make(map[string]int64)
	for _, e := range r.Executors {
		out[e.Op] += e.Tuples
	}
	return out
}

// TestHashValueMatchesFNV pins the inlined FNV-1a loops in grouping.go to
// hash/fnv's reference implementation. Fields-grouping distributions (and
// therefore all simulated results) depend on these hashes bit-for-bit, so
// the allocation-free rewrite must not drift.
func TestHashValueMatchesFNV(t *testing.T) {
	refU64 := func(x uint64) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
		return h.Sum64()
	}
	refString := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	for _, x := range []uint64{0, 1, 42, 1 << 32, ^uint64(0), 0xdeadbeefcafe} {
		if got, want := fnvU64(x), refU64(x); got != want {
			t.Errorf("fnvU64(%#x) = %#x, want %#x", x, got, want)
		}
	}
	for _, s := range []string{"", "a", "the quick fox", "\x00\xff"} {
		if got, want := fnvString(s), refString(s); got != want {
			t.Errorf("fnvString(%q) = %#x, want %#x", s, got, want)
		}
	}
	// hashAckRoot must equal HashFields over the boxed root, the key the
	// ack stream's fields grouping declares.
	for _, root := range []int64{1, 77, 1 << 41, -9} {
		if got, want := hashAckRoot(root), HashFields([]Value{root}, []int{0}); got != want {
			t.Errorf("hashAckRoot(%d) = %#x, want HashFields %#x", root, got, want)
		}
	}
}

// TestLatencySampleEveryCapped: a huge sampling interval must clamp
// instead of overflowing the countdown arithmetic in observeSink.
func TestLatencySampleEveryCapped(t *testing.T) {
	cfg := NativeConfig{System: Flink(), LatencySampleEvery: int(^uint(0) >> 1)}
	cfg.fill()
	if cfg.LatencySampleEvery != maxLatencySampleEvery {
		t.Fatalf("LatencySampleEvery = %d, want clamp to %d", cfg.LatencySampleEvery, maxLatencySampleEvery)
	}
	topo := wcTopology(50, func() Operator { return ProcessFunc(func(Context, Tuple) {}) })
	res, err := RunNative(topo, NativeConfig{
		System: Flink(), BatchSize: 2, Seed: 1,
		LatencySampleEvery: int(^uint(0) >> 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SinkEvents == 0 {
		t.Fatal("no sink events")
	}
}

// TestNativeMatchesSimLatencySampling extends the parity contract to the
// latency sampling cadence: both runtimes use the same per-executor
// countdown (positions n, 2n, ... of each sink executor's tuple stream),
// so for the same explicit LatencySampleEvery they must observe the same
// number of latency samples. Both test shapes run a single sink executor,
// making the per-executor streams directly comparable.
func TestNativeMatchesSimLatencySampling(t *testing.T) {
	for _, sys := range []SystemProfile{Storm(), Flink()} {
		for _, batch := range []int{1, 4} {
			for _, every := range []int{1, 4} {
				topo := func() *Topology {
					return wcTopology(100, func() Operator {
						return ProcessFunc(func(Context, Tuple) {})
					})
				}
				sim, err := RunSim(topo(), SimConfig{System: sys, BatchSize: batch, Seed: 11, Sockets: 1,
					LatencySampleEvery: every})
				if err != nil {
					t.Fatal(err)
				}
				nat, err := RunNative(topo(), NativeConfig{System: sys, BatchSize: batch, Seed: 11,
					LatencySampleEvery: every})
				if err != nil {
					t.Fatal(err)
				}
				name := sys.Name + "/batch=" + string(rune('0'+batch))
				if sim.Latency.Count() == 0 {
					t.Errorf("%s every=%d: sim observed no latency samples", name, every)
				}
				if sim.Latency.Count() != nat.Latency.Count() {
					t.Errorf("%s every=%d: latency samples sim %d native %d (cadences misaligned)",
						name, every, sim.Latency.Count(), nat.Latency.Count())
				}
				// The countdown observes positions n, 2n, ...: every sink
				// tuple at n=1, floor(events/n) on the single sink executor.
				want := sim.SinkEvents / int64(every)
				if got := sim.Latency.Count(); got != want {
					t.Errorf("%s every=%d: %d samples from %d sink events, want %d",
						name, every, got, sim.SinkEvents, want)
				}
			}
		}
	}
}
