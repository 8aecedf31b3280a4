package engine

import (
	"os"
	"testing"

	"streamscale/internal/ring"
)

// BenchmarkNativeRingTransfer measures the raw executor-to-executor
// message hop: one producer pushing Msg batches through an SPSC ring to
// one consumer, slabs recycled over the free ring — the steady-state
// transfer the acceptance bar requires at 0 allocs/op.
func BenchmarkNativeRingTransfer(b *testing.B) {
	const batch = 4
	data := ring.NewSPSC[Msg](256, nil)
	free := ring.NewSPSC[[]Tuple](8, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			m := data.Pop()
			clear(m.Batch)
			free.TryPush(m.Batch[:0])
		}
	}()
	vals := []Value{int64(1), int64(2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slab, ok := free.TryPop()
		if !ok {
			slab = make([]Tuple, 0, batch)
		}
		for k := 0; k < batch; k++ {
			slab = append(slab, Tuple{Values: vals, Root: int64(i)})
		}
		data.Push(Msg{Stream: DefaultStream, Batch: slab})
	}
	<-done
}

// benchPipeline runs the word-count topology (wc shape: source → split →
// count → sink) once on the given runner and reports events/sec.
func benchPipeline(b *testing.B, run func(*Topology, NativeConfig) (*Result, error), sentences int) float64 {
	topo := wcTopology(sentences, func() Operator {
		return ProcessFunc(func(Context, Tuple) {})
	})
	res, err := run(topo, NativeConfig{System: Storm(), BatchSize: 4, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if res.SinkEvents == 0 {
		b.Fatal("pipeline delivered nothing")
	}
	return float64(res.SourceEvents) / res.ElapsedSeconds
}

// BenchmarkNativePipeline: the acceptance-criteria cell — wc, Storm
// profile (acking on), batch S=4 — on the lock-free ring runtime.
func BenchmarkNativePipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eps := benchPipeline(b, RunNative, 2000)
		b.ReportMetric(eps, "events/s")
	}
}

// BenchmarkNativePipelineChannels is the same cell on the preserved
// channel-based runtime (runtime_native_chanref_test.go).
func BenchmarkNativePipelineChannels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eps := benchPipeline(b, runNativeChannels, 2000)
		b.ReportMetric(eps, "events/s")
	}
}

// TestNativePipelineSpeedup asserts the acceptance bar — ≥2x tuples/sec
// over the channel runtime on wc/storm/S=4. Wall-clock performance
// assertions are inherently host-sensitive, so the test only runs when
// DSP_PERF=1 (ci.sh runs it in a dedicated non-race stage).
func TestNativePipelineSpeedup(t *testing.T) {
	if os.Getenv("DSP_PERF") != "1" {
		t.Skip("set DSP_PERF=1 to run wall-clock performance assertions")
	}
	best := func(run func(*Topology, NativeConfig) (*Result, error)) float64 {
		var m float64
		for rep := 0; rep < 5; rep++ {
			topo := wcTopology(3000, func() Operator {
				return ProcessFunc(func(Context, Tuple) {})
			})
			res, err := run(topo, NativeConfig{System: Storm(), BatchSize: 4, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if eps := float64(res.SourceEvents) / res.ElapsedSeconds; eps > m {
				m = eps
			}
		}
		return m
	}
	rings := best(RunNative)
	chans := best(runNativeChannels)
	ratio := rings / chans
	t.Logf("ring runtime %.0f events/s, channel runtime %.0f events/s, ratio %.2fx", rings, chans, ratio)
	if ratio < 2 {
		t.Fatalf("ring runtime only %.2fx the channel runtime, want >= 2x", ratio)
	}
}

// TestRingMsgTransferZeroAllocs: the engine-level twin of the ring
// package's zero-alloc test, through Msg-typed rings with slab recycling
// (the exact hop BenchmarkNativeRingTransfer measures).
func TestRingMsgTransferZeroAllocs(t *testing.T) {
	if ring.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	data := ring.NewSPSC[Msg](64, nil)
	free := ring.NewSPSC[[]Tuple](8, nil)
	free.TryPush(make([]Tuple, 0, 4))
	vals := []Value{int64(1)}
	allocs := testing.AllocsPerRun(2000, func() {
		slab, ok := free.TryPop()
		if !ok {
			t.Fatal("free ring dry")
		}
		slab = append(slab, Tuple{Values: vals})
		if !data.TryPush(Msg{Batch: slab}) {
			t.Fatal("data ring full")
		}
		m, _ := data.TryPop()
		clear(m.Batch)
		free.TryPush(m.Batch[:0])
	})
	if allocs != 0 {
		t.Fatalf("Msg ring transfer allocates %.1f per op, want 0", allocs)
	}
}
