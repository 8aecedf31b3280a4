package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"streamscale/internal/trace"
)

// The simulator must stay cycle-exact across refactors of the executor.
// The report and perfbench digests cover the closed-loop cells; these
// pins cover the paths those runs do not reach: checkpoint barriers
// (the report's cells end before the first 20 ms barrier), injected
// executor failures, open-loop pacing with and without the
// coordinated-omission ablation, multi-stream fan-out with replication
// and flush, and a traced run. Each expected digest was recorded from the
// executor before it was shared between the two runtimes, except three
// open-loop runs with S > 1 (flink-barriers-batched, flink-open-loop and
// the flink traced run): they were recorded again when an invocation
// began to wait for the intended arrival of its last event, once
// TestOpenLoopNoEarlyEmission passed on their configurations.

// resultDigest hashes the cycle-exact outcome of one simulated run.
func resultDigest(r *Result) string {
	h := fnv.New64a()
	var sum float64
	if n := r.Latency.Count(); n > 0 {
		sum = r.Latency.Mean() * float64(n)
	}
	for _, v := range []uint64{
		uint64(r.SourceEvents), uint64(r.SinkEvents), uint64(r.AckerCompleted),
		uint64(r.ChargedCycles), math.Float64bits(r.ElapsedSeconds),
		uint64(r.Latency.Count()), math.Float64bits(sum),
	} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fanTopology exercises two output streams, a consumer subscribed to both,
// replication (all grouping) and an end-of-stream flush.
func fanTopology(events int) *Topology {
	t := NewTopology("fan")
	t.AddSource("src", 2, func() Source { return &burstSource{n: events, per: 3} },
		Stream(DefaultStream, "a", "b"))
	t.AddOp("split", 2, func() Operator {
		return ProcessFunc(func(ctx Context, tp Tuple) {
			ctx.Emit(tp.Values...)
			if tp.Values[1].(int)%2 == 0 {
				ctx.EmitTo("side", tp.Values...)
			}
		})
	}, Stream(DefaultStream, "a", "b"), Stream("side", "a", "b")).
		SubDefault("src", Fields("a"))
	t.AddOp("buffer", 3, func() Operator { return &bufferingOp{} },
		Stream(DefaultStream, "a", "b")).
		SubDefault("split", All()).
		Sub("split", "side", Shuffle())
	t.AddOp("sink", 2, func() Operator { return ProcessFunc(func(Context, Tuple) {}) }).
		SubDefault("buffer", Fields("b"))
	return t
}

func fiTopology() *Topology {
	topo := NewTopology("fi")
	topo.AddSource("src", 1, func() Source { return &burstSource{n: 200, per: 1} },
		Stream(DefaultStream, "a", "b"))
	topo.AddOp("work", 2, func() Operator {
		return ProcessFunc(func(ctx Context, tp Tuple) { ctx.Emit(tp.Values...) })
	}, Stream(DefaultStream, "a", "b")).
		SubDefault("src", Shuffle())
	topo.AddOp("sink", 1, func() Operator { return ProcessFunc(func(Context, Tuple) {}) }).
		SubDefault("work", Shuffle())
	return topo
}

func nopWC(sentences int) *Topology {
	return wcTopology(sentences, func() Operator { return ProcessFunc(func(Context, Tuple) {}) })
}

// simGoldenCase is one pinned simulation and its digest.
type simGoldenCase struct {
	name string
	topo func() *Topology
	cfg  SimConfig
	want string
}

func simGoldenCases() []simGoldenCase {
	flinkFast := Flink()
	flinkFast.CheckpointInterval = 3_000_000
	flinkFaster := Flink()
	flinkFaster.CheckpointInterval = 300_000
	return []simGoldenCase{
		{"flink-barriers", func() *Topology { return nopWC(120) },
			SimConfig{System: flinkFast, Seed: 6}, "69488e7d1b37a108"},
		{"flink-barriers-long", func() *Topology { return nopWC(800) },
			SimConfig{System: flinkFast, Seed: 6, Sockets: 1}, "76dc6d3611c0ca30"},
		{"flink-barriers-batched", func() *Topology { return nopWC(120) },
			SimConfig{System: flinkFaster, Seed: 6, Sockets: 1, BatchSize: 4, SourceRate: 100_000}, "803c5332ff69f87a"},
		{"flink-fan", func() *Topology { return fanTopology(60) },
			SimConfig{System: flinkFaster, Seed: 3, Sockets: 2, BatchSize: 2, SourceRate: 50_000}, "46f40364424a233a"},
		{"storm-fan", func() *Topology { return fanTopology(60) },
			SimConfig{System: Storm(), Seed: 3, Sockets: 2, BatchSize: 2}, "eff7a29f6724cbde"},
		{"storm-fail-after", fiTopology,
			SimConfig{System: Storm(), Seed: 2, Sockets: 1, FailAfter: map[int]int64{2: 20}}, "93ea4eff5a6fd1d6"},
		{"storm-open-loop", func() *Topology { return nopWC(400) },
			SimConfig{System: Storm(), Seed: 5, Sockets: 1, SourceRate: 150_000, LatencySampleEvery: 1}, "30f7b77426af5c0e"},
		{"storm-open-loop-co", func() *Topology { return nopWC(400) },
			SimConfig{System: Storm(), Seed: 5, Sockets: 1, SourceRate: 150_000, LatencySampleEvery: 1,
				CoordinatedOmission: true}, "0eba319a769eb163"},
		{"flink-open-loop", func() *Topology { return nopWC(200) },
			SimConfig{System: flinkFast, Seed: 5, Sockets: 1, SourceRate: 40_000, BatchSize: 2}, "a45890be0b552b2b"},
	}
}

func (c simGoldenCase) check(t *testing.T) {
	t.Helper()
	res, err := RunSim(c.topo(), c.cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if got := resultDigest(res); got != c.want {
		t.Errorf("%s: digest %s, want %s (%d src, %d sink, %d acked, %d cycles)",
			c.name, got, c.want, res.SourceEvents, res.SinkEvents, res.AckerCompleted, res.ChargedCycles)
	}
}

// TestSimGoldenDigests pins each case's digest. Every case after the first
// runs on a machine an earlier run released.
func TestSimGoldenDigests(t *testing.T) {
	for _, c := range simGoldenCases() {
		c.check(t)
	}
}

// TestSimGoldenDigestsReversed runs the golden cases in reverse order,
// twice, so each case also runs on a machine reset after different cases
// than in TestSimGoldenDigests: state a reset leaked would move a digest.
func TestSimGoldenDigestsReversed(t *testing.T) {
	cases := simGoldenCases()
	for pass := 0; pass < 2; pass++ {
		for i := len(cases) - 1; i >= 0; i-- {
			cases[i].check(t)
		}
	}
}

// TestSimGoldenTrace pins a traced run byte for byte: the trace events
// and the summary both depend on the order and instant of every charge.
func TestSimGoldenTrace(t *testing.T) {
	for _, c := range []struct {
		name string
		sys  SystemProfile
		rate float64
		want string
	}{
		{"storm", Storm(), 0, "14a74ec2685a2800"},
		{"flink", func() SystemProfile { s := Flink(); s.CheckpointInterval = 200_000; return s }(), 50_000, "079e3a6f0ee7728d"},
	} {
		tr := trace.New(trace.Config{SampleEvery: 3})
		res, err := RunSim(nopWC(60), SimConfig{System: c.sys, Seed: 4, Sockets: 1, BatchSize: 2,
			SourceRate: c.rate, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.EncodeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if err := tr.EncodeSummary(&buf); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		h.Write([]byte(resultDigest(res)))
		if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
			t.Errorf("%s traced run: digest %s, want %s (%d trace bytes)", c.name, got, c.want, buf.Len())
		}
	}
}
