package engine

import (
	"testing"
)

// burstSource emits many tuples per Next call to stress output queues.
type burstSource struct {
	n, per int
}

func (s *burstSource) Prepare(Context) {}
func (s *burstSource) Next(ctx Context) bool {
	if s.n <= 0 {
		return false
	}
	s.n--
	for i := 0; i < s.per; i++ {
		ctx.Emit(s.n, i)
	}
	return s.n > 0
}

// slowFanout amplifies each input (stressing downstream queues further).
type slowFanout struct{}

func (slowFanout) Prepare(Context) {}
func (slowFanout) Process(ctx Context, t Tuple) {
	ctx.Work(50_000, 100) // slow consumer
	ctx.Emit(t.Values[0], t.Values[1])
	ctx.Emit(t.Values[0], t.Values[1])
}

// With queue capacity 2 and bursty, amplifying producers, the simulation
// must neither deadlock nor lose tuples: bounded queues exert backpressure
// through the blocking protocol.
func TestSimTinyQueuesBackpressure(t *testing.T) {
	for _, sys := range []SystemProfile{Storm(), Flink()} {
		topo := NewTopology("bp")
		topo.AddSource("src", 1, func() Source { return &burstSource{n: 100, per: 7} },
			Stream(DefaultStream, "a", "b"))
		topo.AddOp("fan", 2, func() Operator { return slowFanout{} },
			Stream(DefaultStream, "a", "b")).
			SubDefault("src", Shuffle())
		topo.AddOp("sink", 1, func() Operator { return ProcessFunc(func(Context, Tuple) {}) }).
			SubDefault("fan", Fields("a"))

		sys.QueueCap = 2
		res, err := RunSim(topo, SimConfig{System: sys, Seed: 3, Sockets: 1})
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		if res.SourceEvents != 700 {
			t.Fatalf("%s: source events = %d, want 700", sys.Name, res.SourceEvents)
		}
		if res.SinkEvents != 1400 {
			t.Fatalf("%s: sink events = %d, want 1400 (2x amplification)", sys.Name, res.SinkEvents)
		}
		if sys.AckEnabled && res.AckerCompleted != res.SourceEvents {
			t.Fatalf("%s: acking incomplete under backpressure: %d/%d",
				sys.Name, res.AckerCompleted, res.SourceEvents)
		}
	}
}

// Native runtime under the same pressure.
func TestNativeTinyQueuesBackpressure(t *testing.T) {
	topo := NewTopology("bp")
	topo.AddSource("src", 2, func() Source { return &burstSource{n: 50, per: 5} },
		Stream(DefaultStream, "a", "b"))
	topo.AddOp("fan", 3, func() Operator { return slowFanout{} },
		Stream(DefaultStream, "a", "b")).
		SubDefault("src", Shuffle())
	topo.AddOp("sink", 2, func() Operator { return ProcessFunc(func(Context, Tuple) {}) }).
		SubDefault("fan", Fields("b"))

	sys := Storm()
	sys.QueueCap = 2
	res, err := RunNative(topo, NativeConfig{System: sys, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.SinkEvents != 2*2*50*5 {
		t.Fatalf("sink events = %d, want %d", res.SinkEvents, 2*2*50*5)
	}
	if res.AckerCompleted != res.SourceEvents {
		t.Fatalf("acking incomplete: %d/%d", res.AckerCompleted, res.SourceEvents)
	}
}

// A Flusher that emits a large burst at EOS while downstream queues are
// tiny: the finish path must handle blocked flushes without losing data.
type burstFlusher struct{ seen int }

func (b *burstFlusher) Prepare(Context) {}
func (b *burstFlusher) Process(_ Context, t Tuple) {
	b.seen++
}
func (b *burstFlusher) Flush(ctx Context) {
	for i := 0; i < b.seen; i++ {
		ctx.Emit(i)
	}
}

func TestSimFlushBurstThroughTinyQueues(t *testing.T) {
	topo := NewTopology("fb")
	topo.AddSource("src", 1, func() Source { return &burstSource{n: 60, per: 1} },
		Stream(DefaultStream, "a", "b"))
	topo.AddOp("hold", 1, func() Operator { return &burstFlusher{} },
		Stream(DefaultStream, "i")).
		SubDefault("src", Shuffle())
	topo.AddOp("sink", 1, func() Operator { return ProcessFunc(func(Context, Tuple) {}) }).
		SubDefault("hold", Shuffle())

	sys := Flink()
	sys.QueueCap = 2
	res, err := RunSim(topo, SimConfig{System: sys, Seed: 1, Sockets: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SinkEvents != 60 {
		t.Fatalf("sink events = %d, want 60 (flush burst lost)", res.SinkEvents)
	}
}

// Determinism must hold under extreme queue pressure too.
func TestSimBackpressureDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		topo := NewTopology("bp")
		topo.AddSource("src", 1, func() Source { return &burstSource{n: 80, per: 4} },
			Stream(DefaultStream, "a", "b"))
		topo.AddOp("fan", 2, func() Operator { return slowFanout{} },
			Stream(DefaultStream, "a", "b")).
			SubDefault("src", Shuffle())
		topo.AddOp("sink", 1, func() Operator { return ProcessFunc(func(Context, Tuple) {}) }).
			SubDefault("fan", Fields("a"))
		sys := Storm()
		sys.QueueCap = 3
		res, err := RunSim(topo, SimConfig{System: sys, Seed: 11, Sockets: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.ElapsedSeconds, res.SinkEvents
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("nondeterministic under backpressure: (%v,%d) vs (%v,%d)", e1, s1, e2, s2)
	}
}

// Failure injection: a zombie executor drops its share of tuples; Storm's
// XOR accounting surfaces exactly that loss as incomplete tuple trees.
func TestSimFailureInjectionSurfacesInAcking(t *testing.T) {
	build := func() *Topology {
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
	healthy, err := RunSim(build(), SimConfig{System: Storm(), Seed: 2, Sockets: 1})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.AckerCompleted != healthy.SourceEvents {
		t.Fatalf("healthy run incomplete: %d/%d", healthy.AckerCompleted, healthy.SourceEvents)
	}

	// Fail work[1] (global index 3: src=0, acker injected last) after 20
	// tuples. Find its global index robustly via the exec graph.
	xt, err := BuildExecTopology(build(), Storm())
	if err != nil {
		t.Fatal(err)
	}
	fail := map[int]int64{}
	for _, ref := range ExecGraph(xt) {
		if ref.Op == "work" && ref.Index == 1 {
			fail[ref.Global] = 20
		}
	}
	if len(fail) != 1 {
		t.Fatalf("could not locate work[1]: %v", fail)
	}
	broken, err := RunSim(build(), SimConfig{System: Storm(), Seed: 2, Sockets: 1, FailAfter: fail})
	if err != nil {
		t.Fatal(err)
	}
	lost := broken.SourceEvents - broken.AckerCompleted
	if lost <= 0 {
		t.Fatalf("zombie executor lost no tuple trees (%d/%d complete)",
			broken.AckerCompleted, broken.SourceEvents)
	}
	// Roughly half the stream routes through the failed executor; all of
	// it after the first 20 tuples should be lost.
	if lost < 50 || lost > 150 {
		t.Fatalf("lost %d of %d trees; expected roughly half", lost, broken.SourceEvents)
	}
	if broken.SinkEvents >= healthy.SinkEvents {
		t.Fatal("sink saw as many tuples despite the failure")
	}
}
