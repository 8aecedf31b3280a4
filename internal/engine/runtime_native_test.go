package engine

import (
	"fmt"
	"sync"
	"testing"
)

// testWordSource emits n fixed sentences.
type testWordSource struct {
	n, emitted int
}

func (s *testWordSource) Prepare(Context) {}
func (s *testWordSource) Next(ctx Context) bool {
	if s.emitted >= s.n {
		return false
	}
	ctx.Emit(fmt.Sprintf("the quick fox %d", s.emitted%5))
	s.emitted++
	return s.emitted < s.n
}

// testSplit splits sentences into words.
type testSplit struct{}

func (testSplit) Prepare(Context) {}
func (testSplit) Process(ctx Context, t Tuple) {
	s := t.Values[0].(string)
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			if i > start {
				ctx.Emit(s[start:i])
			}
			start = i + 1
		}
	}
}

// testCount maintains word counts and emits updates.
type testCount struct{ counts map[string]int64 }

func (c *testCount) Prepare(Context) { c.counts = make(map[string]int64) }
func (c *testCount) Process(ctx Context, t Tuple) {
	w := t.Values[0].(string)
	c.counts[w]++
	ctx.Emit(w, c.counts[w])
}

// collectSink records everything it sees, concurrency-safe.
type collectSink struct {
	mu    *sync.Mutex
	got   *map[string]int64
	total *int64
}

func (s *collectSink) Prepare(Context) {}
func (s *collectSink) Process(_ Context, t Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := t.Values[0].(string)
	n := t.Values[1].(int64)
	if n > (*s.got)[w] {
		(*s.got)[w] = n
	}
	*s.total++
}

func wcTopology(sentences int, sink func() Operator) *Topology {
	t := NewTopology("wc-test")
	t.AddSource("source", 2, func() Source { return &testWordSource{n: sentences} },
		Stream(DefaultStream, "sentence"))
	t.AddOp("split", 3, func() Operator { return testSplit{} },
		Stream(DefaultStream, "word")).
		SubDefault("source", Shuffle())
	t.AddOp("count", 2, func() Operator { return &testCount{} },
		Stream(DefaultStream, "word", "count")).
		SubDefault("split", Fields("word"))
	t.AddOp("sink", 1, sink).SubDefault("count", Global())
	return t
}

func runWC(t *testing.T, sys SystemProfile, batch int) (*Result, map[string]int64, int64) {
	t.Helper()
	var mu sync.Mutex
	got := map[string]int64{}
	var total int64
	topo := wcTopology(100, func() Operator { return &collectSink{mu: &mu, got: &got, total: &total} })
	res, err := RunNative(topo, NativeConfig{System: sys, BatchSize: batch, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return res, got, total
}

func TestNativeWordCountExactCounts(t *testing.T) {
	res, got, total := runWC(t, Flink(), 1)
	// 2 source executors x 100 sentences x 4 words each.
	if res.SourceEvents != 200 {
		t.Fatalf("source events = %d, want 200", res.SourceEvents)
	}
	if total != 800 {
		t.Fatalf("sink saw %d count updates, want 800", total)
	}
	// "the" appears once per sentence: 200 total across 2 sources.
	if got["the"] != 200 {
		t.Fatalf(`count["the"] = %d, want 200`, got["the"])
	}
	// Sentences cycle through 5 numeric suffixes: 40 each per source.
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("%d", i)
		if got[k] != 40 {
			t.Fatalf("count[%q] = %d, want 40", k, got[k])
		}
	}
	if res.SinkEvents != 800 {
		t.Fatalf("SinkEvents = %d, want 800", res.SinkEvents)
	}
}

func TestNativeBatchingPreservesResults(t *testing.T) {
	_, base, baseTotal := runWC(t, Flink(), 1)
	for _, S := range []int{2, 4, 8} {
		_, got, total := runWC(t, Flink(), S)
		if total != baseTotal {
			t.Fatalf("S=%d: total %d != unbatched %d", S, total, baseTotal)
		}
		for k, v := range base {
			if got[k] != v {
				t.Fatalf("S=%d: count[%q] = %d, want %d", S, k, got[k], v)
			}
		}
	}
}

func TestNativeStormAckingCompletesAllRoots(t *testing.T) {
	res, _, _ := runWC(t, Storm(), 1)
	// Every source tuple tree must fully XOR to zero at the acker.
	if res.AckerCompleted != res.SourceEvents {
		t.Fatalf("acker completed %d of %d roots", res.AckerCompleted, res.SourceEvents)
	}
}

func TestNativeStormAckingWithBatching(t *testing.T) {
	res, _, _ := runWC(t, Storm(), 8)
	if res.AckerCompleted != res.SourceEvents {
		t.Fatalf("batched acking completed %d of %d roots", res.AckerCompleted, res.SourceEvents)
	}
}

func TestNativeLatencyObserved(t *testing.T) {
	res, _, _ := runWC(t, Flink(), 1)
	if res.Latency.Count() == 0 {
		t.Fatal("no latency samples collected")
	}
	if res.Latency.Mean() < 0 {
		t.Fatal("negative latency")
	}
}

// Replication (all grouping) with acking: each delivered copy is its own
// anchor edge and the tree must still complete.
func TestNativeAllGroupingAcking(t *testing.T) {
	topo := NewTopology("all-test")
	topo.AddSource("src", 1, func() Source { return &testWordSource{n: 50} },
		Stream(DefaultStream, "sentence"))
	topo.AddOp("fan", 3, func() Operator {
		return ProcessFunc(func(ctx Context, t Tuple) { ctx.Emit(t.Values[0]) })
	}, Stream(DefaultStream, "sentence")).SubDefault("src", All())
	topo.AddOp("sink", 2, func() Operator {
		return ProcessFunc(func(Context, Tuple) {})
	}).SubDefault("fan", Shuffle())

	res, err := RunNative(topo, NativeConfig{System: Storm(), BatchSize: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.AckerCompleted != res.SourceEvents {
		t.Fatalf("replicated acking completed %d of %d roots", res.AckerCompleted, res.SourceEvents)
	}
	// 1 source tuple -> 3 fan copies -> 3 sink tuples each... fan emits one
	// tuple per copy, so sinks see 3x the source events.
	if res.SinkEvents != 3*res.SourceEvents {
		t.Fatalf("sink events = %d, want %d", res.SinkEvents, 3*res.SourceEvents)
	}
}

// A Flusher operator must drain its buffer exactly once at EOS.
type bufferingOp struct {
	buf []Tuple
}

func (b *bufferingOp) Prepare(Context) {}
func (b *bufferingOp) Process(_ Context, t Tuple) {
	b.buf = append(b.buf, t)
}
func (b *bufferingOp) Flush(ctx Context) {
	for _, t := range b.buf {
		ctx.Emit(t.Values...)
	}
	b.buf = nil
}

func TestNativeFlusherDrainsAtEOS(t *testing.T) {
	topo := NewTopology("flush-test")
	topo.AddSource("src", 1, func() Source { return &testWordSource{n: 30} },
		Stream(DefaultStream, "sentence"))
	topo.AddOp("buffer", 1, func() Operator { return &bufferingOp{} },
		Stream(DefaultStream, "sentence")).SubDefault("src", Shuffle())
	topo.AddOp("sink", 1, func() Operator {
		return ProcessFunc(func(Context, Tuple) {})
	}).SubDefault("buffer", Shuffle())

	res, err := RunNative(topo, NativeConfig{System: Flink(), BatchSize: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.SinkEvents != res.SourceEvents {
		t.Fatalf("sink events = %d, want %d (flush lost tuples)", res.SinkEvents, res.SourceEvents)
	}
}

func TestNativeEmitToUndeclaredStreamPanics(t *testing.T) {
	topo := NewTopology("bad")
	topo.AddSource("src", 1, func() Source { return &badSource{} }, Stream(DefaultStream, "v"))
	topo.AddOp("sink", 1, func() Operator { return ProcessFunc(func(Context, Tuple) {}) }).
		SubDefault("src", Shuffle())
	defer func() {
		if recover() == nil {
			t.Fatal("emit to undeclared stream did not panic")
		}
	}()
	// The source's first Next panics inside a worker goroutine, so
	// instead call the source executor's context directly.
	execs := newExecutors(mustExec(topo, Flink()), &execConfig{batch: 1, sampleEvery: 16}, nil)
	execs[0].EmitTo("nosuch", "x")
}

type badSource struct{}

func (badSource) Prepare(Context) {}
func (badSource) Next(ctx Context) bool {
	ctx.EmitTo("nosuch", "x")
	return false
}

func mustExec(t *Topology, sys SystemProfile) *Topology {
	xt, err := BuildExecTopology(t, sys)
	if err != nil {
		panic(err)
	}
	return xt
}

func TestBuildExecTopologyAckerWiring(t *testing.T) {
	topo := wcTopology(10, func() Operator { return ProcessFunc(func(Context, Tuple) {}) })
	xt, err := BuildExecTopology(topo, Storm())
	if err != nil {
		t.Fatal(err)
	}
	acker := xt.Node(AckerName)
	if acker == nil {
		t.Fatal("no acker injected under the Storm profile")
	}
	if len(acker.Subs) != 4 {
		t.Fatalf("acker subscribes to %d nodes, want 4", len(acker.Subs))
	}
	for _, n := range xt.Nodes() {
		if n.System {
			continue
		}
		if _, ok := n.OutStream(AckStream); !ok {
			t.Fatalf("node %q lacks an __ack stream", n.Name)
		}
	}
	// Original topology untouched.
	if _, ok := topo.Node("source").OutStream(AckStream); ok {
		t.Fatal("BuildExecTopology mutated the input topology")
	}
	// Flink profile: no acker.
	xt2, _ := BuildExecTopology(topo, Flink())
	if xt2.Node(AckerName) != nil {
		t.Fatal("acker injected under the Flink profile")
	}
}

func TestAckerXORSemantics(t *testing.T) {
	a := NewAcker()
	emit := func(root, x int64) {
		a.Process(nil, Tuple{Root: root, Edge: x})
	}
	// Root 1: edges 5 and 9 each reported twice -> completes.
	emit(1, 5)
	emit(1, 9^5)
	emit(1, 9)
	if a.Completed() != 1 {
		t.Fatalf("completed = %d, want 1", a.Completed())
	}
	// Root 2: unbalanced -> stays pending.
	emit(2, 7)
	if a.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", a.Pending())
	}
}
