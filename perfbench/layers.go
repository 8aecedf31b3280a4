package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"streamscale/internal/apps"
	"streamscale/internal/bench"
	"streamscale/internal/engine"
	"streamscale/internal/hw"
	"streamscale/internal/jvm"
	"streamscale/internal/metrics"
	"streamscale/internal/ring"
	"streamscale/internal/sim"
)

// perLayer lists the per-layer metrics a traced run reports, in
// BENCHMARK.json order. README.md says which end-to-end metric each should
// move, on which workload.
var perLayer = []struct{ name, unit string }{
	// sim, hw, engine (simulated executor), jvm: spans around bench.Run and
	// Cell.Topology, and the exact counts in engine.Result, per pass.
	{"bench.run_ms", "ms"},
	{"apps.build_ms", "ms"},
	{"engine.invocations", "count"},
	{"engine.tuples", "count"},
	{"engine.edge_msgs", "count"},
	{"engine.edge_mb", "MB"},
	{"hw.charged_gcycles", "Gcycles"},
	{"hw.qpi_mb", "MB"},
	{"engine.sim_ns_per_invocation", "ns"},
	{"hw.host_ns_per_kcycle", "ns"},
	// sim and hw in isolation.
	{"sim.kernel_event_ns", "ns"},
	{"hw.cache_access_ns.hit", "ns"},
	{"hw.cache_access_ns.miss", "ns"},
	{"hw.data_access_ns.local", "ns"},
	{"hw.data_access_ns.remote", "ns"},
	// jvm: the report's GC-study cell, whose young generation fills.
	{"jvm.minor_gcs", "count"},
	// place, place/eval, bench/memo.
	{"bench.probe_ms", "ms"},
	{"place.calibrate_ms", "ms"},
	{"place.bnb_ms", "ms"},
	{"place.joint_ms", "ms"},
	{"bench.estimate_us", "us"},
	{"eval.estimate_us", "us"},
	{"memo.hit_us", "us"},
	{"place.joint_vectors_screened", "count"},
	{"place.joint_vectors_searched", "count"},
	// engine (native runtime) and ring.
	{"engine.native_run_ms", "ms"},
	{"engine.tuples_per_invocation", "count"},
	{"engine.sink_events", "count"},
	{"engine.acked_roots", "count"},
	{"engine.runtime_ratio", "ratio"},
	{"engine.native_kev_per_s", "kev/s"},
	{"engine.native_kev_per_s_1p", "kev/s"},
	{"ring.hop_ns", "ns"},
	{"ring.handoff_ns", "ns"},
	// apps and gen, driven through a stub engine.Context.
	{"gen.source_ns_per_event", "ns"},
	{"apps.ops_ns_per_event", "ns"},
	{"gen.schedule_ratio", "ratio"},
	// os: getrusage over the native passes.
	{"os.vcsw_per_kev", "count"},
	{"os.ivcsw_per_kev", "count"},
	{"os.cpu_ms_per_kev", "ms"},
	// metrics.
	{"metrics.observe_ns", "ns"},
	{"metrics.latency_samples", "count"},
	// go: runtime/metrics over the traced workload's passes.
	{"go.alloc_mb", "MB"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "ratio"},
	// The benchmark itself and the host.
	{"tracing.overhead_ratio", "ratio"},
	{"host.ref_ms", "ms"},
	{"host.unstolen_frac", "ratio"},
}

// probeLayers times single layers through their public functions on
// synthetic inputs. It runs only in traced runs, after the passes.
func probeLayers(o *obs, seed int64, size float64) error {
	rng := rand.New(rand.NewSource(seed))
	o.add("sim.kernel_event_ns", kernelEventNs(rng))
	hit, miss := cacheAccessNs()
	o.add("hw.cache_access_ns.hit", hit)
	o.add("hw.cache_access_ns.miss", miss)
	local, remote := dataAccessNs(rng)
	o.add("hw.data_access_ns.local", local)
	o.add("hw.data_access_ns.remote", remote)
	gcs, err := jvmMinorGCs(seed)
	if err != nil {
		return err
	}
	o.add("jvm.minor_gcs", gcs)
	o.add("ring.hop_ns", ringHopNs())
	o.add("ring.handoff_ns", ringHandoffNs())
	o.add("metrics.observe_ns", observeNs(rng))
	hitUs, err := memoHitUs(seed)
	if err != nil {
		return err
	}
	o.add("memo.hit_us", hitUs)
	src, ops, err := appsNsPerEvent(seed, sized(20000, size))
	if err != nil {
		return err
	}
	o.add("gen.source_ns_per_event", src)
	o.add("apps.ops_ns_per_event", ops)
	for _, p := range []struct {
		name  string
		procs int
	}{{"engine.native_kev_per_s", runtime.NumCPU()}, {"engine.native_kev_per_s_1p", 1}} {
		kev, err := closedLoopKevPerS(seed, size, p.procs)
		if err != nil {
			return err
		}
		o.add(p.name, kev)
	}
	return nil
}

func perOp(d time.Duration, n int) float64 { return float64(d) / float64(n) }

// kernelEventNs is the cost of scheduling and dispatching one event on the
// discrete-event kernel, with a few hundred events pending.
func kernelEventNs(rng *rand.Rand) float64 {
	const batch, rounds = 512, 400
	k := sim.NewKernel()
	fired := 0
	fn := func() { fired++ }
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		now := k.Now()
		for i := 0; i < batch; i++ {
			k.At(now+sim.Cycles(rng.Intn(10000)), fn)
		}
		for k.Step() {
		}
	}
	return perOp(time.Since(t0), batch*rounds)
}

// cacheAccessNs is the cost of one set-associative cache probe that hits
// (a working set well inside the cache) and one that misses (a stream that
// never repeats).
func cacheAccessNs() (hit, miss float64) {
	const n = 1 << 20
	c := hw.NewCache(64, 8)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c.Access(uint64(i & 255))
	}
	hit = perOp(time.Since(t0), n)
	c.Reset()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		c.Access(uint64(1<<20 + i))
	}
	miss = perOp(time.Since(t0), n)
	return hit, miss
}

// dataAccessNs is the cost of Machine.DataAccess from a core of socket 0
// to data homed on socket 0 and on socket 1, over a working set larger
// than the last-level cache so that most accesses reach memory.
func dataAccessNs(rng *rand.Rand) (local, remote float64) {
	const n = 200000
	m := hw.NewMachine(hw.TableIII())
	var out hw.CostVec
	offs := make([]uint64, n)
	for i := range offs {
		offs[i] = uint64(rng.Intn(1<<28)) &^ 63
	}
	time1 := func(socket int) float64 {
		now := sim.Cycles(0)
		t0 := time.Now()
		for _, off := range offs {
			now += m.DataAccess(0, hw.DataAddr(socket, off), 8, now, &out)
		}
		return perOp(time.Since(t0), n)
	}
	return time1(0), time1(1)
}

// jvmMinorGCs simulates the cell of the report's GC study (one socket, G1
// with a 2 MB young generation) and returns its minor collections. The
// default young generation never fills in the benchmark's short cells.
func jvmMinorGCs(seed int64) (float64, error) {
	gc := jvm.G1()
	gc.YoungBytes = 2 << 20
	res, err := bench.Run(bench.Cell{App: "wc", System: "storm", Sockets: 1, GC: gc, Seed: seed})
	if err != nil {
		return 0, err
	}
	if res.MinorGCs == 0 {
		return 0, fmt.Errorf("jvm: the GC-study cell's young generation never filled")
	}
	return float64(res.MinorGCs), nil
}

// ringHopNs is one push and one pop on an SPSC ring within one goroutine.
func ringHopNs() float64 {
	const n = 1 << 21
	r := ring.NewSPSC[int](1024, nil)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.TryPush(i)
		r.TryPop()
	}
	return perOp(time.Since(t0), n)
}

// ringHandoffNs is one item handed from a producer goroutine to a consumer
// goroutine through the blocking Push and Pop, parking included.
func ringHandoffNs() float64 {
	const n = 1 << 20
	r := ring.NewSPSC[int](1024, nil)
	var wg sync.WaitGroup
	wg.Add(1)
	t0 := time.Now()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			r.Pop()
		}
	}()
	for i := 0; i < n; i++ {
		r.Push(i)
	}
	wg.Wait()
	return perOp(time.Since(t0), n)
}

// observeNs is one Histogram.Observe of a latency-like value.
func observeNs(rng *rand.Rand) float64 {
	const n = 1 << 20
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 3
	}
	h := metrics.NewHistogram(0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(vals[i&4095])
	}
	return perOp(time.Since(t0), n)
}

// memoHitUs is one bench.Run of a cell the memo already holds.
func memoHitUs(seed int64) (float64, error) {
	const n = 2000
	c := bench.Cell{App: "wc", System: "storm", Sockets: 1, EventScale: 0.01, Seed: seed}
	if _, err := bench.Run(c); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := bench.Run(c); err != nil {
			return 0, err
		}
	}
	return perOp(time.Since(t0), n) / 1e3, nil
}

// closedLoopKevPerS is the native pipeline with its sources at full
// speed, at the given GOMAXPROCS: the median of three passes, in kev/s.
// Closed-loop throughput on a shared 2-core host swings too far from run
// to run to carry a bound (see README.md), so it is a layer metric.
func closedLoopKevPerS(seed int64, size float64, procs int) (float64, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	n := &native{seed: seed, events: sized(nativeClosedEvents, size), sampleEvery: 8}
	var kev []float64
	for i := 0; i < 3; i++ {
		topo, err := n.topology()
		if err != nil {
			return 0, err
		}
		res, err := engine.RunNative(topo, n.config())
		if err != nil {
			return 0, err
		}
		kev = append(kev, res.Throughput().KPerSecond())
	}
	return median(kev), nil
}

// stubCtx is an engine.Context that only collects emissions, so an app's
// source and operators can be timed without any runtime around them.
type stubCtx struct {
	name string
	rng  *rand.Rand
	out  []engine.Tuple
}

func (c *stubCtx) Emit(v ...engine.Value) { c.EmitTo(engine.DefaultStream, v...) }
func (c *stubCtx) EmitTo(_ string, v ...engine.Value) {
	c.out = append(c.out, engine.Tuple{Values: v})
}
func (c *stubCtx) ExecutorID() int            { return 0 }
func (c *stubCtx) Parallelism() int           { return 1 }
func (c *stubCtx) OperatorName() string       { return c.name }
func (c *stubCtx) Work(int, int)              {}
func (c *stubCtx) AccessState(int)            {}
func (c *stubCtx) ScanState(int)              {}
func (c *stubCtx) ScanScratch(int)            {}
func (c *stubCtx) Rand() *rand.Rand           { return c.rng }
func (c *stubCtx) Input() (op, stream string) { return "", "" }

// appsNsPerEvent drives wc's source and then each operator, one instance
// each, chunk by chunk over every tuple its upstream emitted, and returns
// the source's time and the operators' summed time per source event.
// Chunks keep the tuples in flight few, as the runtime's batches do.
func appsNsPerEvent(seed int64, events int) (src, ops float64, err error) {
	const chunk = 256
	topo, err := apps.Build("wc", apps.Config{Events: events, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	nodes := topo.Nodes()
	ctxs := make([]*stubCtx, len(nodes))
	var source engine.Source
	opsOf := make([]engine.Operator, len(nodes))
	for i, n := range nodes {
		ctxs[i] = &stubCtx{name: n.Name, rng: rand.New(rand.NewSource(seed))}
		if n.IsSource() {
			if i != 0 || source != nil {
				return 0, 0, fmt.Errorf("wc: expected one source, first")
			}
			source = n.NewSource()
			source.Prepare(ctxs[i])
			continue
		}
		opsOf[i] = n.NewOp()
		opsOf[i].Prepare(ctxs[i])
	}
	emitted := map[string][]engine.Tuple{}
	var srcTime, opsTime time.Duration
	for more := true; more; {
		ctxs[0].out = ctxs[0].out[:0]
		t0 := time.Now()
		for i := 0; i < chunk && more; i++ {
			more = source.Next(ctxs[0])
		}
		srcTime += time.Since(t0)
		emitted[nodes[0].Name] = ctxs[0].out
		for i, n := range nodes[1:] {
			ctx, op := ctxs[i+1], opsOf[i+1]
			ctx.out = ctx.out[:0]
			t0 := time.Now()
			for _, sub := range n.Subs {
				for _, t := range emitted[sub.Operator] {
					op.Process(ctx, t)
				}
			}
			opsTime += time.Since(t0)
			emitted[n.Name] = ctx.out
		}
	}
	t0 := time.Now()
	for i, op := range opsOf {
		if f, ok := op.(engine.Flusher); ok {
			f.Flush(ctxs[i])
		}
	}
	opsTime += time.Since(t0)
	return perOp(srcTime, events), perOp(opsTime, events), nil
}

// writeTraces stores the spans of every traced workload in one Chrome
// trace_event file, one process per workload.
func writeTraces(path string, names []string, trs []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var evs []chromeEvent
	for p, t := range trs {
		evs = append(evs, chromeEvent{Name: "process_name", Ph: "M", Pid: p + 1, Tid: 1,
			Args: map[string]any{"name": names[p]}})
		evs = append(evs, t.events(names[p], p+1)...)
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
