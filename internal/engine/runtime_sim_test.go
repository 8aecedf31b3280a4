package engine

import (
	"testing"

	"streamscale/internal/hw"
)

// countingSink tallies tuples; safe in the single-threaded sim runtime.
type countingSink struct {
	counts map[string]int64
	total  *int64
}

func (s *countingSink) Prepare(Context) {}
func (s *countingSink) Process(_ Context, t Tuple) {
	w := t.Values[0].(string)
	n := t.Values[1].(int64)
	if s.counts != nil && n > s.counts[w] {
		s.counts[w] = n
	}
	*s.total++
}

func simWC(t *testing.T, cfg SimConfig, sentences int) (*Result, map[string]int64, int64) {
	t.Helper()
	counts := map[string]int64{}
	var total int64
	topo := wcTopology(sentences, func() Operator { return &countingSink{counts: counts, total: &total} })
	res, err := RunSim(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, counts, total
}

func TestSimWordCountMatchesNative(t *testing.T) {
	res, counts, total := simWC(t, SimConfig{System: Flink(), Seed: 5}, 100)
	if res.SourceEvents != 200 {
		t.Fatalf("source events = %d, want 200", res.SourceEvents)
	}
	if total != 800 {
		t.Fatalf("sink updates = %d, want 800", total)
	}
	if counts["the"] != 200 {
		t.Fatalf(`count["the"] = %d, want 200`, counts["the"])
	}
	if res.ElapsedSeconds <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if res.Profile.Total() == 0 {
		t.Fatal("no cycles charged to the profile")
	}
}

func TestSimStormAckingCompletes(t *testing.T) {
	res, _, _ := simWC(t, SimConfig{System: Storm(), Seed: 5}, 80)
	if res.AckerCompleted != res.SourceEvents {
		t.Fatalf("acker completed %d of %d roots", res.AckerCompleted, res.SourceEvents)
	}
}

func TestSimDeterministicAcrossRuns(t *testing.T) {
	r1, _, _ := simWC(t, SimConfig{System: Storm(), Seed: 9}, 60)
	r2, _, _ := simWC(t, SimConfig{System: Storm(), Seed: 9}, 60)
	if r1.ElapsedSeconds != r2.ElapsedSeconds {
		t.Fatalf("elapsed differs across identical runs: %v vs %v", r1.ElapsedSeconds, r2.ElapsedSeconds)
	}
	if r1.Profile.Total() != r2.Profile.Total() {
		t.Fatalf("profile totals differ: %d vs %d", r1.Profile.Total(), r2.Profile.Total())
	}
}

func TestSimBatchingPreservesCountsAndHelps(t *testing.T) {
	r1, c1, t1 := simWC(t, SimConfig{System: Storm(), Seed: 3}, 150)
	r8, c8, t8 := simWC(t, SimConfig{System: Storm(), Seed: 3, BatchSize: 8}, 150)
	if t1 != t8 {
		t.Fatalf("batched totals differ: %d vs %d", t1, t8)
	}
	for k, v := range c1 {
		if c8[k] != v {
			t.Fatalf("count[%q]: %d vs %d", k, c8[k], v)
		}
	}
	tp1 := r1.Throughput().PerSecond()
	tp8 := r8.Throughput().PerSecond()
	if tp8 <= tp1 {
		t.Fatalf("batching did not help: %.0f -> %.0f events/s", tp1, tp8)
	}
}

func TestSimSingleSocketFasterThanFourForLightApp(t *testing.T) {
	// FD/SD-like light workloads degrade on multiple sockets (Fig 6).
	// The word-count micro-topology is light: one socket should be at
	// least competitive with four.
	r1, _, _ := simWC(t, SimConfig{System: Flink(), Seed: 4, Sockets: 1}, 150)
	r4, _, _ := simWC(t, SimConfig{System: Flink(), Seed: 4, Sockets: 4}, 150)
	if r4.QPIBytes == 0 {
		t.Fatal("four-socket run moved no QPI traffic")
	}
	if r1.QPIBytes != 0 {
		t.Fatalf("single-socket run moved %d QPI bytes", r1.QPIBytes)
	}
	lo, re := r4.Profile.LLCMissShares()
	if re == 0 {
		t.Fatalf("four-socket run shows no remote LLC stalls (local %.3f)", lo)
	}
}

func TestSimPlacementPinsExecutors(t *testing.T) {
	counts := map[string]int64{}
	var total int64
	topo := wcTopology(100, func() Operator { return &countingSink{counts: counts, total: &total} })
	xt, err := BuildExecTopology(topo, Flink())
	if err != nil {
		t.Fatal(err)
	}
	placement := map[int]int{}
	for _, ref := range ExecGraph(xt) {
		placement[ref.Global] = 0 // everything on socket 0
	}
	res, err := RunSim(topo, SimConfig{System: Flink(), Seed: 4, Sockets: 4, Placement: placement})
	if err != nil {
		t.Fatal(err)
	}
	if res.QPIBytes != 0 {
		t.Fatalf("fully co-located placement moved %d QPI bytes", res.QPIBytes)
	}
	for _, e := range res.Executors {
		if e.Socket != 0 {
			t.Fatalf("executor %s[%d] state on socket %d, want 0", e.Op, e.Index, e.Socket)
		}
	}
}

func TestSimPlacementOnDisabledSocketFails(t *testing.T) {
	topo := wcTopology(10, func() Operator { return ProcessFunc(func(Context, Tuple) {}) })
	_, err := RunSim(topo, SimConfig{
		System: Flink(), Seed: 1, Sockets: 1,
		Placement: map[int]int{0: 3},
	})
	if err == nil {
		t.Fatal("placement on a disabled socket did not error")
	}
}

func TestSimProfileHasFrontEndStalls(t *testing.T) {
	res, _, _ := simWC(t, SimConfig{System: Storm(), Seed: 2}, 150)
	bd := res.Profile.Breakdown()
	if bd.FrontEnd <= 0.05 {
		t.Fatalf("front-end share = %.3f, implausibly low for unbatched Storm", bd.FrontEnd)
	}
	if bd.Computation <= 0 {
		t.Fatal("no computation share")
	}
	fe := res.Profile.FrontEnd()
	if fe.L1IMiss == 0 || fe.IDecoding == 0 {
		t.Fatalf("front-end components missing: %+v", fe)
	}
	if res.Profile.Footprint.Count() == 0 {
		t.Fatal("no instruction-footprint samples")
	}
}

func TestSimGCAccountedButSmall(t *testing.T) {
	res, _, _ := simWC(t, SimConfig{System: Flink(), Seed: 2}, 200)
	if res.MinorGCs == 0 {
		t.Skip("run too small to trigger GC at this young-gen size")
	}
	if res.GCShare > 0.15 {
		t.Fatalf("GC share = %.3f, implausibly high", res.GCShare)
	}
}

func TestSimLatencyMeasured(t *testing.T) {
	res, _, _ := simWC(t, SimConfig{System: Flink(), Seed: 2, LatencySampleEvery: 1}, 100)
	if res.Latency.Count() == 0 {
		t.Fatal("no latency samples")
	}
	if res.Latency.Min() < 0 {
		t.Fatal("negative latency")
	}
}

func TestSimCPUAndMemUtilBounded(t *testing.T) {
	res, _, _ := simWC(t, SimConfig{System: Storm(), Seed: 7, Sockets: 1}, 100)
	if res.CPUUtil <= 0 || res.CPUUtil > 1 {
		t.Fatalf("CPU utilization = %v", res.CPUUtil)
	}
	if res.MemUtil < 0 || res.MemUtil > 1 {
		t.Fatalf("memory utilization = %v", res.MemUtil)
	}
}

func TestSimCoreLimitRestricts(t *testing.T) {
	res, _, _ := simWC(t, SimConfig{System: Flink(), Seed: 7, Sockets: 1, Cores: 1}, 400)
	if res.ElapsedSeconds <= 0 {
		t.Fatal("no time elapsed")
	}
	// With 1 core the same work serializes and takes clearly longer than
	// with 8 cores.
	res8, _, _ := simWC(t, SimConfig{System: Flink(), Seed: 7, Sockets: 1}, 400)
	if res.ElapsedSeconds <= res8.ElapsedSeconds*1.5 {
		t.Fatalf("1 core (%.4fs) not clearly slower than 8 cores (%.4fs)",
			res.ElapsedSeconds, res8.ElapsedSeconds)
	}
}

func TestSimFlinkBarriersFlow(t *testing.T) {
	// Force very frequent checkpoints and verify snapshots do not corrupt
	// results or deadlock alignment.
	sys := Flink()
	sys.CheckpointInterval = 3_000_000 // ~1.25 ms: many barriers per run
	res, _, total := simWC(t, SimConfig{System: sys, Seed: 6}, 120)
	if total != 120*2*4 {
		t.Fatalf("sink updates = %d with barriers, want %d", total, 120*2*4)
	}
	if res.SinkEvents != total {
		t.Fatalf("sink events %d != %d", res.SinkEvents, total)
	}
}

func TestSimMachineSpecOverride(t *testing.T) {
	spec := hw.TableIII()
	spec.Sockets = 2
	res, _, _ := simWC(t, SimConfig{System: Flink(), Seed: 1, Spec: spec}, 50)
	if res.SourceEvents != 100 {
		t.Fatalf("source events = %d", res.SourceEvents)
	}
}

// Open-loop source pacing: a throttled run's throughput matches the offered
// rate, and its latency is far below the saturated closed-loop run's.
func TestSimOpenLoopSourceRate(t *testing.T) {
	counts := map[string]int64{}
	var total int64
	mk := func() *Topology {
		return wcTopology(400, func() Operator { return &countingSink{counts: counts, total: &total} })
	}
	closed, err := RunSim(mk(), SimConfig{System: Flink(), Seed: 5, Sockets: 1, LatencySampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	rate := closed.Throughput().PerSecond() / 2 / 2 // half load, per source executor
	open, err := RunSim(mk(), SimConfig{
		System: Flink(), Seed: 5, Sockets: 1, SourceRate: rate, LatencySampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := open.Throughput().PerSecond()
	want := rate * 2 // two source executors
	if got < want*0.8 || got > want*1.2 {
		t.Fatalf("open-loop throughput %.0f, offered %.0f", got, want)
	}
	if open.Latency.Quantile(0.5) >= closed.Latency.Quantile(0.5) {
		t.Fatalf("open-loop p50 %.2f ms not below saturated p50 %.2f ms",
			open.Latency.Quantile(0.5), closed.Latency.Quantile(0.5))
	}
}

// Coordinated-omission correction: an overloaded open-loop run measures
// latency against the *intended* arrival schedule, so a throttled source
// that falls behind cannot forgive its own backpressure stalls. The
// corrected distribution must dominate the CoordinatedOmission ablation
// (latency against actual emission) at every quantile, and the flag must
// be inert on closed-loop runs.
func TestSimCoordinatedOmissionCorrection(t *testing.T) {
	mk := func() *Topology {
		return wcTopology(400, func() Operator { return ProcessFunc(func(Context, Tuple) {}) })
	}
	sat, err := RunSim(mk(), SimConfig{System: Storm(), Seed: 5, Sockets: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Offer 2x the measured capacity per source executor: the intended
	// schedule outruns what the machine can emit, so intended-arrival
	// latency must exceed emission-based latency.
	rate := sat.Throughput().PerSecond()
	base := SimConfig{System: Storm(), Seed: 5, Sockets: 1, SourceRate: rate, LatencySampleEvery: 1}
	corrected, err := RunSim(mk(), base)
	if err != nil {
		t.Fatal(err)
	}
	ablated := base
	ablated.CoordinatedOmission = true
	uncorrected, err := RunSim(mk(), ablated)
	if err != nil {
		t.Fatal(err)
	}
	if corrected.Latency.Count() != uncorrected.Latency.Count() {
		t.Fatalf("sample counts differ: corrected %d uncorrected %d",
			corrected.Latency.Count(), uncorrected.Latency.Count())
	}
	strictly := false
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
		c, u := corrected.Latency.Quantile(q), uncorrected.Latency.Quantile(q)
		if c < u {
			t.Errorf("corrected Quantile(%v) %.6f ms below uncorrected %.6f ms", q, c, u)
		}
		if c > u {
			strictly = true
		}
	}
	if !strictly {
		t.Error("correction had no effect at any quantile on a backpressured run")
	}

	// Closed-loop runs have no intended schedule: the ablation flag must
	// change nothing, quantile for quantile.
	closedOff, err := RunSim(mk(), SimConfig{System: Storm(), Seed: 5, Sockets: 1, LatencySampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	closedOn, err := RunSim(mk(), SimConfig{System: Storm(), Seed: 5, Sockets: 1, LatencySampleEvery: 1,
		CoordinatedOmission: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{0.5, 0.99, 0.9999, 1} {
		if a, b := closedOff.Latency.Quantile(q), closedOn.Latency.Quantile(q); a != b {
			t.Errorf("CoordinatedOmission flag perturbed a closed-loop run: Quantile(%v) %v vs %v", q, a, b)
		}
	}
}

// Per-operator profiles partition the total account.
func TestSimOperatorProfiles(t *testing.T) {
	res, _, _ := simWC(t, SimConfig{System: Storm(), Seed: 2}, 100)
	if len(res.OperatorProfiles) == 0 {
		t.Fatal("no operator profiles")
	}
	var sum int64
	for op, p := range res.OperatorProfiles {
		if p.Total() <= 0 {
			t.Fatalf("operator %s charged no cycles", op)
		}
		sum += int64(p.Total())
	}
	if sum != int64(res.Profile.Total()) {
		t.Fatalf("operator profiles sum to %d, total is %d", sum, res.Profile.Total())
	}
	if _, ok := res.OperatorProfiles[AckerName]; !ok {
		t.Fatal("acker has no profile under the Storm profile")
	}
}

// TestSimPerExecutorAccounts pins the calibration inputs the placement cost
// model (internal/place) reads off a probe run: per-executor cost vectors
// must partition the global profile exactly, and the per-edge traffic
// account must be sorted, self-consistent, and cover all sink arrivals.
func TestSimPerExecutorAccounts(t *testing.T) {
	res, _, _ := simWC(t, SimConfig{System: Storm(), Seed: 5}, 80)

	var sum hw.CostVec
	for i := range res.Executors {
		e := &res.Executors[i]
		sum.AddVec(&e.Costs)
		if e.Tuples > 0 && e.Invocations == 0 {
			t.Errorf("executor %s[%d] processed %d tuples with zero invocations", e.Op, e.Index, e.Tuples)
		}
	}
	for b := hw.Bucket(0); b < hw.NumBuckets; b++ {
		if sum[b] != res.Profile.Costs[b] {
			t.Errorf("bucket %v: executor sum %d != profile %d", b, sum[b], res.Profile.Costs[b])
		}
	}

	if len(res.Edges) == 0 {
		t.Fatal("no edge traffic recorded")
	}
	var tuples int64
	for i, ed := range res.Edges {
		if i > 0 {
			prev := res.Edges[i-1]
			if ed.From < prev.From || (ed.From == prev.From && ed.To <= prev.To) {
				t.Errorf("edges not strictly sorted at %d: %+v after %+v", i, ed, prev)
			}
		}
		if ed.Msgs <= 0 || ed.Tuples < 0 || ed.Bytes < 0 {
			t.Errorf("implausible edge stat %+v", ed)
		}
		if ed.From == ed.To {
			t.Errorf("self-edge recorded: %+v", ed)
		}
		tuples += ed.Tuples
	}
	// Every tuple any executor consumed arrived over some recorded edge.
	var consumed int64
	for _, e := range res.Executors {
		if e.Op != res.Executors[0].Op { // skip sources (index 0 is the source op)
			consumed += e.Tuples
		}
	}
	if tuples < consumed {
		t.Errorf("edge tuples %d < consumed tuples %d", tuples, consumed)
	}
}

// TestSimExecutorProfileView checks the per-executor Profile view renders
// the same breakdown the global profile would for the same vector.
func TestSimExecutorProfileView(t *testing.T) {
	res, _, _ := simWC(t, SimConfig{System: Flink(), Seed: 7}, 40)
	for i := range res.Executors {
		e := &res.Executors[i]
		if e.Costs.Total() == 0 {
			continue
		}
		p := e.Profile()
		if p.Total() != e.Costs.Total() {
			t.Fatalf("executor %s[%d]: profile total %d != costs total %d",
				e.Op, e.Index, p.Total(), e.Costs.Total())
		}
	}
}

// TestSimRecyclesEverySlab is the simulator's twin of
// TestNativeConnsRecycleEverySlab. A wc/storm run at S=8 with 16-message
// queues must end with every batch slab it allocated back on the run's
// free list, cleared, in no more chunks than they fill, and with every
// queue chunk back in the run's pool. The slabs it allocates are bounded
// by the messages in flight, which the queues bound, and not by the
// messages delivered: sixteen times the events deliver sixteen times the
// messages from a quarter more slabs at most.
func TestSimRecyclesEverySlab(t *testing.T) {
	run := func(sentences int) (made int, msgs int64) {
		topo := wcTopology(sentences, func() Operator { return ProcessFunc(func(Context, Tuple) {}) })
		sys := Storm()
		sys.QueueCap = 16
		cfg := SimConfig{System: sys, BatchSize: 8, Seed: 7}.Resolve()
		xt, err := BuildExecTopology(topo, cfg.System)
		if err != nil {
			t.Fatal(err)
		}
		rt := &simRuntime{cfg: cfg, topo: xt, machine: hw.AcquireMachine(cfg.Spec, len(cfg.EnabledCores()))}
		defer hw.ReleaseMachine(rt.machine)
		if err := rt.build(); err != nil {
			t.Fatal(err)
		}
		res, err := rt.run(topo.Name)
		if err != nil {
			t.Fatal(err)
		}
		slabs := freeSlabs(t, &rt.slabs)
		if len(slabs) != rt.slabsMade {
			t.Errorf("%d sentences: %d of %d slabs came back to the free list", sentences, len(slabs), rt.slabsMade)
		}
		if want := (len(slabs) + chunkLen - 1) / chunkLen; rt.slabs.pool.held != want {
			t.Errorf("%d sentences: the free list holds %d slabs in %d chunks, want %d", sentences, len(slabs), rt.slabs.pool.held, want)
		}
		if rt.msgChunks.held != 0 {
			t.Errorf("%d sentences: the drained queues still hold %d chunks", sentences, rt.msgChunks.held)
		}
		for _, s := range slabs {
			for _, tp := range s[:cap(s)] {
				if len(s) != 0 || tp.Values != nil || tp.Root != 0 || tp.Born != 0 {
					t.Fatalf("%d sentences: a slab came back holding %d tuples or an uncleared one", sentences, len(s))
				}
			}
		}
		queues := 0
		for _, d := range rt.drivers {
			if d.in != nil {
				queues++
			}
		}
		if inFlight := 2 * queues * cfg.System.QueueCap; rt.slabsMade > inFlight {
			t.Errorf("%d sentences: %d slabs, above twice the %d queue slots", sentences, rt.slabsMade, inFlight/2)
		}
		for _, e := range res.Edges {
			msgs += e.Msgs
		}
		return rt.slabsMade, msgs
	}
	made, msgs := run(1000)
	made16, msgs16 := run(16000)
	t.Logf("%d slabs for %d messages; %d slabs for %d messages", made, msgs, made16, msgs16)
	if made == 0 || msgs16 < 15*msgs || 4*made16 > 5*made {
		t.Fatalf("%d slabs for %d messages grew to %d slabs for %d", made, msgs, made16, msgs16)
	}
}

// TestSlabStackIsLIFO pushes slabs onto a slab free list and pops half of
// them back, in rounds that cross chunk boundaries both ways and end
// drained: each pop must return the most recently pushed slab, the list
// must make no more chunks than its deepest point fills, and once drained
// it must hold no chunk and keep no slab in a spare one.
func TestSlabStackIsLIFO(t *testing.T) {
	var st slabStack
	var want [][]Tuple
	deepest := 0
	for _, run := range []int{1, chunkLen - 1, chunkLen + 1, 3, 2*chunkLen + 5, 0} {
		for len(want) < run {
			b := make([]Tuple, 0, len(want)+1)
			st.push(b)
			want = append(want, b)
			deepest = max(deepest, len(want))
		}
		for len(want) > run/2 {
			b := want[len(want)-1]
			want = want[:len(want)-1]
			if got := st.pop(); cap(got) != cap(b) {
				t.Fatalf("pop returned a slab of capacity %d, want the last pushed one, of %d", cap(got), cap(b))
			}
		}
		if got := freeSlabs(t, &st); len(got) != len(want) {
			t.Fatalf("the list holds %d slabs, want %d", len(got), len(want))
		}
	}
	made := st.pool.held
	for c := st.pool.free; c != nil; c = c.next {
		made++
		for _, s := range c.items {
			if s != nil {
				t.Fatal("a spare chunk still holds a slab")
			}
		}
	}
	if st.top != nil || st.pool.held != 0 || made > (deepest+chunkLen-1)/chunkLen {
		t.Fatalf("drained: top %p, %d chunks held, %d made for at most %d slabs", st.top, st.pool.held, made, deepest)
	}
}

// freeSlabs lists the slabs on a slab free list, top down, and fails t
// unless the top chunk's popped slots were cleared.
func freeSlabs(t *testing.T, st *slabStack) [][]Tuple {
	t.Helper()
	if st.top == nil {
		return nil
	}
	for _, s := range st.top.items[st.n:] {
		if s != nil {
			t.Fatal("a popped slot of the slab free list still holds its slab")
		}
	}
	var out [][]Tuple
	for c, n := st.top, st.n; c != nil; c, n = c.next, chunkLen {
		out = append(out, c.items[:n]...)
	}
	return out
}
