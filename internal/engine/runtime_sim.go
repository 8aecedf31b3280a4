package engine

import (
	"fmt"
	"time"

	"streamscale/internal/hw"
	"streamscale/internal/jvm"
	"streamscale/internal/profiler"
	"streamscale/internal/sim"
	"streamscale/internal/trace"
)

// SimConfig configures a run on the simulated multi-socket machine.
type SimConfig struct {
	// System selects the engine profile (Storm or Flink).
	System SystemProfile
	// BatchSize is the source batch size S (§VI-A); 1 or 0 disables
	// batching.
	BatchSize int

	// Spec is the machine; zero value selects the paper's Table III server.
	Spec hw.MachineSpec
	// Sockets enables the first n sockets (0 = all). Cores, if nonzero,
	// further restricts to the first Cores cores — the paper's 1..8-core
	// sweep within one socket.
	Sockets int
	Cores   int

	// Placement maps executor global index -> socket. Executors absent
	// from the map (or all, when nil) float across all enabled cores, as
	// threads do without a NUMA-aware scheduler.
	Placement map[int]int

	// GC selects the collector model; zero value selects G1 with a young
	// generation scaled for simulation-length runs.
	GC jvm.Config

	// FailAfter injects executor failures: executor global index -> number
	// of input tuples after which the executor turns into a zombie that
	// drains its queue but neither processes, emits, nor acks. Storm's XOR
	// accounting then reports the lost tuple trees as incomplete
	// (AckerCompleted < SourceEvents) — the signal its replay logic keys
	// on.
	FailAfter map[int]int64

	// SourceRate throttles each source executor to the given event rate
	// (events per simulated second). Zero runs sources closed-loop at full
	// speed, as the paper's throughput experiments do; a nonzero rate
	// yields open-loop latency measurements at a fixed offered load.
	SourceRate float64

	// CoordinatedOmission re-enables the coordinated-omission bug for
	// ablation studies: open-loop sources stamp tuples with the *actual*
	// emission instant instead of the scheduled one, so queueing delay at
	// the throttled source (i.e. backpressure) is silently forgiven.
	// Leave false for honest open-loop latency. Ignored when SourceRate
	// is 0 — closed-loop runs have no arrival schedule to correct against.
	CoordinatedOmission bool

	// Seed drives all randomness.
	Seed int64
	// QueueCap overrides the profile's queue capacity.
	QueueCap int
	// LatencySampleEvery samples end-to-end latency every n-th sink tuple.
	LatencySampleEvery int
	// TimeLimit aborts the simulation after this many cycles (safety
	// net; 0 = one simulated hour).
	TimeLimit sim.Cycles

	// Trace, if non-nil, records a cycle-exact trace of the run (sampled
	// tuple span chains, scheduler timelines, queue depths, folded stall
	// stacks). All hooks are nil-guarded: a nil Trace costs nothing on the
	// simulation hot paths.
	Trace *trace.Tracer
}

func (c *SimConfig) fill() {
	if c.Spec.Sockets == 0 {
		c.Spec = hw.TableIII()
	}
	if c.Sockets <= 0 || c.Sockets > c.Spec.Sockets {
		c.Sockets = c.Spec.Sockets
	}
	fillRun(&c.System, &c.BatchSize, &c.QueueCap, &c.LatencySampleEvery)
	if c.GC.YoungBytes == 0 {
		c.GC = jvm.G1()
	}
	if c.GC.YoungBytes >= 64<<20 {
		// Simulation runs process orders of magnitude fewer events than
		// the hour-long hardware runs; scale the young generation down so
		// collections actually occur and the allocation-to-collection
		// ratio (hence the GC overhead share) matches production behaviour.
		c.GC.YoungBytes = 2 << 20
	}
	if c.TimeLimit <= 0 {
		c.TimeLimit = sim.Cycles(c.Spec.ClockHz) * 3600
	}
}

// EnabledCores returns the core IDs the configuration enables.
func (c *SimConfig) EnabledCores() []int {
	n := c.Sockets * c.Spec.CoresPerSocket
	if c.Cores > 0 && c.Cores < n {
		n = c.Cores
	}
	cores := make([]int, n)
	for i := range cores {
		cores[i] = i
	}
	return cores
}

// EnabledSockets returns the socket IDs covered by the enabled cores.
func (c *SimConfig) EnabledSockets() []int {
	cores := c.EnabledCores()
	last := cores[len(cores)-1] / c.Spec.CoresPerSocket
	s := make([]int, last+1)
	for i := range s {
		s[i] = i
	}
	return s
}

// codeRegion is a materialized chunk of simulated code.
type codeRegion struct {
	id    uint32
	base  uint64
	bytes int
}

// simRuntime holds the state of one simulated run.
type simRuntime struct {
	cfg  SimConfig
	topo *Topology

	kernel  *sim.Kernel
	sched   *sim.Scheduler
	machine *hw.Machine
	heap    *jvm.Heap
	meta    *jvm.Metaspace
	profile *profiler.Profile

	execs       []*executor
	drivers     []*simDriver
	sharedState map[string]uint64 // operator -> shared state base address

	hotRegions  []*codeRegion
	coldRegions []*codeRegion
	coldEvery   []int
	userRegions map[string]*codeRegion
	codeCursor  uint64
	regionCount uint32

	frameworkClasses []uint64

	rootCtr      int64 // one root counter shared by every source
	enabledCores []int

	// edgeTraffic accumulates delivered traffic per (producer, consumer)
	// executor pair, at from*len(execs)+to.
	edgeTraffic []*EdgeStat

	// tr mirrors cfg.Trace for the executors' nil-guarded trace hooks.
	tr *trace.Tracer
}

// noteDelivery records one successfully enqueued message on the edge
// (from, to), with its data-tuple count and payload bytes.
func (rt *simRuntime) noteDelivery(from, to, tuples, bytes int) {
	es := rt.edgeTraffic[from*len(rt.execs)+to]
	if es == nil {
		es = &EdgeStat{From: from, To: to}
		rt.edgeTraffic[from*len(rt.execs)+to] = es
	}
	es.Msgs++
	es.Tuples += int64(tuples)
	es.Bytes += int64(bytes)
}

// RunSim executes the topology on the simulated machine and returns both
// performance results and the full processor-time profile.
//
// The time.Now pair below measures real wall time spent simulating (for
// Result.WallSeconds, a harness-side metric); simulated time comes only
// from the kernel clock.
//
//dsplint:wallclock
func RunSim(t *Topology, cfg SimConfig) (*Result, error) {
	start := time.Now()
	cfg.fill()
	xt, err := BuildExecTopology(t, cfg.System)
	if err != nil {
		return nil, err
	}
	rt := &simRuntime{cfg: cfg, topo: xt, machine: hw.AcquireMachine(cfg.Spec)}
	defer hw.ReleaseMachine(rt.machine)
	if err := rt.build(); err != nil {
		return nil, err
	}
	res, err := rt.run(t.Name)
	if err != nil {
		return nil, err
	}
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

func (rt *simRuntime) newRegion(bytes int) *codeRegion {
	r := &codeRegion{id: rt.regionCount, base: hw.CodeBase + rt.codeCursor, bytes: bytes}
	rt.regionCount++
	// Pad between regions so they never share an instruction block.
	rt.codeCursor += uint64(bytes) + 4096
	return r
}

func (rt *simRuntime) build() error {
	cfg := &rt.cfg
	rt.kernel = sim.NewKernel()
	rt.sched = sim.NewScheduler(rt.kernel, cfg.Spec.TotalCores(), cfg.Spec.CoresPerSocket,
		sim.DefaultSchedulerConfig())
	rt.heap = jvm.NewHeap(cfg.Spec.Sockets, cfg.GC)
	rt.meta = jvm.NewMetaspace(4096)
	rt.profile = profiler.New()
	rt.sharedState = make(map[string]uint64)
	rt.userRegions = make(map[string]*codeRegion)
	rt.enabledCores = cfg.EnabledCores()

	for _, r := range cfg.System.HotRegions {
		rt.hotRegions = append(rt.hotRegions, rt.newRegion(r.Bytes))
	}
	for _, r := range cfg.System.ColdRegions {
		rt.coldRegions = append(rt.coldRegions, rt.newRegion(r.Bytes))
		rt.coldEvery = append(rt.coldEvery, r.Every)
	}
	for _, cls := range []string{"Tuple", "Fields", "Collector"} {
		rt.frameworkClasses = append(rt.frameworkClasses, rt.meta.ClassID(cls))
	}
	for _, n := range rt.topo.Nodes() {
		rt.userRegions[n.Name] = rt.newRegion(n.Profile.CodeBytes)
	}

	rt.execs = newExecutors(rt.topo, &execConfig{
		seed: cfg.Seed, batch: cfg.BatchSize, ack: cfg.System.AckEnabled,
		rate: cfg.SourceRate, co: cfg.CoordinatedOmission,
		sampleEvery: cfg.LatencySampleEvery, hz: cfg.Spec.ClockHz,
		barrierIv: int64(cfg.System.CheckpointInterval), failAfter: cfg.FailAfter,
	}, &rt.rootCtr)
	rt.edgeTraffic = make([]*EdgeStat, len(rt.execs)*len(rt.execs))
	sockets := cfg.EnabledSockets()
	for _, e := range rt.execs {
		d := &simDriver{rt: rt, ex: e, stateSocket: -1}
		e.port, e.cost = d, d
		// Input queue ring memory lives on the executor's socket if
		// placed, else on a deterministic enabled socket.
		qSocket := sockets[e.global%len(sockets)]
		if s, ok := cfg.Placement[e.global]; ok {
			qSocket = s
		}
		if e.src == nil {
			base := rt.heap.AllocTenured(qSocket, cfg.QueueCap*32)
			d.in = newSimQueue(cfg.QueueCap, base, rt.sched)
		}
		rt.drivers = append(rt.drivers, d)
	}
	// Spawn threads.
	for _, d := range rt.drivers {
		affinity := rt.enabledCores
		if s, ok := cfg.Placement[d.ex.global]; ok {
			// The enabled cores are a prefix of the core IDs.
			affinity = nil
			for _, c := range rt.sched.CoresOnSockets([]int{s}) {
				if c < len(rt.enabledCores) {
					affinity = append(affinity, c)
				}
			}
			if len(affinity) == 0 {
				return fmt.Errorf("engine: executor %d placed on disabled socket %d", d.ex.global, s)
			}
		}
		name := fmt.Sprintf("%s[%d]", d.ex.node.Name, d.ex.index)
		d.thread = rt.sched.Spawn(name, d, affinity)
		d.thread.OnCoreChange = func(prev, next int) { d.curCore = next }
	}
	if tr := cfg.Trace; tr != nil {
		rt.tr = tr
		// Thread IDs are assigned in spawn order, which matches executor
		// global indices — span events and timeline tracks share tids.
		for _, d := range rt.drivers {
			tr.NameThread(d.thread.ID, d.thread.Name)
		}
		rt.sched.OnSlice = func(t *sim.Thread, core int, start, dur sim.Cycles, d sim.Disposition) {
			tr.Slice(t.ID, t.Name, core, start, dur, d.String())
		}
		rt.armQueueSampler()
	}
	return nil
}

// armQueueSampler installs the queue-depth sampler as the kernel's
// after-event observer: at the first event boundary past each cadence
// interval it snapshots every input queue's depth. Observing at event
// boundaries (rather than via self-rescheduled events) keeps the tracer a
// pure observer — no extra heap events, so the kernel's seq ordering and
// final clock are byte-for-byte those of an untraced run.
func (rt *simRuntime) armQueueSampler() {
	cadence := rt.tr.QueueCadence()
	if cadence <= 0 {
		return
	}
	next := cadence
	rt.kernel.AfterEvent = func() {
		now := rt.kernel.Now()
		if now < next {
			return
		}
		for _, d := range rt.drivers {
			if d.in != nil {
				rt.tr.QueueDepth(d.ex.global, d.thread.Name, now, d.in.size())
			}
		}
		next = now + cadence
	}
}

func (rt *simRuntime) run(app string) (*Result, error) {
	if rt.tr != nil {
		rt.tr.Begin(app, rt.cfg.System.Name, rt.cfg.Spec.ClockHz)
	}
	events := rt.kernel.Run(rt.cfg.TimeLimit)
	if live := rt.sched.Live(); live > 0 {
		return nil, fmt.Errorf("engine: simulation stalled with %d live executors at %d cycles (deadlock or time limit)",
			live, rt.kernel.Now())
	}
	elapsed := rt.kernel.Now()
	clock := rt.cfg.Spec.ClockHz

	res := &Result{
		App:            app,
		System:         rt.cfg.System.Name,
		ElapsedSeconds: elapsed.Seconds(clock),
		Profile:        rt.profile,
		ChargedCycles:  rt.machine.ChargedCycles(),
		CPUUtil:        rt.sched.Utilization(rt.enabledCores),
		MemUtil:        rt.machine.DRAMUtilization(rt.cfg.EnabledSockets(), elapsed),
		QPIBytes:       rt.machine.QPIBytes(),
		MinorGCs:       rt.heap.MinorGCs(),
		Events:         int64(events),
		Ops:            rt.machine.Ops(),
	}
	summarize(res, rt.execs)
	res.OperatorProfiles = map[string]*profiler.Profile{}
	for i, d := range rt.drivers {
		rt.profile.Add(&d.costs)
		opProf := res.OperatorProfiles[d.ex.node.Name]
		if opProf == nil {
			opProf = profiler.New()
			res.OperatorProfiles[d.ex.node.Name] = opProf
		}
		opProf.Add(&d.costs)
		stat := &res.Executors[i]
		stat.Socket = d.stateSocket
		stat.Costs.AddVec(&d.costs)
		if n := d.ex.tuples; n > 0 {
			// "Process latency" per event, as Fig 10 reports it: the wall
			// time each event occupies at this executor, including the
			// waits imposed by time-sharing cores with other executors and
			// by remote memory stalls.
			span := d.lastTuple - d.firstTuple
			if span < d.procCycles {
				span = d.procCycles
			}
			stat.MeanTupleMs = sim.Cycles(int64(span) / n).Millis(clock)
		}
	}
	rt.profile.GCCycles = rt.heap.GCCycles()
	res.GCShare = rt.profile.GCShare()
	for _, es := range rt.edgeTraffic {
		if es != nil {
			res.Edges = append(res.Edges, *es)
		}
	}
	if rt.tr != nil {
		// Fold the executors' Table II charges per operator, in topology
		// node order (deterministic). The totals reconcile exactly against
		// the machine ledger: every charge path adds to both an executor's
		// CostVec and Machine.charged, and GC pauses are in neither.
		ops := make([]trace.OpCost, 0, len(rt.topo.Nodes()))
		for _, n := range rt.topo.Nodes() {
			ops = append(ops, trace.OpCost{Op: n.Name, Costs: res.OperatorProfiles[n.Name].Costs})
		}
		rt.tr.Finish(res.ChargedCycles, ops)
	}
	return res, nil
}

// simDriver runs one executor as a thread of the simulated machine. It
// implements sim.Runner, the executor's transport (bounded simulated
// queues that block through the scheduler) and its cost hook: all work
// done during a step is charged to the machine in cycles.
type simDriver struct {
	rt *simRuntime
	ex *executor

	in      *simQueue
	thread  *sim.Thread
	curCore int

	// costs accumulates this executor's Table II charges for the run.
	costs    hw.CostVec
	consumed sim.Cycles // cycles consumed in the current step
	stepAt   sim.Cycles // kernel time at step start

	stateBase   uint64
	stateSocket int
	scratchBase uint64
	scratchSize int
	classAddr   uint64
	prepared    bool
	srcDone     bool
	finishing   bool // end of stream staged, waiting for queue space

	pending []delivery

	procCycles sim.Cycles
	firstTuple sim.Cycles // wall span of the executor's active period
	lastTuple  sim.Cycles
}

// delivery is one routed message awaiting space in a consumer queue.
type delivery struct {
	to  int // consumer executor global index
	msg Msg
}

// nowCycles returns the current simulated instant within this step.
func (d *simDriver) nowCycles() sim.Cycles { return d.stepAt + d.consumed }

// The transport: time is the step's cycle count, batches start empty, and
// sends are staged for flushPending to push once the invocation's work is
// charged.
//
//dsp:hotpath
func (d *simDriver) now() int64 { return int64(d.nowCycles()) }

//dsp:hotpath
func (d *simDriver) stamp() int64 { return int64(d.nowCycles()) }

//dsp:hotpath
func (d *simDriver) slab(int) []Tuple { return nil }

//dsp:hotpath
func (d *simDriver) send(to int, m Msg) {
	d.pending = append(d.pending, delivery{to: to, msg: m})
}

// Step implements sim.Runner.
func (d *simDriver) Step(quantum sim.Cycles) (sim.Cycles, sim.Disposition) {
	d.consumed = 0
	d.stepAt = d.rt.kernel.Now()
	if !d.prepared {
		d.prepare()
	}
	if !d.flushPending() {
		return d.consumed, sim.Blocked
	}
	if d.finishing {
		return max(d.consumed, 1), sim.Done
	}
	ex := d.ex
	for d.consumed < quantum {
		if ex.src != nil {
			if d.srcDone {
				return d.beginFinish()
			}
			if at := sim.Cycles(ex.nextEmit); ex.cfg.rate > 0 && d.nowCycles() < at {
				// Open-loop pacing: sleep until the next arrival instant.
				th := d.thread
				d.rt.kernel.At(at, func() { d.rt.sched.Wake(th) })
				return d.consumed, sim.Blocked
			}
			if !ex.sourceStep(int64(d.stepAt)) {
				d.srcDone = true
			}
		} else {
			msg, slot, ok := d.in.tryPop()
			if !ok {
				if ex.drained() {
					return d.beginFinish()
				}
				d.in.awaitData(d.thread)
				return d.consumed, sim.Blocked
			}
			d.access(d.in.slotAddr(slot), d.in.slotBytes)
			first, start := ex.tuples == 0, d.consumed
			if ex.handle(msg) {
				if first {
					d.firstTuple = d.stepAt + start
				}
				d.procCycles += d.consumed - start
				d.lastTuple = d.nowCycles()
			}
		}
		if !d.flushPending() {
			return d.consumed, sim.Blocked
		}
	}
	return d.consumed, sim.Yield
}

func (d *simDriver) prepare() {
	d.prepared = true
	n := d.ex.node
	d.classAddr = d.rt.meta.ClassID(n.Name)
	// First-touch allocation of executor-private state on the socket the
	// thread happens to start on — exactly how an unaware JVM behaves.
	// Shared state is allocated once for the whole operator by whichever
	// executor prepares first.
	d.stateSocket = d.rt.machine.SocketOfCore(d.curCore)
	if p := &n.Profile; p.StateBytes > 0 {
		base, shared := d.rt.sharedState[n.Name]
		if !shared {
			base = d.allocRaw(p.StateBytes)
			if p.SharedState {
				d.rt.sharedState[n.Name] = base
			}
		}
		d.stateBase = base
	}
	d.ex.prepare(0)
}

// allocRaw allocates long-lived (tenured) memory on the executor's current
// socket — operator state maps, windows, and similar structures that
// survive across tuples.
func (d *simDriver) allocRaw(size int) uint64 {
	return d.rt.heap.AllocTenured(d.rt.machine.SocketOfCore(d.curCore), size)
}

// alloc allocates tuple/garbage memory, charging any GC pause triggered.
func (d *simDriver) alloc(size int) uint64 {
	addr, pause := d.rt.heap.Alloc(d.rt.machine.SocketOfCore(d.curCore), size)
	if pause > 0 {
		d.consumed += pause
	}
	return addr
}

func (d *simDriver) access(addr uint64, size int) {
	d.consumed += d.rt.machine.DataAccess(d.curCore, addr, size, d.nowCycles(), &d.costs)
}

func (d *simDriver) write(addr uint64, size int) {
	d.consumed += d.rt.machine.DataWrite(d.curCore, addr, size, d.nowCycles(), &d.costs)
}

func (d *simDriver) fetchRegion(r *codeRegion) {
	// Invocations take data-dependent paths: each executes a variable
	// extent of the region's code.
	bytes := r.bytes
	if bytes > 2048 {
		bytes = int(float64(bytes) * (0.55 + 0.45*d.ex.rng.Float64()))
	}
	fp := d.rt.machine.NoteInvocation(d.curCore, r.id, bytes)
	d.rt.profile.NoteFootprint(fp)
	d.consumed += d.rt.machine.FetchCode(d.curCore, r.base, bytes, d.nowCycles(), &d.costs)
}

//dsp:hotpath
func (d *simDriver) work(uops, branches int) {
	mis := 0
	if rate := d.rt.cfg.System.MispredictRate; branches > 0 && rate > 0 {
		exp := float64(branches) * rate
		mis = int(exp)
		if d.ex.rng.Float64() < exp-float64(mis) {
			mis++
		}
	}
	d.consumed += d.rt.machine.Compute(uops, mis, &d.costs)
}

// invoke charges one invocation's dispatch. A traced input batch also
// records its queue waits and the dispatch span.
//
//dsp:hotpath
func (d *simDriver) invoke(m Msg) {
	tr := d.rt.tr
	sampled := false
	if tr != nil {
		for i := range m.Batch {
			if root := m.Batch[i].Root; tr.Sampled(root) {
				sampled = true
				if m.EnqueuedAt > 0 {
					tr.QueueWait(d.ex.global, m.FromOp, d.ex.node.Name,
						root, sim.Cycles(m.EnqueuedAt), d.nowCycles())
				}
			}
		}
	}
	if sampled {
		start, pre := d.nowCycles(), d.costs
		d.dispatch()
		tr.Invoke(d.ex.global, d.ex.node.Name, start, d.nowCycles()-start, pre, d.costs)
		return
	}
	d.dispatch()
}

// dispatch models one executor invocation's framework work: the platform
// hot path plus the operator's own code are fetched through the
// instruction hierarchy, and dispatch computation is charged.
func (d *simDriver) dispatch() {
	hot := d.rt.hotRegions
	uops := d.rt.cfg.System.UopsPerInvoke
	if d.ex.node.System {
		// System operators (the acker) run a lean dispatch path: Storm's
		// acker is a minimal system bolt, not a full user executor.
		if len(hot) > 2 {
			hot = hot[:2]
		}
		uops /= 2
	}
	for _, r := range hot {
		d.fetchRegion(r)
	}
	d.fetchRegion(d.rt.userRegions[d.ex.node.Name])
	d.work(uops, 4)
	for i, r := range d.rt.coldRegions {
		if every := d.rt.coldEvery[i]; every > 0 && d.ex.invocations%int64(every) == 0 {
			d.fetchRegion(r)
		}
	}
}

// process charges t's per-tuple overhead, then processes it; a traced
// tuple gets an execute span around both.
//
//dsp:hotpath
func (d *simDriver) process(t *Tuple) {
	if tr := d.rt.tr; tr != nil && tr.Sampled(t.Root) {
		start, pre := d.nowCycles(), d.costs
		d.chargeTuple(t)
		if d.ex.sink {
			e2e := d.nowCycles() - sim.Cycles(t.Born)
			if e2e < 0 {
				e2e = 0
			}
			tr.Sink(d.ex.global, d.ex.node.Name, t.Root, d.nowCycles(), e2e)
		}
		d.ex.processTuple(t)
		tr.Execute(d.ex.global, d.ex.node.Name, t.Root, start, d.nowCycles()-start, pre, d.costs)
		return
	}
	d.chargeTuple(t)
	d.ex.processTuple(t)
}

// chargeTuple models per-tuple framework and profile costs: the
// pass-by-reference payload dereference (possibly remote), invokevirtual
// metadata lookups, private state accesses, and computation.
func (d *simDriver) chargeTuple(t *Tuple) {
	sys := &d.rt.cfg.System
	p := &d.ex.node.Profile
	if t.Addr != 0 {
		d.access(t.Addr, int(t.Size))
	}
	for i := 0; i < sys.MetadataAccessesPerTuple; i++ {
		base := d.classAddr
		if i > 0 {
			base = d.rt.frameworkClasses[(i-1)%len(d.rt.frameworkClasses)]
		}
		d.access(base+uint64(d.ex.rng.Intn(512))*8, 8)
	}
	for i := 0; i < p.StateAccessesPerTuple && p.StateBytes > 0; i++ {
		d.access(d.stateBase+uint64(d.ex.rng.Intn(p.StateBytes/8))*8, 8)
	}
	d.work(p.UopsPerTuple+sys.UopsPerTuple, p.BranchesPerTuple+sys.BranchesPerTuple)
	if p.ExtraAllocPerTuple > 0 {
		addr := d.alloc(p.ExtraAllocPerTuple)
		d.write(addr, min(p.ExtraAllocPerTuple, 64))
	}
}

// emit writes an output tuple to the producer's local memory (Fig 3 step
// 1) and charges its emission.
//
//dsp:hotpath
func (d *simDriver) emit(t *Tuple, ack bool) {
	if tr := d.rt.tr; tr != nil && !ack && d.ex.src != nil {
		tr.SpoutEmit(t.Root)
	}
	t.Addr = d.alloc(int(t.Size))
	d.write(t.Addr, int(t.Size))
	if ack {
		d.work(d.ex.node.Profile.UopsPerEmit+120, 2)
	} else {
		d.work(d.ex.node.Profile.UopsPerEmit, 3)
	}
	t.EmitAt = int64(d.nowCycles())
}

// barrier charges an aligned barrier's state snapshot and traces the
// barrier.
//
//dsp:hotpath
func (d *simDriver) barrier(id int64, aligned bool) {
	if aligned {
		p := &d.ex.node.Profile
		d.work(int(d.rt.cfg.System.SnapshotUopsPerStateByte*float64(p.StateBytes)), 8)
		// Sweep a quarter of the state working set (dirty regions).
		for off := 0; off < p.StateBytes/4; off += 256 {
			d.access(d.stateBase+uint64(off), 8)
		}
	}
	if tr := d.rt.tr; tr != nil {
		tr.Barrier(d.ex.global, d.ex.node.Name, id, d.nowCycles())
	}
}

//dsp:hotpath
func (d *simDriver) accessState(bytes int) {
	p := &d.ex.node.Profile
	if p.StateBytes <= 0 || bytes <= 0 {
		return
	}
	lines := (bytes + 63) / 64
	for i := 0; i < lines; i++ {
		d.access(d.stateBase+uint64(d.ex.rng.Intn(p.StateBytes/8))*8, 8)
	}
}

//dsp:hotpath
func (d *simDriver) scanState(bytes int) {
	max := d.ex.node.Profile.StateBytes
	if max <= 0 || bytes <= 0 {
		return
	}
	if bytes > max {
		bytes = max
	}
	d.consumed += d.rt.machine.StreamAccess(d.curCore, d.stateBase, bytes, d.nowCycles(), &d.costs)
}

//dsp:hotpath
func (d *simDriver) scanScratch(bytes int) {
	if bytes <= 0 {
		return
	}
	if bytes > d.scratchSize {
		d.scratchBase = d.allocRaw(bytes)
		d.scratchSize = bytes
	}
	d.consumed += d.rt.machine.StreamAccess(d.curCore, d.scratchBase, bytes, d.nowCycles(), &d.costs)
}

// flushPending pushes staged deliveries; false means blocked on a full
// consumer queue, with the rest kept for the next step.
func (d *simDriver) flushPending() bool {
	sys := &d.rt.cfg.System
	for i := range d.pending {
		p := &d.pending[i]
		q := d.rt.drivers[p.to].in
		p.msg.EnqueuedAt = int64(d.nowCycles())
		slot, ok := q.tryPush(p.msg)
		if !ok {
			q.awaitSpace(d.thread)
			n := copy(d.pending, d.pending[i:])
			clear(d.pending[n:])
			d.pending = d.pending[:n]
			return false
		}
		d.write(q.slotAddr(slot), q.slotBytes)
		// Per-delivery framework cost: buffer claim/publish plus the
		// per-byte (de)serialization of the batch's payload.
		bytes := 0
		for i := range p.msg.Batch {
			bytes += int(p.msg.Batch[i].Size)
		}
		d.work(sys.DeliveryUops+int(float64(bytes)*sys.DeliveryUopsPerByte), 3)
		d.rt.noteDelivery(d.ex.global, p.to, len(p.msg.Batch), bytes)
		if tr := d.rt.tr; tr != nil {
			for i := range p.msg.Batch {
				t := &p.msg.Batch[i]
				if tr.Sampled(t.Root) {
					// The consumer's queue ring lives on its home socket;
					// comparing it against the producer's current socket
					// marks cross-socket transfers (Fig 3 step 2).
					tr.Deliver(d.ex.global, d.ex.node.Name, d.rt.execs[p.to].node.Name,
						t.Root, sim.Cycles(t.EmitAt), d.nowCycles(),
						d.rt.machine.SocketOfCore(d.curCore), hw.HomeSocket(q.baseAddr))
				}
			}
		}
	}
	clear(d.pending)
	d.pending = d.pending[:0]
	return true
}

// beginFinish runs the operator's flush and stages end of stream.
func (d *simDriver) beginFinish() (sim.Cycles, sim.Disposition) {
	d.finishing = true
	d.ex.finish()
	if !d.flushPending() {
		return d.consumed, sim.Blocked
	}
	return max(d.consumed, 1), sim.Done
}

// simQueue is a bounded executor input queue for the simulated runtime: a
// ring of messages with blocking semantics expressed through the simulated
// scheduler. The ring buffer itself occupies simulated memory (on the
// consumer's socket, like a Storm disruptor queue owned by its executor),
// so push/pop traffic participates in the cache and NUMA model.
type simQueue struct {
	buf       []Msg
	head, n   int
	baseAddr  uint64
	slotBytes int

	waitData  *sim.Thread
	waitSpace []*sim.Thread
	sched     *sim.Scheduler
}

func newSimQueue(capacity int, base uint64, sched *sim.Scheduler) *simQueue {
	return &simQueue{
		buf:       make([]Msg, capacity),
		baseAddr:  base,
		slotBytes: 32, // a tuple-batch reference + sequence bookkeeping
		sched:     sched,
	}
}

// slotAddr returns the simulated address of ring slot i.
func (q *simQueue) slotAddr(i int) uint64 {
	return q.baseAddr + uint64(i)*uint64(q.slotBytes)
}

// tryPush appends a message. On success it returns the written slot index
// and wakes a waiting consumer; on a full queue it returns ok=false.
func (q *simQueue) tryPush(m Msg) (slot int, ok bool) {
	if q.n == len(q.buf) {
		return 0, false
	}
	slot = (q.head + q.n) % len(q.buf)
	q.buf[slot] = m
	q.n++
	if q.waitData != nil {
		w := q.waitData
		q.waitData = nil
		q.sched.Wake(w)
	}
	return slot, true
}

// tryPop removes the oldest message. On success it wakes writers blocked on
// a full ring.
func (q *simQueue) tryPop() (m Msg, slot int, ok bool) {
	if q.n == 0 {
		return Msg{}, 0, false
	}
	slot = q.head
	m = q.buf[slot]
	q.buf[slot] = Msg{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	if len(q.waitSpace) > 0 {
		ws := q.waitSpace
		q.waitSpace = nil
		for _, w := range ws {
			q.sched.Wake(w)
		}
	}
	return m, slot, true
}

// awaitData registers the consumer thread to be woken on the next push.
func (q *simQueue) awaitData(t *sim.Thread) { q.waitData = t }

// awaitSpace registers a producer thread to be woken on the next pop.
func (q *simQueue) awaitSpace(t *sim.Thread) {
	for _, w := range q.waitSpace {
		if w == t {
			return
		}
	}
	q.waitSpace = append(q.waitSpace, t)
}

// size reports queued messages.
func (q *simQueue) size() int { return q.n }
