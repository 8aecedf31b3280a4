package engine

import (
	"fmt"
	"math"
	"math/rand"

	"streamscale/internal/metrics"
	"streamscale/internal/sim"
)

// One executor core serves both runtimes. It owns everything an
// invocation does: source pacing and intended-arrival stamps,
// stream-indexed emit buffers, grouping and batching (Algorithm 1),
// per-copy XOR edge IDs, ack tuples, sink counting with the latency
// countdown, checkpoint barriers, flush and end of stream. A runtime
// supplies a driver behind two seams:
//
//   - a transport moves messages, recycles their batch slabs and keeps
//     the runtime's time: the simulated queue under sim.Scheduler
//     blocking (runtime_sim.go), or the SPSC/MPSC rings with parking
//     (runtime_native.go);
//   - a cost hook charges the work: hw.Machine cycles plus the tracer in
//     the simulator, nothing natively.

// Msg is the unit of transfer between executors: a batch of tuples from one
// producer executor on one stream, an end-of-stream marker or a checkpoint
// barrier.
//
// On both runtimes the Batch slab is recycled: after the consumer
// processes a batch it clears the slab and returns it, natively to the
// producer over a free-list ring, in the simulator to the run's free list,
// so steady-state transfer allocates nothing. A consumer must therefore
// never retain Batch (or a sub-slice of it) past the invocation that
// processed it.
type Msg struct {
	// FromGlobal is the producing executor's global index.
	FromGlobal int
	// FromOp and Stream identify the producing operator and stream.
	FromOp string
	Stream string
	// Batch is nil for EOS and barrier messages.
	Batch []Tuple
	// EOS marks the producer executor's end of stream.
	EOS bool
	// Barrier carries a Flink-style checkpoint barrier ID (0 = none).
	Barrier int64
	// EnqueuedAt is the simulated time the message was pushed (sim runtime
	// only), for queue-sojourn accounting.
	EnqueuedAt int64
}

// transport is a runtime's message fabric and clock, as one executor sees
// it. Times are in the runtime's ticks (cycles or nanoseconds).
type transport interface {
	// now reads the clock.
	now() int64
	// stamp is the birth instant of a tuple emitted now. It may be the
	// last reading of now: a clock read per tuple is itself a cost.
	stamp() int64
	// slab returns an empty (possibly nil) batch buffer for a message to
	// executor to.
	slab(to int) []Tuple
	// send delivers (or stages, for delivery after the invocation) one
	// message to executor to.
	send(to int, m Msg)
}

// costHook charges an executor's work to a machine model. Every charge
// point of an invocation is one method, called in the order the work
// happens: the invocation, each input tuple, its emissions, then the ack
// tuples. Deliveries are the transport's.
type costHook interface {
	// invoke charges one invocation's dispatch; m is the input message
	// (zero for a source invocation or a flush).
	invoke(m Msg)
	// process charges the per-tuple overhead of input t and runs
	// processTuple(t).
	process(t *Tuple)
	// emit charges writing an output tuple (ack tuples included) and
	// stamps its address and emission instant.
	emit(t *Tuple, ack bool)
	// barrier charges the state snapshot of an aligned checkpoint barrier
	// (none for a source's injection) and records it.
	barrier(id int64, aligned bool)
	// The costs an operator reports through Context.
	work(uops, branches int)
	accessState(bytes int)
	scanScratch(bytes int)
}

// execConfig is the run-wide configuration every executor reads.
type execConfig struct {
	seed        int64
	batch       int     // source batch size S
	ack         bool    // Storm-style XOR acking
	rate        float64 // open-loop events per second per source; 0 = closed loop
	co          bool    // coordinated-omission ablation
	sampleEvery int     // latency sample period in sink tuples
	hz          int64   // clock ticks per second
	barrierIv   int64   // checkpoint barrier interval in ticks; 0 = none
	failAfter   map[int]int64
}

// ackTupleBytes is the payload of a (root, xor) ack tuple: two boxed
// int64 fields, as TupleBytes would estimate them.
const ackTupleBytes = 24 + 2*8 + 2*8

// outEdge routes one output stream of an executor to the executors of one
// subscribing operator.
type outEdge struct {
	stream   string
	kind     GroupKind
	fieldIdx []int
	ack      bool    // the __ack stream: fields grouping keys on Root
	track    bool    // assign XOR edge IDs to the delivered copies
	batchCap int     // tuples per message (<= 0: unbounded)
	to       []int   // consumer executors, by global index
	rr       int     // shuffle cursor, persists across invocations
	dest     []int32 // scratch: each routed tuple's consumer
}

// ackPair is one root's running XOR for the current invocation. A slice
// with linear search beats a map here: an invocation touches at most a
// batch's worth of distinct roots.
type ackPair struct{ root, xor int64 }

// executor is one executor of a topology, on either runtime. It is also
// the operator's Context.
type executor struct {
	cfg    *execConfig
	node   *Node
	index  int
	global int

	op  Operator
	src Source

	port transport
	cost costHook

	rng     *rand.Rand
	latency *metrics.Histogram
	sink    bool
	track   bool // this executor's inputs and outputs are ack-tracked

	edges   [][]*outEdge // by out-stream position in node.Streams
	ackIdx  int          // position of AckStream in node.Streams, -1 if none
	buffers [][]Tuple    // this invocation's emissions, by out stream
	acks    []ackPair

	in               *Tuple // the input tuple being processed
	inOp, inStream   string
	nProducers       int // subscriptions times producer executors
	eosSeen          int
	failAfter        int64 // input tuples before turning zombie; -1 = never
	rootBase         int64
	rootSeq          *int64
	emitted          int     // tuples emitted this invocation
	epoch            int64   // the run's start on the runtime's clock
	nextEmit         int64   // open-loop: intended arrival of the next event
	lastEvents       int     // open-loop: events of the previous invocation
	bornSched        float64 // intended arrival of the next event, from epoch
	bornStep         float64 // 0 until the intended-arrival schedule starts
	nextBarrier      int64
	barrierSeen      map[int64]int
	sampleIn         int // sink tuples to the next latency sample
	srcEvents, sinkN int64
	tuples           int64 // input tuples (zombie-dropped included)
	invocations      int64
	barriers         int64 // injected (sources) or aligned
}

// newExecutors creates one executor per operator instance of an
// executable topology, in ExecGraph order, and wires their output edges.
// rootSeq, when non-nil, is one root counter shared by every source;
// otherwise each source numbers its own roots above global<<40.
func newExecutors(t *Topology, cfg *execConfig, rootSeq *int64) []*executor {
	var execs []*executor
	byOp := make(map[string][]*executor)
	for _, n := range t.Nodes() {
		for i := 0; i < n.Parallelism; i++ {
			g := len(execs)
			e := &executor{
				cfg: cfg, node: n, index: i, global: g,
				rng:         rand.New(rand.NewSource(cfg.seed + int64(g)*7919 + 11)),
				latency:     metrics.NewHistogram(1 << 14),
				sink:        isSink(n),
				track:       cfg.ack && !n.System,
				edges:       make([][]*outEdge, len(n.Streams)),
				buffers:     make([][]Tuple, len(n.Streams)),
				ackIdx:      streamIndex(n.Streams, AckStream),
				failAfter:   -1,
				rootSeq:     rootSeq,
				sampleIn:    cfg.sampleEvery,
				barrierSeen: make(map[int64]int),
			}
			if limit, ok := cfg.failAfter[g]; ok {
				e.failAfter = limit
			}
			if n.IsSource() {
				e.src = n.NewSource()
				if rootSeq == nil {
					e.rootSeq = new(int64)
					e.rootBase = int64(g+1) << 40
				}
			} else {
				e.op = n.NewOp()
			}
			execs = append(execs, e)
			byOp[n.Name] = append(byOp[n.Name], e)
		}
	}
	for _, n := range t.Nodes() {
		for _, ed := range t.Consumers(n.Name) {
			ss, _ := n.OutStream(ed.Sub.Stream)
			si := streamIndex(n.Streams, ed.Sub.Stream)
			ack := ed.Sub.Stream == AckStream
			var fieldIdx []int
			if ed.Sub.Group.Kind == GroupFields && !ack {
				fieldIdx = FieldIndices(ss, ed.Sub.Group.Fields)
			}
			batchCap := 4 * cfg.batch
			if ack {
				batchCap = 0 // ack batches are not cut
			}
			var to []int
			for _, ce := range byOp[ed.Consumer.Name] {
				to = append(to, ce.global)
				ce.nProducers += n.Parallelism
			}
			for _, pe := range byOp[n.Name] {
				pe.edges[si] = append(pe.edges[si], &outEdge{
					stream: ed.Sub.Stream, kind: ed.Sub.Group.Kind, fieldIdx: fieldIdx,
					ack: ack, track: pe.track && !ed.Consumer.System,
					batchCap: batchCap, to: to,
				})
			}
		}
	}
	return execs
}

// maxLatencySampleEvery caps the sampling period; beyond this a run simply
// never samples, which is what an absurd config is asking for anyway.
const maxLatencySampleEvery = 1 << 30

// fillRun applies the defaults both runtimes' configurations share.
func fillRun(sys *SystemProfile, batch, sampleEvery *int) {
	*batch = max(*batch, 1)
	if sys.QueueCap <= 0 {
		sys.QueueCap = 1024
	}
	if *sampleEvery <= 0 {
		*sampleEvery = 8
	}
	*sampleEvery = min(*sampleEvery, maxLatencySampleEvery)
}

func streamIndex(streams []StreamSpec, name string) int {
	for i := range streams {
		if streams[i].Name == name {
			return i
		}
	}
	return -1
}

// isSink reports whether a node has no user output streams.
func isSink(n *Node) bool {
	for _, s := range n.Streams {
		if s.Name != AckStream {
			return false
		}
	}
	return !n.System
}

// prepare runs the operator's Prepare. Checkpoint barriers fire at
// epoch + k·interval on the runtime's clock, and open-loop arrival stamps
// count from epoch, so a float64 offset keeps them exact on a UnixNano
// clock (whose absolute values a float64 holds only to 256 ns).
func (e *executor) prepare(epoch int64) {
	e.epoch = epoch
	if e.src != nil {
		e.src.Prepare(e)
		if e.cfg.barrierIv > 0 {
			e.nextBarrier = epoch + e.cfg.barrierIv
		}
		return
	}
	e.op.Prepare(e)
}

// drained reports whether every producer has sent its end of stream.
func (e *executor) drained() bool { return e.eosSeen == e.nProducers }

// due is the earliest instant the next source invocation may start. Under
// SourceRate an invocation may not start before the intended arrival of
// the last event it emits, so no tuple is stamped in its own future and
// the batching wait counts in latency: it is expected to emit S events, or
// as many as the previous invocation if that was more (a source's Next may
// emit several). In closed loop, and before the schedule starts, it may
// start at once.
//
//dsp:hotpath
func (e *executor) due() int64 {
	if e.bornStep == 0 {
		return math.MinInt64
	}
	return e.nextEmit + e.ticks(max(e.cfg.batch, e.lastEvents)-1)
}

// ticks is the length of n open-loop inter-arrival gaps in clock ticks,
// truncated.
//
//dsp:hotpath
func (e *executor) ticks(n int) int64 {
	return int64(float64(n) / e.cfg.rate * float64(e.cfg.hz))
}

// sourceStep runs one source invocation: a due checkpoint barrier first,
// then up to BatchSize emissions. start is the instant the invocation
// started; the open-loop schedule counts from the first one. It returns
// false once the source is exhausted.
//
//dsp:hotpath
func (e *executor) sourceStep(start int64) bool {
	if e.cfg.barrierIv > 0 {
		e.maybeBarrier(e.port.now())
	}
	e.invocations++
	e.cost.invoke(Msg{})
	before := e.srcEvents
	e.emitted = 0
	alive := true
	for e.emitted < e.cfg.batch && alive {
		alive = e.src.Next(e)
	}
	if e.cfg.rate > 0 {
		e.schedule(start, int(e.srcEvents-before))
	}
	e.endInvocation()
	return alive
}

// schedule places an open-loop invocation's n events on the arrival
// schedule, one every 1/rate, and stamps each with its intended arrival
// (coordinated-omission correction: a backpressure stall at the throttled
// source stays inside the measured latency). The schedule starts with the
// first invocation, whose last event arrives at its start, so an unloaded
// source stamps each batch's last event about the actual instant.
//
//dsp:hotpath
func (e *executor) schedule(start int64, n int) {
	if e.bornStep == 0 {
		e.nextEmit = start - e.ticks(n-1)
		e.bornSched = float64(e.nextEmit - e.epoch)
		e.bornStep = float64(e.cfg.hz) / e.cfg.rate
	}
	if !e.cfg.co {
		for si, buf := range e.buffers {
			if si == e.ackIdx {
				continue
			}
			for i := range buf {
				buf[i].Born = e.epoch + int64(e.bornSched)
				e.bornSched += e.bornStep
			}
		}
	}
	e.nextEmit += e.ticks(n)
	e.lastEvents = n
}

// handle runs one message through the executor and reports whether it was
// a data batch the operator processed (not end of stream, a barrier, or a
// batch a zombie dropped).
//
//dsp:hotpath
func (e *executor) handle(m Msg) bool {
	if m.EOS {
		e.eosSeen++
		return false
	}
	if m.Barrier != 0 {
		e.align(m.Barrier)
		return false
	}
	if e.failAfter >= 0 && e.tuples >= e.failAfter {
		// Injected failure: the executor zombies. It keeps draining its
		// input (so upstream backpressure resolves) but drops everything.
		e.tuples += int64(len(m.Batch))
		e.cost.work(40, 1)
		return false
	}
	e.invocations++
	e.tuples += int64(len(m.Batch))
	e.cost.invoke(m)
	e.inOp, e.inStream = m.FromOp, m.Stream
	for i := range m.Batch {
		t := &m.Batch[i]
		e.in = t
		if e.track {
			e.accumAck(t.Root, t.Edge)
		}
		e.cost.process(t)
	}
	e.in = nil
	e.endInvocation()
	return true
}

// processTuple observes a sink tuple and runs the operator on t.
//
//dsp:hotpath
func (e *executor) processTuple(t *Tuple) {
	if e.sink {
		e.observeSink(t)
	}
	e.op.Process(e, *t)
}

// observeSink counts a sink tuple and samples its end-to-end latency on a
// countdown, so both runtimes sample the same tuple positions (n, 2n, ...)
// and read the clock only when the sampler fires.
//
//dsp:hotpath
func (e *executor) observeSink(t *Tuple) {
	e.sinkN++
	e.sampleIn--
	if e.sampleIn <= 0 {
		e.sampleIn = e.cfg.sampleEvery
		// Simulated steps overlap, so a tuple can be observed up to one
		// quantum before its producer's step closes; clamp at zero.
		lat := e.port.now() - t.Born
		if lat < 0 {
			lat = 0
		}
		e.latency.Observe(sim.Cycles(lat).Millis(e.cfg.hz))
	}
}

// accumAck folds one (root, edge) pair into the invocation's XOR
// accumulator.
//
//dsp:hotpath
func (e *executor) accumAck(root, edge int64) {
	if root == 0 {
		return // unanchored tuple tree
	}
	for i := range e.acks {
		if e.acks[i].root == root {
			e.acks[i].xor ^= edge
			return
		}
	}
	e.acks = append(e.acks, ackPair{root: root, xor: edge})
}

// endInvocation is the non-blocking batching boundary: everything emitted
// during the invocation is routed into per-consumer batches and sent now,
// then the invocation's ack tuples follow.
//
//dsp:hotpath
func (e *executor) endInvocation() {
	for si, buf := range e.buffers {
		if si == e.ackIdx || len(buf) == 0 {
			continue
		}
		e.routeStream(si, buf)
	}
	if len(e.acks) == 0 {
		return
	}
	// Ascending roots: the order is part of the simulated cycle account.
	for i := 1; i < len(e.acks); i++ {
		for j := i; j > 0 && e.acks[j].root < e.acks[j-1].root; j-- {
			e.acks[j], e.acks[j-1] = e.acks[j-1], e.acks[j]
		}
	}
	buf := e.buffers[e.ackIdx]
	for _, p := range e.acks {
		buf = append(buf, Tuple{Root: p.root, Edge: p.xor, Size: ackTupleBytes})
		e.cost.emit(&buf[len(buf)-1], true)
	}
	e.acks = e.acks[:0]
	e.routeStream(e.ackIdx, buf)
}

// routeStream routes one stream's emit buffer over all its edges and
// resets the buffer for reuse.
//
//dsp:hotpath
func (e *executor) routeStream(si int, buf []Tuple) {
	for _, ed := range e.edges[si] {
		e.route(ed, buf)
	}
	clear(buf) // drop Values references; the backing array is reused
	e.buffers[si] = buf[:0]
}

// route is Algorithm 1: the tuples of one invocation are grouped per
// consumer executor and sent as batches, in ascending consumer order, cut
// at the edge's cap. Fields grouping keys each tuple by the hash of its
// combined grouping attributes modulo the consumer count, so equal keys
// share a destination and different keys bound for one consumer share a
// batch. Shuffle deals tuples round-robin from a cursor that persists
// across invocations; global sends everything to executor 0; all
// replicates.
//
//dsp:hotpath
func (e *executor) route(ed *outEdge, buf []Tuple) {
	n := len(ed.to)
	if n == 1 || ed.kind == GroupGlobal {
		e.deliver(ed, 0, buf, nil)
		return
	}
	switch ed.kind {
	case GroupAll:
		for c := 0; c < n; c++ {
			e.deliver(ed, c, buf, nil)
		}
		return
	case GroupShuffle:
		dest := ed.dest[:0]
		for range buf {
			dest = append(dest, int32(ed.rr))
			if ed.rr++; ed.rr == n {
				ed.rr = 0
			}
		}
		ed.dest = dest
	case GroupFields:
		dest := ed.dest[:0]
		for i := range buf {
			var h uint64
			if ed.ack {
				h = hashAckRoot(buf[i].Root)
			} else {
				h = HashFields(buf[i].Values, ed.fieldIdx)
			}
			dest = append(dest, int32(h%uint64(n)))
		}
		ed.dest = dest
	default:
		//dsplint:ignore hotalloc fatal-error path, never taken in steady state
		panic(fmt.Sprintf("engine: unknown grouping %v", ed.kind))
	}
	for c := 0; c < n; c++ {
		e.deliver(ed, c, buf, ed.dest)
	}
}

// deliver sends consumer c its tuples of buf (those with dest[i] == c, or
// all when dest is nil). Each delivered copy gets a fresh XOR edge ID.
//
//dsp:hotpath
func (e *executor) deliver(ed *outEdge, c int, buf []Tuple, dest []int32) {
	var b []Tuple
	for i := range buf {
		if dest != nil && dest[i] != int32(c) {
			continue
		}
		if b == nil {
			b = e.port.slab(ed.to[c])
		}
		b = append(b, buf[i])
		if ed.track {
			edge := e.rng.Int63()
			b[len(b)-1].Edge = edge
			e.accumAck(buf[i].Root, edge)
		}
		if len(b) == ed.batchCap {
			e.port.send(ed.to[c], Msg{FromGlobal: e.global, FromOp: e.node.Name, Stream: ed.stream, Batch: b})
			b = nil
		}
	}
	if len(b) > 0 {
		e.port.send(ed.to[c], Msg{FromGlobal: e.global, FromOp: e.node.Name, Stream: ed.stream, Batch: b})
	}
}

// maybeBarrier injects a checkpoint barrier from a source when one is due.
func (e *executor) maybeBarrier(now int64) {
	if now < e.nextBarrier {
		return
	}
	e.nextBarrier += e.cfg.barrierIv
	e.barriers++
	e.broadcast(Msg{Barrier: e.barriers}, false)
	e.cost.barrier(e.barriers, false)
}

// align counts one barrier; once every producer has delivered it, the
// executor snapshots its state and forwards the barrier (Flink's aligned
// checkpoint).
func (e *executor) align(id int64) {
	e.barrierSeen[id]++
	if e.barrierSeen[id] < e.nProducers {
		return
	}
	delete(e.barrierSeen, id)
	e.barriers++
	e.broadcast(Msg{Barrier: id}, false)
	e.cost.barrier(id, true)
}

// broadcast sends a control message to every consumer executor once per
// subscription, on every stream (the ack stream only for end of stream).
func (e *executor) broadcast(m Msg, acks bool) {
	m.FromGlobal, m.FromOp = e.global, e.node.Name
	for si, s := range e.node.Streams {
		if si == e.ackIdx && !acks {
			continue
		}
		m.Stream = s.Name
		for _, ed := range e.edges[si] {
			for _, to := range ed.to {
				e.port.send(to, m)
			}
		}
	}
}

// finish drains a Flusher's buffered state and sends end of stream.
func (e *executor) finish() {
	if f, ok := e.op.(Flusher); ok {
		e.in = nil
		e.invocations++
		e.cost.invoke(Msg{})
		f.Flush(e)
		e.endInvocation()
	}
	e.broadcast(Msg{EOS: true}, true)
}

// summarize folds the executors' counts into res, in executor order.
func summarize(res *Result, execs []*executor) {
	res.Latency = metrics.NewHistogram(1 << 16)
	for _, e := range execs {
		res.SourceEvents += e.srcEvents
		res.SinkEvents += e.sinkN
		// Exact bucket-count merge: no sampled observation is lost.
		res.Latency.Merge(e.latency)
		res.Executors = append(res.Executors, ExecStat{
			Op: e.node.Name, Index: e.index, Socket: -1,
			Tuples: e.tuples, Invocations: e.invocations, Barriers: e.barriers,
		})
		if a, ok := e.op.(*Acker); ok {
			res.AckerCompleted += a.Completed()
		}
	}
}

// Emit implements Context.
//
//dsp:hotpath
func (e *executor) Emit(values ...Value) { e.EmitTo(DefaultStream, values...) }

// EmitTo implements Context: it appends a tuple to the stream's emit
// buffer. Every operator output passes through here.
//
//dsp:hotpath
func (e *executor) EmitTo(stream string, values ...Value) {
	si := streamIndex(e.node.Streams, stream)
	if si < 0 {
		//dsplint:ignore hotalloc fatal-error path, never taken in steady state
		panic(fmt.Sprintf("engine: %q emits to undeclared stream %q", e.node.Name, stream))
	}
	t := Tuple{Values: values, Size: int32(TupleBytes(values))}
	if e.in != nil {
		t.Born, t.Root = e.in.Born, e.in.Root
	} else {
		// An open-loop source's tuples are stamped again, with their
		// intended arrival, once the invocation has emitted them all
		// (schedule).
		t.Born = e.port.stamp()
		if e.src != nil {
			*e.rootSeq++
			t.Root = e.rootBase | *e.rootSeq
		}
		// Other emissions without an input anchor (e.g. Flush) are
		// unanchored, as in Storm: Root stays 0 and is never ack-tracked.
	}
	e.emitted++
	if e.src != nil && stream != AckStream {
		e.srcEvents++
	}
	e.buffers[si] = append(e.buffers[si], t)
	e.cost.emit(&e.buffers[si][len(e.buffers[si])-1], false)
}

// The rest of Context.
func (e *executor) ExecutorID() int         { return e.index }
func (e *executor) Parallelism() int        { return e.node.Parallelism }
func (e *executor) OperatorName() string    { return e.node.Name }
func (e *executor) Rand() *rand.Rand        { return e.rng }
func (e *executor) Input() (string, string) { return e.inOp, e.inStream }

// Work, AccessState and ScanScratch report an operator's costs
// to the cost hook, per tuple on both runtimes.
//
//dsp:hotpath
func (e *executor) Work(uops, branches int) { e.cost.work(uops, branches) }

//dsp:hotpath
func (e *executor) AccessState(bytes int) { e.cost.accessState(bytes) }

//dsp:hotpath
func (e *executor) ScanScratch(bytes int) { e.cost.scanScratch(bytes) }
