package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file preserves the pre-ring native runtime — buffered Go channels,
// map-indexed emit buffers, per-tuple clock reads — as a test-only
// reference implementation. It exists for exactly one purpose: to be the
// baseline that BenchmarkNativePipeline compares the lock-free runtime
// against, on the same machine in the same process. It must not be used
// outside benchmarks and A/B tests.

type chanRefRuntime struct {
	cfg  NativeConfig
	topo *Topology

	execs   []*chanRefExec
	byOp    map[string][]*chanRefExec
	rootCtr int64

	sourceEvents int64
	sinkEvents   int64
}

type chanRefEdge struct {
	router    *edgeRouter
	stream    string
	consumers []*chanRefExec
	system    bool
}

type chanRefExec struct {
	rt     *chanRefRuntime
	node   *Node
	index  int
	global int

	op  Operator
	src Source

	in         chan Msg
	nProducers int
	edges      map[string][]*chanRefEdge

	rng    *rand.Rand
	sinkN  int64
	isSink bool

	ctx      *chanRefCtx
	buffers  map[string][]Tuple
	ackAccum map[int64]int64
}

// runNativeChannels is the channel-runtime twin of RunNative.
func runNativeChannels(t *Topology, cfg NativeConfig) (*Result, error) {
	cfg.fill()
	xt, err := BuildExecTopology(t, cfg.System)
	if err != nil {
		return nil, err
	}
	rt := &chanRefRuntime{cfg: cfg, topo: xt}
	rt.build()
	return rt.run(t.Name)
}

func (rt *chanRefRuntime) build() {
	rt.byOp = make(map[string][]*chanRefExec)
	global := 0
	for _, n := range rt.topo.Nodes() {
		for i := 0; i < n.Parallelism; i++ {
			e := &chanRefExec{
				rt: rt, node: n, index: i, global: global,
				rng:     rand.New(rand.NewSource(rt.cfg.Seed + int64(global)*7919 + 1)),
				buffers: make(map[string][]Tuple),
				edges:   make(map[string][]*chanRefEdge),
			}
			if n.IsSource() {
				e.src = n.NewSource()
			} else {
				e.op = n.NewOp()
				e.in = make(chan Msg, rt.cfg.QueueCap)
			}
			e.isSink = isSink(n)
			rt.execs = append(rt.execs, e)
			rt.byOp[n.Name] = append(rt.byOp[n.Name], e)
			global++
		}
	}
	for _, n := range rt.topo.Nodes() {
		for _, ed := range rt.topo.Consumers(n.Name) {
			ss, _ := n.OutStream(ed.Sub.Stream)
			for _, pe := range rt.byOp[n.Name] {
				pe.edges[ed.Sub.Stream] = append(pe.edges[ed.Sub.Stream], &chanRefEdge{
					router:    newEdgeRouter(ss, ed.Sub, ed.Consumer.Parallelism),
					stream:    ed.Sub.Stream,
					consumers: rt.byOp[ed.Consumer.Name],
					system:    ed.Consumer.System,
				})
			}
			for _, ce := range rt.byOp[ed.Consumer.Name] {
				ce.nProducers += n.Parallelism
			}
		}
	}
}

func (rt *chanRefRuntime) run(app string) (*Result, error) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, e := range rt.execs {
		wg.Add(1)
		go func(e *chanRefExec) {
			defer wg.Done()
			e.loop()
		}(e)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := &Result{
		App:            app,
		System:         rt.cfg.System.Name,
		SourceEvents:   atomic.LoadInt64(&rt.sourceEvents),
		SinkEvents:     atomic.LoadInt64(&rt.sinkEvents),
		ElapsedSeconds: elapsed,
	}
	for _, e := range rt.execs {
		res.Executors = append(res.Executors, ExecStat{
			Op: e.node.Name, Index: e.index, Socket: -1, Tuples: e.sinkN,
		})
		if a, ok := e.op.(*Acker); ok {
			res.AckerCompleted += a.Completed()
		}
	}
	return res, nil
}

func (e *chanRefExec) loop() {
	e.ctx = &chanRefCtx{ex: e}
	if e.src != nil {
		e.src.Prepare(e.ctx)
		for e.sourceInvocation() {
		}
		e.finish()
		return
	}
	e.op.Prepare(e.ctx)
	eos := 0
	for eos < e.nProducers {
		msg := <-e.in
		if msg.EOS {
			eos++
			continue
		}
		e.processBatch(msg)
	}
	e.finish()
}

func (e *chanRefExec) sourceInvocation() bool {
	target := e.rt.cfg.BatchSize
	n := 0
	alive := true
	for n < target && alive {
		before := e.emittedThisInvocation()
		alive = e.src.Next(e.ctx)
		n += e.emittedThisInvocation() - before
	}
	e.endInvocation()
	return alive
}

func (e *chanRefExec) emittedThisInvocation() int {
	n := 0
	for _, b := range e.buffers {
		n += len(b)
	}
	return n
}

func (e *chanRefExec) processBatch(msg Msg) {
	for i := range msg.Batch {
		t := &msg.Batch[i]
		e.ctx.curInput = t
		if e.ackTracking() {
			e.accumAck(t.Root, t.Edge)
		}
		if e.isSink {
			e.sinkN++
			atomic.AddInt64(&e.rt.sinkEvents, 1)
		}
		e.op.Process(e.ctx, *t)
	}
	e.ctx.curInput = nil
	e.endInvocation()
}

func (e *chanRefExec) ackTracking() bool {
	return e.rt.cfg.System.AckEnabled && !e.node.System
}

func (e *chanRefExec) accumAck(root, edge int64) {
	if root == 0 {
		return
	}
	if e.ackAccum == nil {
		e.ackAccum = make(map[int64]int64)
	}
	e.ackAccum[root] ^= edge
}

func (e *chanRefExec) endInvocation() {
	for _, n := range e.node.Streams {
		buf := e.buffers[n.Name]
		if len(buf) == 0 {
			continue
		}
		e.buffers[n.Name] = nil
		for _, ed := range e.edges[n.Name] {
			cap := 4 * e.rt.cfg.BatchSize
			if n.Name == AckStream {
				cap = 0
			}
			for _, b := range ed.router.route(buf, cap) {
				if e.ackTracking() && !ed.system {
					for i := range b.Tuples {
						edge := e.rng.Int63()
						b.Tuples[i].Edge = edge
						e.accumAck(b.Tuples[i].Root, edge)
					}
				}
				ed.consumers[b.Consumer].in <- Msg{
					FromGlobal: e.global, FromOp: e.node.Name,
					Stream: n.Name, Batch: b.Tuples,
				}
			}
		}
	}
	e.flushAcks()
}

func (e *chanRefExec) flushAcks() {
	if len(e.ackAccum) == 0 {
		return
	}
	accum := e.ackAccum
	e.ackAccum = nil
	for root, x := range accum {
		e.buffers[AckStream] = append(e.buffers[AckStream], Tuple{
			Values: []Value{root, x}, Root: root,
		})
	}
	buf := e.buffers[AckStream]
	e.buffers[AckStream] = nil
	for _, ed := range e.edges[AckStream] {
		for _, b := range ed.router.route(buf, 0) {
			ed.consumers[b.Consumer].in <- Msg{
				FromGlobal: e.global, FromOp: e.node.Name,
				Stream: AckStream, Batch: b.Tuples,
			}
		}
	}
}

func (e *chanRefExec) finish() {
	if f, ok := e.op.(Flusher); ok {
		e.ctx.curInput = nil
		f.Flush(e.ctx)
		e.endInvocation()
	}
	for _, n := range e.node.Streams {
		for _, ed := range e.edges[n.Name] {
			for _, c := range ed.consumers {
				c.in <- Msg{FromGlobal: e.global, FromOp: e.node.Name, Stream: n.Name, EOS: true}
			}
		}
	}
}

type chanRefCtx struct {
	ex       *chanRefExec
	curInput *Tuple
}

func (c *chanRefCtx) Emit(values ...Value) { c.EmitTo(DefaultStream, values...) }

func (c *chanRefCtx) EmitTo(stream string, values ...Value) {
	n := c.ex.node
	if _, ok := n.OutStream(stream); !ok {
		panic(fmt.Sprintf("engine: %q emits to undeclared stream %q", n.Name, stream))
	}
	t := Tuple{Values: values, Size: int32(TupleBytes(values))}
	if c.curInput != nil {
		t.Born = c.curInput.Born
		t.Root = c.curInput.Root
	} else {
		t.Born = time.Now().UnixNano()
		if n.IsSource() {
			t.Root = atomic.AddInt64(&c.ex.rt.rootCtr, 1)
		}
	}
	if n.IsSource() && stream != AckStream {
		atomic.AddInt64(&c.ex.rt.sourceEvents, 1)
	}
	c.ex.buffers[stream] = append(c.ex.buffers[stream], t)
}

func (c *chanRefCtx) ExecutorID() int      { return c.ex.index }
func (c *chanRefCtx) Parallelism() int     { return c.ex.node.Parallelism }
func (c *chanRefCtx) OperatorName() string { return c.ex.node.Name }
func (c *chanRefCtx) Work(uops, branches int) {}
func (c *chanRefCtx) AccessState(bytes int)   {}
func (c *chanRefCtx) ScanState(bytes int)     {}
func (c *chanRefCtx) ScanScratch(bytes int)   {}
func (c *chanRefCtx) Rand() *rand.Rand        { return c.ex.rng }
func (c *chanRefCtx) Input() (string, string) { return "", "" }

// The channel runtime's router, kept as it was when the runtime was frozen.

// AddressedBatch is a batch of tuples routed to one consumer executor.
type AddressedBatch struct {
	Consumer int // consumer executor index within the consumer operator
	Tuples   []Tuple
}

// edgeRouter routes one producer stream to one consumer subscription,
// implementing the paper's non-blocking tuple batching (Algorithm 1): all
// tuples emitted during a single invocation are grouped into per-consumer
// batches and emitted at the end of the invocation — no cross-invocation
// buffering, hence no added buffering delay.
type edgeRouter struct {
	group     Grouping
	consumers int
	fieldIdx  []int // resolved key field indices for fields grouping
	rr        int   // rotating block cursor for shuffle grouping
}

func newEdgeRouter(producer StreamSpec, sub Subscription, consumers int) *edgeRouter {
	r := &edgeRouter{group: sub.Group, consumers: consumers}
	if sub.Group.Kind == GroupFields {
		r.fieldIdx = FieldIndices(producer, sub.Group.Fields)
	}
	return r
}

// route partitions the tuples of one invocation into addressed batches of
// at most batchCap tuples each (batchCap <= 0 means unbounded). Fields
// grouping follows Algorithm 1: the new key is the hash of the combined
// grouping attributes modulo the consumer count, so tuples sharing original
// keys always share a destination, while tuples with different keys that
// map to the same destination ride the same batch.
func (r *edgeRouter) route(tuples []Tuple, batchCap int) []AddressedBatch {
	if len(tuples) == 0 {
		return nil
	}
	switch r.group.Kind {
	case GroupShuffle:
		return r.routeShuffle(tuples, batchCap)
	case GroupFields:
		return r.routeFields(tuples, batchCap)
	case GroupGlobal:
		return capBatches(0, tuples, batchCap)
	case GroupAll:
		var out []AddressedBatch
		for c := 0; c < r.consumers; c++ {
			cp := make([]Tuple, len(tuples))
			copy(cp, tuples)
			out = append(out, capBatches(c, cp, batchCap)...)
		}
		return out
	}
	panic(fmt.Sprintf("engine: unknown grouping %v", r.group.Kind))
}

// routeShuffle assigns tuples round-robin across consumers (the cursor
// persists between invocations, so cumulative imbalance never exceeds one
// tuple) and emits each consumer's share as a batch.
func (r *edgeRouter) routeShuffle(tuples []Tuple, batchCap int) []AddressedBatch {
	groups := make([][]Tuple, r.consumers)
	for _, t := range tuples {
		groups[r.rr] = append(groups[r.rr], t)
		r.rr = (r.rr + 1) % r.consumers
	}
	var out []AddressedBatch
	for c, g := range groups {
		if len(g) > 0 {
			out = append(out, capBatches(c, g, batchCap)...)
		}
	}
	return out
}

// routeFields is Algorithm 1. The multi-valued hash map is keyed by
// newkey = hash(combined grouping attributes) mod consumers.
func (r *edgeRouter) routeFields(tuples []Tuple, batchCap int) []AddressedBatch {
	cache := make(map[int][]Tuple) // the HashMultimap of Algorithm 1
	for _, t := range tuples {
		newkey := int(HashFields(t.Values, r.fieldIdx) % uint64(r.consumers))
		cache[newkey] = append(cache[newkey], t)
	}
	keys := make([]int, 0, len(cache))
	for k := range cache {
		keys = append(keys, k)
	}
	sort.Ints(keys) // deterministic emission order
	var out []AddressedBatch
	for _, k := range keys {
		out = append(out, capBatches(k, cache[k], batchCap)...)
	}
	return out
}

func capBatches(consumer int, tuples []Tuple, batchCap int) []AddressedBatch {
	if batchCap <= 0 || len(tuples) <= batchCap {
		return []AddressedBatch{{Consumer: consumer, Tuples: tuples}}
	}
	var out []AddressedBatch
	for i := 0; i < len(tuples); i += batchCap {
		end := i + batchCap
		if end > len(tuples) {
			end = len(tuples)
		}
		out = append(out, AddressedBatch{Consumer: consumer, Tuples: tuples[i:end]})
	}
	return out
}
