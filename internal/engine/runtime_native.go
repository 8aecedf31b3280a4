package engine

import (
	"sync"
	"time"

	"streamscale/internal/hw"
	"streamscale/internal/ring"
	"streamscale/internal/sim"
)

// The native runtime runs the executor core (executor.go) with one
// goroutine per executor, so the simulator's predicted effect ratios can be
// validated against real hardware (internal/bench ValidateNative). Its
// driver keeps only the transport, built around the costs the paper's
// profiling identified:
//
//   - every producer→consumer executor pair owns a private SPSC ring
//     (internal/ring); a consumer drains its rings through an MPSC front
//   - batch slabs are recycled consumer→producer over a second tiny ring
//     per pair, so steady-state transfer does not allocate
//   - backpressure is credit-based: a producer facing a full ring parks
//     on the ring's waiter and is woken by the consumer's next pop
//
// The cost hook charges nothing: the work is real. Checkpoint barriers run
// at the profile's CheckpointInterval read at the Table III clock (20 ms
// for Flink).

// NativeConfig configures a run on the native (goroutine) runtime.
type NativeConfig struct {
	// System selects the engine profile; only its acking, batching and
	// checkpointing affect the native runtime (the cost model is
	// simulation-only).
	System SystemProfile
	// BatchSize is the source batch size S of the paper's §VI-A;
	// 1 (or 0) disables batching.
	BatchSize int
	// QueueCap overrides the profile's executor queue capacity (messages
	// buffered per consumer, split across its producer rings).
	QueueCap int
	// Seed drives all per-executor randomness.
	Seed int64
	// SourceRate throttles each source executor to the given event rate
	// (events per wall-clock second). Zero runs sources closed-loop at full
	// speed; a nonzero rate yields open-loop latency at a fixed offered
	// load, with tuples stamped at their *scheduled* emission instant so
	// backpressure stalls stay inside the measured latency (coordinated-
	// omission correction), mirroring the simulator's SourceRate semantics.
	SourceRate float64
	// CoordinatedOmission re-enables the coordinated-omission bug for
	// ablation: open-loop tuples are stamped with the actual emission
	// instant instead of the scheduled one. Ignored when SourceRate is 0.
	CoordinatedOmission bool
	// LatencySampleEvery samples end-to-end latency every n-th sink tuple
	// (default 8, matching the simulator's cadence so the two runtimes
	// sample identical tuple positions; capped at 2^30 so countdown
	// arithmetic cannot overflow).
	LatencySampleEvery int
	// Chaining fuses forwardable operator pairs (ChainTopology) before
	// building the executor graph.
	Chaining bool
}

func (c *NativeConfig) fill() {
	fillRun(&c.System, &c.BatchSize, &c.QueueCap, &c.LatencySampleEvery)
}

// RunNative executes the topology with real goroutines and lock-free ring
// queues and returns measured wall-clock results. It blocks until all
// sources are exhausted and the pipeline has fully drained.
func RunNative(t *Topology, cfg NativeConfig) (*Result, error) {
	cfg.fill()
	name := t.Name
	if cfg.Chaining {
		chained, _, err := ChainTopology(t)
		if err != nil {
			return nil, err
		}
		t = chained
	}
	xt, err := BuildExecTopology(t, cfg.System)
	if err != nil {
		return nil, err
	}
	iv := sim.Cycles(cfg.System.CheckpointInterval).Seconds(hw.TableIII().ClockHz)
	execs := newExecutors(xt, &execConfig{
		seed: cfg.Seed, batch: cfg.BatchSize, ack: cfg.System.AckEnabled,
		rate: cfg.SourceRate, co: cfg.CoordinatedOmission,
		sampleEvery: cfg.LatencySampleEvery, hz: 1e9, barrierIv: int64(iv * 1e9),
	}, nil)
	drivers := make([]*nativeDriver, len(execs))
	for i, e := range execs {
		drivers[i] = &nativeDriver{ex: e, out: make([]*nativeConn, len(execs)), slabCap: max(4*cfg.BatchSize, 16)}
		if e.src == nil {
			drivers[i].in = ring.NewMPSC[Msg]()
		}
		e.port, e.cost = drivers[i], freeWork{e}
	}
	// Ring sizing: QueueCap is the consumer's total message budget, split
	// across its subscriptions' producer executors.
	for _, d := range drivers {
		for _, edges := range d.ex.edges {
			for _, ed := range edges {
				for _, to := range ed.to {
					if d.out[to] == nil {
						d.out[to] = d.link(drivers[to], cfg.QueueCap/drivers[to].ex.nProducers)
					}
				}
			}
		}
	}
	res := runNative(drivers)
	res.App, res.System = name, cfg.System.Name
	summarize(res, execs)
	return res, nil
}

// nativeConn is one producer-executor → consumer-executor link: a data
// ring carrying Msg batches downstream and a free ring recycling drained
// batch slabs back upstream. Both ends are single-producer/single-consumer
// by construction (each conn belongs to exactly one producer goroutine and
// one consumer goroutine), which is what lets the rings stay lock-free.
type nativeConn struct {
	data *ring.SPSC[Msg]
	free *ring.SPSC[[]Tuple]
}

// nativeDriver runs one executor on its own goroutine and is its
// transport.
type nativeDriver struct {
	ex *executor

	in      *ring.MPSC[Msg]
	inConns []*nativeConn // parallel to in's lanes
	out     []*nativeConn // by consumer global index; nil if not linked
	slabCap int
	born    int64 // the last clock reading
}

// maxConnMsgs caps one producer→consumer ring's depth. Beyond a few dozen
// in-flight batches, extra depth only adds latency and slab population —
// a consumer that far behind needs backpressure, not buffer.
const maxConnMsgs = 64

// link creates the producer→consumer conn for one executor pair. Each
// pair gets exactly one conn regardless of how many streams or
// subscriptions connect the operators.
func (d *nativeDriver) link(ce *nativeDriver, capMsgs int) *nativeConn {
	if capMsgs < 2 {
		capMsgs = 2
	}
	if capMsgs > maxConnMsgs {
		capMsgs = maxConnMsgs
	}
	// The free ring matches the data ring's capacity: every slab that can
	// be in flight has a recycling slot, so a lagging consumer never
	// forces the producer to allocate (slabs overflowing it go to GC).
	// It is pre-filled: the slab arena is allocated here, at build time.
	c := &nativeConn{
		data: ce.in.AddProducer(capMsgs),
		free: ring.NewSPSC[[]Tuple](capMsgs, nil),
	}
	for c.free.TryPush(d.newSlab()) {
	}
	ce.inConns = append(ce.inConns, c) // same order as the MPSC lanes
	return c
}

// runNative runs every driver on its own goroutine until the pipeline has
// drained, and times it.
//
//dsplint:wallclock
func runNative(drivers []*nativeDriver) *Result {
	start := time.Now()
	var wg sync.WaitGroup
	for _, d := range drivers {
		wg.Add(1)
		go func(d *nativeDriver) {
			defer wg.Done()
			d.run(start.UnixNano())
		}(d)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return &Result{ElapsedSeconds: elapsed, WallSeconds: elapsed}
}

// run is one executor goroutine: a source runs invocation after
// invocation until exhausted, an operator pops batches from its MPSC
// front until every producer has sent end of stream.
//
//dsp:hotpath
func (d *nativeDriver) run(epoch int64) {
	ex := d.ex
	ex.prepare(epoch)
	if ex.src != nil {
		for ex.sourceStep(d.pace()) {
		}
	} else {
		for !ex.drained() {
			msg, lane := d.in.Pop()
			ex.handle(msg)
			if msg.Batch != nil {
				// The operator got its tuples by value, so the slab can go
				// back to the producer; if the free ring is full it goes
				// to GC.
				clear(msg.Batch)
				d.inConns[lane].free.TryPush(msg.Batch[:0])
			}
		}
	}
	d.now()
	ex.finish()
}

// pace reads the clock at the start of a source invocation and, under
// SourceRate, sleeps until the invocation's scheduled start.
//
//dsp:hotpath
//dsplint:wallclock
func (d *nativeDriver) pace() int64 {
	now := d.now()
	for now < d.ex.nextEmit {
		time.Sleep(time.Duration(d.ex.nextEmit - now))
		now = d.now()
	}
	return now
}

// now reads the wall clock in nanoseconds.
//
//dsp:hotpath
//dsplint:wallclock
func (d *nativeDriver) now() int64 {
	d.born = time.Now().UnixNano()
	return d.born
}

// stamp is the coarse Born clock: the last reading, taken once per source
// invocation (per-tuple timestamps would themselves be a measurable cost).
//
//dsp:hotpath
func (d *nativeDriver) stamp() int64 { return d.born }

// slab reuses a recycled batch slab from the conn's free ring when one is
// available, else allocates.
//
//dsp:hotpath
func (d *nativeDriver) slab(to int) []Tuple {
	if s, ok := d.out[to].free.TryPop(); ok {
		return s
	}
	return d.newSlab()
}

// newSlab allocates a batch slab. It is the cold half of slab (hotalloc
// admits no make in a //dsp:hotpath body): link fills the arena with it,
// and slab falls back to it only when the free ring is empty.
func (d *nativeDriver) newSlab() []Tuple { return make([]Tuple, 0, d.slabCap) }

// freeWork is the native cost hook: the work is real, so nothing is
// charged.
type freeWork struct{ ex *executor }

//dsp:hotpath
func (f freeWork) process(t *Tuple) { f.ex.processTuple(t) }

//dsp:hotpath
func (freeWork) invoke(Msg) {}

//dsp:hotpath
func (freeWork) emit(*Tuple, bool) {}

//dsp:hotpath
func (freeWork) barrier(int64, bool) {}

//dsp:hotpath
func (freeWork) work(int, int) {}

//dsp:hotpath
func (freeWork) accessState(int) {}

//dsp:hotpath
func (freeWork) scanState(int) {}

//dsp:hotpath
func (freeWork) scanScratch(int) {}

// send pushes one message, blocking (and eventually parking) when the
// ring is full: this is where backpressure propagates upstream.
//
//dsp:hotpath
func (d *nativeDriver) send(to int, m Msg) { d.out[to].data.Push(m) }
