package engine

import (
	"math"
	"testing"
	"time"

	"streamscale/internal/hw"
	"streamscale/internal/trace"
)

// clockPort is a source executor's transport on a clock the test sets. It
// records the Born stamp of every data tuple sent, in order, and counts
// the tuples sent before their intended arrival.
type clockPort struct {
	clock int64
	born  []int64
	early int
}

func (p *clockPort) now() int64       { return p.clock }
func (p *clockPort) stamp() int64     { return p.clock }
func (p *clockPort) slab(int) []Tuple { return nil }
func (p *clockPort) send(_ int, m Msg) {
	if m.Stream == AckStream {
		return
	}
	for _, t := range m.Batch {
		p.born = append(p.born, t.Born)
		if t.Born > p.clock {
			p.early++
		}
	}
}

// TestOpenLoopStampsDriftFree: an open-loop source stamps event n at
// origin + n/rate, to the nanosecond, however large the clock's values and
// however late its invocations start. The clock starts at a UnixNano-scale
// epoch, where a float64 holding absolute instants rounds to 256 ns.
func TestOpenLoopStampsDriftFree(t *testing.T) {
	const (
		epoch  = int64(1_760_000_000_123_456_789)
		events = 100_000
	)
	for _, rate := range []float64{10_000, 15_000, 20_000, 30_000} {
		for _, batch := range []int{1, 4} {
			topo := NewTopology("drift")
			topo.AddSource("src", 1, func() Source { return &burstSource{n: events, per: 1} },
				Stream(DefaultStream, "a", "b"))
			topo.AddOp("sink", 1, func() Operator { return ProcessFunc(func(Context, Tuple) {}) }).
				SubDefault("src", Shuffle())
			ex := newExecutors(topo, &execConfig{seed: 1, batch: batch, rate: rate, sampleEvery: 8, hz: 1e9}, nil)[0]
			port := &clockPort{clock: epoch + 3_000_000}
			ex.port, ex.cost = port, freeWork{ex}
			ex.prepare(epoch)
			for i := 0; ; i++ {
				if due := ex.due(); port.clock < due {
					port.clock = due
				}
				if i%7 == 3 {
					port.clock += 300_000 // a late start: backpressure, a descheduled goroutine
				}
				alive := ex.sourceStep(port.clock)
				port.clock += 2_000 // the invocation's own work
				if !alive {
					break
				}
			}
			if len(port.born) != events {
				t.Fatalf("rate %g S=%d: %d tuples sent, want %d", rate, batch, len(port.born), events)
			}
			origin := port.born[0]
			worst := 0.0
			for n, b := range port.born {
				if d := math.Abs(float64(b-origin) - float64(n)*1e9/rate); d > worst {
					worst = d
				}
			}
			if worst > 1 {
				t.Errorf("rate %g S=%d: a Born stamp is %.1f ns off origin + n/rate", rate, batch, worst)
			}
			// Where the period is not a whole number of nanoseconds, the
			// pacing gaps truncate it (DESIGN.md §14), so a tuple may leave
			// up to a nanosecond per event before its arrival.
			if math.Mod(1e9, rate) == 0 && port.early > 0 {
				t.Errorf("rate %g S=%d: %d tuples sent before their intended arrival", rate, batch, port.early)
			}
		}
	}
}

// leaveCheck wraps a source executor's transport and cost hook and checks
// that no data tuple leaves before it arrives: each tuple's emission
// instant, EmitAt, is at or after its Born stamp. The simulator's cost hook
// sets EmitAt; on the native runtime clock reads the wall clock at emit.
type leaveCheck struct {
	transport
	costHook
	clock       func() int64
	sent, early int
	worst       int64
}

func (c *leaveCheck) emit(t *Tuple, ack bool) {
	c.costHook.emit(t, ack)
	if c.clock != nil {
		t.EmitAt = c.clock()
	}
}

func (c *leaveCheck) send(to int, m Msg) {
	if m.Stream != AckStream {
		for _, t := range m.Batch {
			c.sent++
			if t.EmitAt < t.Born {
				c.early++
				c.worst = max(c.worst, t.Born-t.EmitAt)
			}
		}
	}
	c.transport.send(to, m)
}

// checkSources wraps every source executor in a leaveCheck.
func checkSources(execs []*executor, clock func() int64) []*leaveCheck {
	var checks []*leaveCheck
	for _, e := range execs {
		if e.src != nil {
			c := &leaveCheck{transport: e.port, costHook: e.cost, clock: clock}
			e.port, e.cost = c, c
			checks = append(checks, c)
		}
	}
	return checks
}

func reportEarly(t *testing.T, name string, checks []*leaveCheck) {
	t.Helper()
	var sent, early int
	var worst int64
	for _, c := range checks {
		sent, early, worst = sent+c.sent, early+c.early, max(worst, c.worst)
	}
	if sent == 0 {
		t.Errorf("%s: the sources sent nothing", name)
	}
	if early > 0 {
		t.Errorf("%s: %d of %d source tuples left before their intended arrival, the worst by %d ticks",
			name, early, sent, worst)
	}
}

// runSimChecked is RunSim with every source executor wrapped in a
// leaveCheck; the wrapper charges nothing, so the run is cycle-exact.
func runSimChecked(t *testing.T, topo *Topology, cfg SimConfig) *Result {
	t.Helper()
	cfg = cfg.Resolve()
	xt, err := BuildExecTopology(topo, cfg.System)
	if err != nil {
		t.Fatal(err)
	}
	rt := &simRuntime{cfg: cfg, topo: xt, machine: hw.AcquireMachine(cfg.Spec, len(cfg.EnabledCores()))}
	defer hw.ReleaseMachine(rt.machine)
	if err := rt.build(); err != nil {
		t.Fatal(err)
	}
	checks := checkSources(rt.execs, nil)
	res, err := rt.run(topo.Name)
	if err != nil {
		t.Fatal(err)
	}
	reportEarly(t, topo.Name, checks)
	return res
}

// TestOpenLoopNoEarlyEmission: an open-loop source invocation starts no
// earlier than the intended arrival of the last event it emits, so no
// tuple leaves before it arrives, at every batch size, on both runtimes.
// The rates' periods are whole ticks (50,000 ns; 24,000 cycles), so the
// pacing gaps carry no truncation. At S=1 the simulated run is the one
// the executor produced before the batch rule (pinned digest).
func TestOpenLoopNoEarlyEmission(t *testing.T) {
	s1 := map[string]string{"storm": "85fbdd8dd6b0bb81", "flink": "1d1fd406274d4696"}
	for _, sys := range []SystemProfile{Storm(), Flink()} {
		for _, batch := range []int{1, 2, 4} {
			res := runSimChecked(t, nopWC(200), SimConfig{System: sys, Seed: 5, Sockets: 1,
				BatchSize: batch, SourceRate: 100_000, LatencySampleEvery: 1})
			if got := resultDigest(res); batch == 1 && got != s1[sys.Name] {
				t.Errorf("sim %s S=1: digest %s, want %s", sys.Name, got, s1[sys.Name])
			}

			drivers, err := buildNative(nopWC(400), NativeConfig{System: sys, Seed: 5, BatchSize: batch,
				SourceRate: 20_000, Chaining: true})
			if err != nil {
				t.Fatal(err)
			}
			execs := make([]*executor, len(drivers))
			for i, d := range drivers {
				execs[i] = d.ex
			}
			checks := checkSources(execs, func() int64 { return time.Now().UnixNano() })
			runNative(drivers)
			reportEarly(t, "native "+sys.Name, checks)
		}
	}
	// The open-loop configurations of the golden digests the batch rule
	// moved, and flink-fan, whose source emits three events per Next.
	for _, c := range simGoldenCases() {
		if c.cfg.SourceRate > 0 && c.cfg.BatchSize > 1 {
			runSimChecked(t, c.topo(), c.cfg)
		}
	}
	flink := Flink()
	flink.CheckpointInterval = 200_000
	runSimChecked(t, nopWC(60), SimConfig{System: flink, Seed: 4, Sockets: 1, BatchSize: 2,
		SourceRate: 50_000, Trace: trace.New(trace.Config{SampleEvery: 3})})
}
