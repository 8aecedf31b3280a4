package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"

	"streamscale/internal/apps"
	"streamscale/internal/bench"
	"streamscale/internal/engine"
	"streamscale/internal/hw"
	"streamscale/internal/metrics"
	"streamscale/internal/place"
	"streamscale/internal/place/eval"
)

// defaultSeed is the seed the golden outputs were recorded at.
const defaultSeed = 1

//go:embed golden.json
var goldenJSON []byte

// golden holds the expected outputs at the default seed and full size: one
// digest per sim-cells cell.
type golden struct {
	SimCells map[string]string `json:"sim-cells"`
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// passResult is what one pass of a workload did.
type passResult struct {
	ops, failed int64
	// latMs holds one host time per operation (cells, decisions); hist is
	// the native runtime's per-tuple latency histogram. A workload fills
	// exactly one of them.
	latMs []float64
	hist  *metrics.Histogram
	// elapsed is the time the operations themselves took, in seconds, and
	// cost what the process spent on them.
	elapsed float64
	cost    cost
	// work is the simulated source events of a sim-cells pass.
	work float64
}

// workload is one named benchmark input. setup does everything a pass
// needs done first, including a warm-up pass; pass must then repeat
// identical work each time it is called.
type workload interface {
	setup(o *obs) error
	pass(o *obs) (passResult, error)
}

// spec describes a workload to the harness.
type spec struct {
	name string
	// loop is "closed" or "open", and op names one operation, for the
	// human-readable lines.
	loop, op string
	// tailLimit is the highest percentile that repeats from run to run.
	tailLimit float64
	make      func(seed int64, size float64) workload
}

var specs = []spec{
	{
		name: "sim-cells", loop: "closed", op: "cell",
		tailLimit: 75,
		make:      func(seed int64, size float64) workload { return &simCells{seed: seed, size: size} },
	},
	{
		name: "native-open", loop: "open", op: "source event",
		tailLimit: 95,
		make: func(seed int64, size float64) workload {
			return &native{seed: seed, events: sized(nativeOpenEvents, size), rate: nativeOpenRate, sampleEvery: 1}
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func sized(n int, size float64) int {
	v := int(float64(n) * size)
	if v < 1 {
		v = 1
	}
	return v
}

// ---- sim-cells ----

// simEventScale shrinks every cell's default event count so that one pass
// over the 24-cell mix takes a few seconds; the mix still spends its time
// where a cold report does.
const simEventScale = 0.1

type simCells struct {
	seed  int64
	size  float64
	cells []bench.Cell
	ref   []uint64 // per-cell digest from the warm-up pass
	bad   []bool   // cells whose warm-up digest missed the golden one
}

// simMix is every app and system on two machines: one socket without
// batching (the Fig 12 baseline), and the report's four-socket machine
// (operator parallelism scaled by 4, as Figs 14 and 15 run it) with Fig 15's
// tuple batching S = place.DefaultBatchSize, spread by the OS.
func simMix(seed int64, size float64) []bench.Cell {
	var out []bench.Cell
	for _, app := range []string{"wc", "sd", "lr", "fd", "lg", "vs"} {
		for _, sys := range []string{"storm", "flink"} {
			for _, m := range []struct{ sockets, scale, batch int }{{1, 1, 1}, {4, 4, place.DefaultBatchSize}} {
				out = append(out, bench.Cell{
					App: app, System: sys, Sockets: m.sockets, Scale: m.scale, BatchSize: m.batch,
					EventScale: simEventScale * size, Seed: seed,
				})
			}
		}
	}
	return out
}

func cellLabel(c bench.Cell) string {
	return fmt.Sprintf("%s/%s/sockets=%d/scale=%d/batch=%d", c.App, c.System, c.Sockets, c.Scale, c.BatchSize)
}

// resultDigest hashes the deterministic outputs of one simulated cell.
func resultDigest(r *engine.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d/%x", r.SourceEvents, r.SinkEvents, int64(r.ChargedCycles), math.Float64bits(r.ElapsedSeconds))
	return h.Sum64()
}

func (s *simCells) setup(o *obs) error {
	bench.SetJobs(1)
	bench.SetProgress(false)
	s.cells = simMix(s.seed, s.size)
	s.ref = nil
	res, err := s.pass(o) // warm-up: records the reference digests
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("sim-cells: %d cells failed the ledger check in warm-up", res.failed)
	}
	s.bad = make([]bool, len(s.cells))
	if s.seed == defaultSeed && s.size == 1 {
		g, err := loadGolden()
		if err != nil {
			return err
		}
		for i, c := range s.cells {
			got := fmt.Sprintf("%016x", s.ref[i])
			if s.bad[i] = g.SimCells[cellLabel(c)] != got; s.bad[i] {
				fmt.Fprintf(os.Stderr, "perfbench: golden mismatch: %q: %q\n", cellLabel(c), got)
			}
		}
	}
	return nil
}

// pass simulates every cell of the mix afresh: the memo is cleared first.
func (s *simCells) pass(o *obs) (passResult, error) {
	bench.ResetMemo()
	warm := s.ref == nil
	var pr passResult
	var invocations, tuples, edgeMsgs, edgeBytes int64
	var charged, qpi float64
	var runNs float64
	for i, c := range s.cells {
		o.nextOp()
		cs := o.begin("cell")
		if o.tracing() {
			b := o.begin("apps.build")
			if _, err := c.Topology(); err != nil {
				return pr, err
			}
			o.end(b)
		}
		runtime.GC() // each cell starts from a collected heap
		rs := o.begin("bench.run")
		c0, t0 := readCost(), time.Now()
		res, err := bench.Run(c)
		d := time.Since(t0)
		pr.cost.add(c0.since())
		o.end(rs)
		o.end(cs)
		pr.ops++
		if err != nil {
			return pr, fmt.Errorf("%s: %w", cellLabel(c), err)
		}
		pr.latMs = append(pr.latMs, float64(d)/1e6)
		pr.elapsed += d.Seconds()
		pr.work += float64(res.SourceEvents)
		dg := resultDigest(res)
		if warm {
			s.ref = append(s.ref, dg)
		}
		if res.ChargedCycles != res.Profile.Costs.Total() || dg != s.ref[i] || (s.bad != nil && s.bad[i]) {
			pr.failed++
		}
		for _, e := range res.Executors {
			invocations += e.Invocations
			tuples += e.Tuples
		}
		for _, e := range res.Edges {
			edgeMsgs += e.Msgs
			edgeBytes += e.Bytes
		}
		charged += float64(res.ChargedCycles)
		qpi += float64(res.QPIBytes)
		runNs += float64(d)
	}
	if o.tracing() {
		o.add("engine.invocations", float64(invocations))
		o.add("engine.tuples", float64(tuples))
		o.add("engine.edge_msgs", float64(edgeMsgs))
		o.add("engine.edge_mb", float64(edgeBytes)/1e6)
		o.add("hw.charged_gcycles", charged/1e9)
		o.add("hw.qpi_mb", qpi/1e6)
		o.add("engine.sim_ns_per_invocation", runNs/float64(invocations))
		o.add("hw.host_ns_per_kcycle", runNs/(charged/1e3))
	}
	return pr, nil
}

// ---- plan ----

// plan answers one planning request the way dspplace -strategy does, with
// both model-only strategies, bnb and joint, plus the tier's
// bench.EstimateCell screen, on one probe-calibrated model: lg/storm at
// scale 4 on four sockets, whose searches do real work (about 70 ms joint
// and 200 ms bnb on a 2-core host). It is not a workload of its own: its
// decision times moved by up to a third from run to run on a shared
// 2-core host (see README.md), so traced runs measure the place, eval and
// memo layers through one pass of it.
var planSpec = spec{
	name: "plan",
	make: func(seed int64, _ float64) workload { return &plan{seed: seed} },
}

type plan struct {
	seed  int64
	cell  bench.Cell
	model *place.Model
	work  *place.Workload
	est   *eval.Estimator
	ref   string // the warm-up pass's decision
}

// setup simulates and calibrates the request's probe and makes the
// warm-up decision.
func (p *plan) setup(o *obs) error {
	bench.SetJobs(1)
	bench.SetProgress(false)
	bench.ResetMemo()
	sys := engine.Storm()
	p.cell = bench.Cell{App: "lg", System: "storm", Sockets: 4, Scale: 4, BatchSize: 1, Seed: p.seed}
	probe := bench.ProbeCell(p.cell)
	ps := o.begin("bench.probe")
	res, err := bench.Run(probe)
	o.end(ps)
	if err != nil {
		return fmt.Errorf("plan probe: %w", err)
	}
	cs := o.begin("place.calibrate")
	p.model, err = place.Calibrate(res, hw.TableIII(), sys, 1)
	o.end(cs)
	if err != nil {
		return err
	}
	topo, err := probe.Topology()
	if err != nil {
		return err
	}
	if p.work, err = place.NewWorkload(p.model, topo, sys); err != nil {
		return err
	}
	if p.est, err = eval.New(res, hw.TableIII(), sys, 1); err != nil {
		return err
	}
	pr, err := p.pass(o) // warm-up: fills the memo, records the decision
	if err != nil {
		return err
	}
	if pr.failed > 0 {
		return fmt.Errorf("plan: the warm-up decision failed its checks")
	}
	return nil
}

// candidates is one search's ranked output, reduced to what the checks
// need; par is nil for placement-only candidates.
type candidates struct {
	assign, par [][]int
	scores      []float64
}

func (c candidates) String() string {
	return fmt.Sprintf("n=%d best=%x assign=%v par=%v", len(c.scores), math.Float64bits(c.scores[0]), c.assign[0], c.par[0])
}

// decide runs both strategies and the tier screen.
func (p *plan) decide(o *obs) (bnb, joint candidates, jr *place.JointResult, err error) {
	s := o.begin("place.bnb")
	for _, c := range p.model.Search(place.SearchOptions{Workers: 1}) {
		bnb.assign = append(bnb.assign, c.Assign)
		bnb.par = append(bnb.par, nil)
		bnb.scores = append(bnb.scores, c.Score)
	}
	o.end(s)
	s = o.begin("place.joint")
	jr, err = p.work.SearchJoint(place.JointOptions{Search: place.SearchOptions{Workers: 1}})
	o.end(s)
	if err != nil {
		return bnb, joint, nil, err
	}
	for _, c := range jr.Candidates {
		joint.assign = append(joint.assign, c.Assign)
		joint.par = append(joint.par, c.Par)
		joint.scores = append(joint.scores, c.Score)
	}
	if len(bnb.scores) == 0 || len(joint.scores) == 0 {
		return bnb, joint, nil, fmt.Errorf("plan: a search returned no candidates")
	}
	s = o.begin("bench.estimate")
	_, err = bench.EstimateCell(p.cell)
	o.end(s)
	return bnb, joint, jr, err
}

// rescore recomputes every candidate's score exactly and reports whether
// each matches the one the search returned.
func (p *plan) rescore(c candidates) (bool, error) {
	for i, a := range c.assign {
		m := p.model
		if c.par[i] != nil {
			var err error
			if m, err = p.work.Reparallelize(c.par[i]); err != nil {
				return false, err
			}
		}
		want := m.Bottleneck(a)
		if math.Abs(want-c.scores[i]) > 1e-9*math.Abs(want) {
			return false, nil
		}
	}
	return true, nil
}

func (p *plan) pass(o *obs) (passResult, error) {
	pr := passResult{ops: 1}
	o.nextOp()
	runs := bench.MemoStats().Runs
	runtime.GC() // the decision starts from a collected heap
	ds := o.begin("decide")
	c0, t0 := readCost(), time.Now()
	bnb, joint, jr, err := p.decide(o)
	dt := time.Since(t0)
	pr.cost = c0.since()
	o.end(ds)
	if err != nil {
		return pr, err
	}
	pr.latMs = []float64{float64(dt) / 1e6}
	pr.elapsed = dt.Seconds()
	exactB, err := p.rescore(bnb)
	if err != nil {
		return pr, err
	}
	exactJ, err := p.rescore(joint)
	if err != nil {
		return pr, err
	}
	line := fmt.Sprintf("bnb %s joint %s", bnb, joint)
	warm := p.ref == ""
	if warm {
		p.ref = line
	}
	// A decision that simulated would put simulator time in the timed
	// section; outside the warm-up pass the probe must be a memo hit.
	simulated := !warm && bench.MemoStats().Runs != runs
	if !exactB || !exactJ || line != p.ref || simulated {
		pr.failed++
	}
	if o.tracing() {
		o.add("place.joint_vectors_screened", float64(jr.VectorsScreened))
		o.add("place.joint_vectors_searched", float64(jr.VectorsSearched))
		p.traceEstimator(o)
	}
	return pr, nil
}

// traceEstimator times the analytical estimate alone, over enough calls
// to resolve microseconds.
func (p *plan) traceEstimator(o *obs) {
	const n = 200
	est := p.est
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := est.Estimate(eval.Target{Sockets: 1 + i%4, Batch: 1 << (i % 4)}); err != nil {
			return
		}
	}
	o.add("eval.estimate_us", float64(time.Since(t0))/1e3/n)
}

// ---- native ----

const (
	// nativeClosedEvents is the size of the closed-loop layer probe.
	nativeClosedEvents = 30000
	nativeOpenEvents   = 10000
	// nativeOpenRate is the offered load per source executor, events/s:
	// roughly a sixth of the pipeline's closed-loop capacity on a 2-core
	// host.
	nativeOpenRate = 20000
)

// native runs wc/storm with acks on, batch S=4 and operator chaining, the
// pipeline the CI perf gate runs, on the goroutine runtime.
type native struct {
	seed        int64
	events      int
	rate        float64 // 0: closed loop
	sampleEvery int
	sinkRef     int64 // the simulator's sink count for the same topology and seed
}

func (n *native) topology() (*engine.Topology, error) {
	return apps.Build("wc", apps.Config{Events: n.events, Seed: n.seed})
}

func (n *native) config() engine.NativeConfig {
	return engine.NativeConfig{
		System: engine.Storm(), BatchSize: 4, Seed: n.seed, Chaining: true,
		SourceRate: n.rate, LatencySampleEvery: n.sampleEvery,
	}
}

func (n *native) setup(o *obs) error {
	topo, err := n.topology()
	if err != nil {
		return err
	}
	res, err := engine.RunSim(topo, engine.SimConfig{System: engine.Storm(), Sockets: 1, Seed: n.seed})
	if err != nil {
		return err
	}
	n.sinkRef = res.SinkEvents
	// The first pass runs well below steady speed; set-up absorbs it.
	pr, err := n.pass(o)
	if err != nil {
		return err
	}
	if pr.failed > 0 {
		return fmt.Errorf("native: %d of %d events failed their checks in warm-up", pr.failed, pr.ops)
	}
	return nil
}

func (n *native) pass(o *obs) (passResult, error) {
	var pr passResult
	topo, err := n.topology()
	if err != nil {
		return pr, err
	}
	o.nextOp()
	u0, c0 := readUsage(), readCost()
	s := o.begin("engine.native_run")
	res, err := engine.RunNative(topo, n.config())
	o.end(s)
	pr.cost = c0.since()
	du := readUsage().sub(u0)
	if err != nil {
		return pr, err
	}
	pr.ops = res.SourceEvents
	pr.failed = res.SourceEvents - res.AckerCompleted
	if res.SinkEvents != n.sinkRef {
		pr.failed = res.SourceEvents
	}
	pr.hist = res.Latency
	pr.elapsed = res.ElapsedSeconds
	if o.tracing() {
		var tuples, inv int64
		for _, e := range res.Executors {
			tuples += e.Tuples
			inv += e.Invocations
		}
		kev := float64(res.SourceEvents) / 1e3
		o.add("engine.tuples_per_invocation", float64(tuples)/float64(inv))
		o.add("engine.sink_events", float64(res.SinkEvents))
		o.add("engine.acked_roots", float64(res.AckerCompleted))
		o.add("metrics.latency_samples", float64(res.Latency.Count()))
		o.add("os.vcsw_per_kev", float64(du.vcsw)/kev)
		o.add("os.ivcsw_per_kev", float64(du.ivcsw)/kev)
		o.add("os.cpu_ms_per_kev", float64(du.cpu)/1e6/kev)
		if n.rate > 0 {
			// Pass time over the schedule's length: 1 when the generator
			// and the drain kept to the offered rate.
			o.add("gen.schedule_ratio", res.ElapsedSeconds/(float64(n.events)/n.rate))
		}
	}
	return pr, nil
}
