package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// size scales every workload's inputs; 1 is the benchmark, the tests
	// use a tiny size.
	size float64
}

// endToEnd lists the end-to-end metrics every workload reports, in
// BENCHMARK.json order. An operation is a cell (sim-cells) or a source
// event (native-open).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// obs observes a traced pass: spans around each call into a layer, and
// per-layer samples. A nil *obs observes nothing.
type obs struct {
	tr  *tracer
	lay map[string][]float64
}

func newObs() *obs { return &obs{tr: newTracer(), lay: map[string][]float64{}} }

func (o *obs) tracing() bool { return o != nil }

func (o *obs) nextOp() {
	if o != nil {
		o.tr.nextOp()
	}
}

func (o *obs) begin(name string) int {
	if o == nil {
		return -1
	}
	return o.tr.begin(name)
}

func (o *obs) end(i int) {
	if o != nil {
		o.tr.end(i)
	}
}

// add records one sample of a per-layer metric; the metric is the median
// of its samples.
func (o *obs) add(name string, v float64) {
	if o != nil {
		o.lay[name] = append(o.lay[name], v)
	}
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median.
const setupReps = 3

// passSample is one timed pass.
type passSample struct {
	res  passResult
	wall time.Duration
}

// runPasses repeats complete passes until the time budget is spent and
// the passes hold enough latency samples for the tail rule to reach the
// workload's percentile, so that a slow host cannot change which
// percentile a run reports. When o is non-nil it also records the Go
// runtime's allocation and collector activity per pass.
func runPasses(sp spec, w workload, o *obs, seconds float64) ([]passSample, error) {
	var out []passSample
	need := int64(math.Ceil(minBeyond / (1 - sp.tailLimit/100)))
	start := time.Now()
	for tailSamples(out) < need || time.Since(start).Seconds() < seconds {
		// Every pass starts from a collected heap, so no pass inherits
		// the previous one's garbage; collection during the pass counts.
		runtime.GC()
		t0 := time.Now()
		pr, err := w.pass(o)
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		out = append(out, passSample{res: pr, wall: wall})
		if c := pr.cost; o != nil {
			o.add("go.alloc_mb", c.allocBytes/1e6)
			o.add("go.alloc_bytes_per_op", c.allocBytes/float64(pr.ops))
			o.add("go.gc_cycles", c.gcCycles)
			o.add("go.gc_cpu_frac", c.gcCPU/c.cpu.Seconds())
		}
	}
	return out, nil
}

// tailSamples is the sample count the tail rule rests on: the pooled
// per-operation times, or the smallest per-pass latency histogram.
func tailSamples(passes []passSample) int64 {
	var pooled int64
	hist := int64(math.MaxInt64)
	for _, p := range passes {
		pooled += int64(len(p.res.latMs))
		if h := p.res.hist; h != nil {
			hist = min(hist, h.Count())
		}
	}
	if pooled > 0 || len(passes) == 0 {
		return pooled
	}
	return hist
}

// summary is the end-to-end result of a set of passes.
type summary struct {
	opsPerS, p50, tailV, cpuUs float64
	workPerS                   float64
	tail                       tailChoice
	rates, cpus                []float64 // ops per second and CPU per op of each pass
	ladder                     []string  // the supported percentiles' values
	attempted, failed          int64
	passes                     int
	wall                       time.Duration
}

func summarize(sp spec, passes []passSample) (summary, error) {
	var s summary
	var rate, cpu, work []float64
	var pooled []float64
	for _, p := range passes {
		el := p.res.elapsed
		rate = append(rate, float64(p.res.ops)/el)
		work = append(work, p.res.work/el)
		cpu = append(cpu, p.res.cost.cpu.Seconds()*1e6/float64(p.res.ops))
		s.attempted += p.res.ops
		s.failed += p.res.failed
		s.wall += p.wall
		pooled = append(pooled, p.res.latMs...)
	}
	s.passes = len(passes)
	s.rates, s.cpus = rate, cpu
	s.opsPerS, s.cpuUs, s.workPerS = iqm(rate), iqm(cpu), iqm(work)
	var ok bool
	s.tail, ok = pickTail(tailSamples(passes), sp.tailLimit)
	if !ok {
		return s, fmt.Errorf("%s: %d latency samples cannot support even a median tail", sp.name, s.tail.Samples)
	}
	// at is the q-quantile of the run's operation or tuple latencies.
	at := func(q float64) float64 {
		if len(pooled) > 0 {
			// Per-operation host times: exact quantiles over the pooled
			// samples.
			return quantile(pooled, q)
		}
		// Per-tuple latency histograms: each pass's quantile, then the
		// interquartile mean over passes, which also smooths the
		// histogram's bucket edges.
		var qs []float64
		for _, p := range passes {
			qs = append(qs, p.res.hist.Quantile(q))
		}
		return iqm(qs)
	}
	s.p50, s.tailV = at(0.5), at(s.tail.Pct/100)
	// Every percentile the sample count supports, to show which of them
	// repeat from run to run.
	for _, p := range tailLadder {
		if beyond(s.tail.Samples, p) >= minBeyond {
			s.ladder = append(s.ladder, fmt.Sprintf("p%g %.4g", p, at(p/100)))
		}
	}
	return s, nil
}

// metrics returns the end-to-end metrics of the summary.
func (s summary) metrics(setup []float64, peakRSSMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":     {median(setup), "s"},
		"peak_rss_mb": {peakRSSMB, "MB"},
		"ops_per_s":   {s.opsPerS, "1/s"},
		"p50_ms":      {s.p50, "ms"},
		"tail_ms":     {s.tailV, "ms"},
	}
}

// run executes one benchmark run and returns its report; the
// human-readable lines go to w as the run proceeds.
func run(cfg runConfig, w io.Writer) (report, error) {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (have sim-cells, native-open)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return report{}, fmt.Errorf("-seconds must be positive")
	}
	fmt.Fprintf(w, "perfbench %s (%s loop): seed %d, %.0f s measured, trace %v\n",
		sp.name, sp.loop, cfg.seed, cfg.seconds, cfg.trace)
	refBefore := refLoop()
	steal := startSteal()
	if cfg.trace {
		return runTraced(cfg, sp, w, refBefore, steal)
	}

	var wl workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		wl = sp.make(cfg.seed, cfg.size)
		t0 := time.Now()
		if err := wl.setup(nil); err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	passes, err := runPasses(sp, wl, nil, cfg.seconds)
	if err != nil {
		return report{}, err
	}
	s, err := summarize(sp, passes)
	if err != nil {
		return report{}, err
	}
	refAfter := refLoop()
	rep := report{
		Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed,
		Metrics: s.metrics(setups, float64(readUsage().maxRSSKB)/1024),
	}
	printSummary(w, sp, s, rep.Metrics, setups)
	fmt.Fprintf(w, "  host: ref_ms %.2f before, %.2f after; steal_frac %.4f\n",
		ms(refBefore), ms(refAfter), steal.frac())
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// printSummary writes the human-readable end-to-end lines, including the
// workload's own names for the generic metrics.
func printSummary(w io.Writer, sp spec, s summary, m map[string]metric, setups []float64) {
	fmt.Fprintf(w, "  %d passes, %d %ss in %.1f s of passes; set-ups %v s\n",
		s.passes, s.attempted, sp.op, s.wall.Seconds(), roundAll(setups))
	for _, e := range endToEnd {
		fmt.Fprintf(w, "  %-14s %14.6g %s\n", e.name, m[e.name].Value, e.unit)
	}
	fmt.Fprintf(w, "  tail_ms is p%g over %d samples (%s ms)\n", s.tail.Pct, s.tail.Samples, strings.Join(s.ladder, ", "))
	fmt.Fprintf(w, "  by pass: ops_per_s %v, cpu_us_per_op %v\n", roundAll(s.rates), roundAll(s.cpus))
	frac := float64(s.failed) / float64(max(s.attempted, 1))
	fmt.Fprintf(w, "  cpu_us_per_op  %14.6g us\n", s.cpuUs)
	fmt.Fprintf(w, "  fail_frac      %14.6g (%d of %d %ss)\n", frac, s.failed, s.attempted, sp.op)
	switch sp.name {
	case "sim-cells":
		fmt.Fprintf(w, "  sim_kev_per_s %g kev/s, cell_p50_ms %g, cell_tail_ms %g\n", s.workPerS/1e3, s.p50, s.tailV)
	case "native-open":
		fmt.Fprintf(w, "  lat_p50_ms %g, lat_tail_ms %g, cpu_ms_per_kev %g\n", s.p50, s.tailV, s.cpuUs)
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// runTraced is the traced run: half the time untraced, half traced, then
// one small traced pass of every other workload and of the plan exercise
// so that every layer is measured, then the isolated layer probes.
func runTraced(cfg runConfig, sp spec, w io.Writer, refBefore time.Duration, steal stealMeter) (report, error) {
	own := newObs()
	wl := sp.make(cfg.seed, cfg.size)
	if err := wl.setup(own); err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	plain, err := runPasses(sp, wl, nil, cfg.seconds/2)
	if err != nil {
		return report{}, err
	}
	traced, err := runPasses(sp, wl, own, cfg.seconds/2)
	if err != nil {
		return report{}, err
	}
	su, err := summarize(sp, plain)
	if err != nil {
		return report{}, err
	}
	st, err := summarize(sp, traced)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(w, "  %-14s %14s %14s\n", "end-to-end", "untraced", "traced")
	mu, mt := su.metrics(nil, 0), st.metrics(nil, 0)
	for _, e := range endToEnd[2:] {
		fmt.Fprintf(w, "  %-14s %14.6g %14.6g %s\n", e.name, mu[e.name].Value, mt[e.name].Value, e.unit)
	}
	fmt.Fprintf(w, "  %-14s %14.6g %14.6g us\n", "cpu_us_per_op", su.cpuUs, st.cpuUs)
	spanLayers(own)

	rep := report{
		Attempted: su.attempted + st.attempted,
		Failed:    su.failed + st.failed,
		Metrics:   map[string]metric{},
	}

	// Layers this workload does not reach: one small traced pass of each
	// other workload and of the plan exercise. The workload's own samples
	// take precedence; every pass's checks count.
	obsAll := []*obs{own}
	names := []string{sp.name}
	for _, other := range append(append([]spec(nil), specs...), planSpec) {
		if other.name == sp.name {
			continue
		}
		so := newObs()
		ow := other.make(cfg.seed, cfg.size*sideSize)
		if err := ow.setup(so); err != nil {
			return report{}, fmt.Errorf("%s side pass set-up: %w", other.name, err)
		}
		pr, err := ow.pass(so)
		if err != nil {
			return report{}, fmt.Errorf("%s side pass: %w", other.name, err)
		}
		rep.Attempted += pr.ops
		rep.Failed += pr.failed
		spanLayers(so)
		obsAll = append(obsAll, so)
		names = append(names, other.name)
	}
	if err := probeLayers(own, cfg.seed, cfg.size); err != nil {
		return report{}, err
	}
	refAfter := refLoop()
	// CPU per operation, not throughput: an open loop's rate is fixed.
	own.add("tracing.overhead_ratio", st.cpuUs/su.cpuUs)
	own.add("host.ref_ms", (ms(refBefore)+ms(refAfter))/2)
	own.add("host.unstolen_frac", 1-steal.frac())

	merged := map[string][]float64{}
	for _, o := range obsAll {
		for k, v := range o.lay {
			if _, ok := merged[k]; !ok {
				merged[k] = v
			}
		}
	}
	derive(merged)

	rep.Correct = rep.Failed == 0
	for _, l := range perLayer {
		v, ok := merged[l.name]
		if !ok {
			return report{}, fmt.Errorf("layer metric %s was not measured", l.name)
		}
		rep.Metrics[l.name] = metric{median(v), l.unit}
	}
	fmt.Fprintln(w, "  per-layer:")
	for _, l := range perLayer {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", l.name, rep.Metrics[l.name].Value, l.unit)
	}
	fmt.Fprintln(w, "  self time by span (traced passes of this workload):")
	for _, lt := range own.tr.selfTimes() {
		fmt.Fprintf(w, "  %-20s %6d spans %10.1f ms total %10.1f ms self\n", lt.Name, lt.Count, ms(lt.Total), ms(lt.Self))
	}
	path := filepath.Join(cfg.out, "trace-"+sp.name+".json")
	tracers := make([]*tracer, len(obsAll))
	for i, o := range obsAll {
		tracers[i] = o.tr
	}
	if err := writeTraces(path, names, tracers); err != nil {
		return report{}, err
	}
	fmt.Fprintf(w, "  spans written to %s\n", path)
	return rep, nil
}

// sideSize is the size, relative to the run's, of the single pass a traced
// run makes of each other workload.
const sideSize = 0.3

// spanLayers turns span durations into per-layer samples.
func spanLayers(o *obs) {
	for _, s := range []struct {
		span, metric string
		scale        float64
	}{
		{"bench.run", "bench.run_ms", 1},
		{"apps.build", "apps.build_ms", 1},
		{"bench.probe", "bench.probe_ms", 1},
		{"place.calibrate", "place.calibrate_ms", 1},
		{"place.bnb", "place.bnb_ms", 1},
		{"place.joint", "place.joint_ms", 1},
		{"bench.estimate", "bench.estimate_us", 1e3},
		{"engine.native_run", "engine.native_run_ms", 1},
	} {
		for _, d := range o.tr.durations(s.span) {
			o.add(s.metric, d*s.scale)
		}
	}
}

// derive computes the layer metrics that combine others: the native
// pipeline's CPU per event over the part of it the app's own source and
// operators take, so what the runtime adds shows as a positive ratio.
func derive(m map[string][]float64) {
	cpuNs := median(m["os.cpu_ms_per_kev"]) * 1e3
	m["engine.runtime_ratio"] = []float64{cpuNs / (median(m["gen.source_ns_per_event"]) + median(m["apps.ops_ns_per_event"]))}
}
