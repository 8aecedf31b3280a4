// Command dspbench runs one benchmark application on the simulated
// multi-socket machine and reports throughput, latency, utilization, and
// the processor-time profile.
//
// Usage:
//
//	dspbench -app wc -system storm -sockets 1 -batch 1
//	dspbench -app tm -system flink -sockets 4 -scale 4 -events 600
//	dspbench -app lr -system storm -sockets 4 -batch 8 -place
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"

	"streamscale/internal/apps"
	"streamscale/internal/bench"

	"streamscale/internal/engine"
	"streamscale/internal/hw"
	"streamscale/internal/place"
	"streamscale/internal/sim"
	"streamscale/internal/trace"
)

func main() {
	var (
		app      = flag.String("app", "wc", "application: "+fmt.Sprint(apps.Names()))
		system   = flag.String("system", "storm", "engine profile: storm | flink")
		sockets  = flag.Int("sockets", 1, "enabled CPU sockets (1-4)")
		cores    = flag.Int("cores", 0, "restrict to the first N cores (0 = all enabled sockets)")
		batch    = flag.Int("batch", 1, "tuple batch size S (1 = no batching)")
		spec     = flag.String("spec", "", "machine spec variant: \"\" (Table III) | 2x16 | 8x4 | turbo | slowmem | fatlink")
		tier     = flag.Bool("tier", false, "fast-tier estimate instead of simulating: one memoized probe calibrates the analytical model, the cell itself is never simulated")
		events   = flag.Int("events", 0, "source events (0 = app default)")
		scale    = flag.Int("scale", 1, "parallelism scale factor")
		seed     = flag.Int64("seed", 1, "random seed")
		placeOpt = flag.Bool("place", false, "apply NUMA-aware executor placement (best plan by Eq. 1 cost)")
		joint    = flag.Bool("joint", false, "joint parallelism + placement optimization (RLAS): co-search executor counts with socket assignment and run the measured winner (4 sockets only)")
		profile  = flag.Bool("profile", true, "print the Table II processor-time breakdown")
		native   = flag.Bool("native", false, "run on the native goroutine runtime (real wall-clock, no processor model)")
		rate     = flag.Float64("rate", 0, "open-loop source rate in events/s per source executor (0 = closed-loop); open-loop latency is measured against the intended arrival schedule")
		noack    = flag.Bool("noack", false, "disable the system profile's ack tracking (e.g. storm without acks)")
		co       = flag.Bool("co", false, "with -rate: re-enable the coordinated-omission bug (latency against actual emission instants) for ablation")
		latEvery = flag.Int("lat-every", 0, "sink latency sampling period (0 = runtime default of 8; open-loop tail runs default to 1)")
		chain    = flag.Bool("chain", false, "with -native: apply operator chaining before running")
		validate = flag.Bool("validate", false, "with -native: run the simulator-validation loop (effect ratios, sim vs native) and exit")
		jobs     = flag.Int("jobs", runtime.NumCPU(), "parallel simulation cells for multi-run steps like -place")
		cache    = flag.String("cache", "", "persistent result cache directory (results are identical with or without it)")
		jsonOut  = flag.Bool("json", false, "also write a machine-readable BENCH_<app>_<system>.json trajectory record")
		quiet    = flag.Bool("quiet", false, "suppress the sweep progress line on stderr")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file on exit")

		traceDir = flag.String("trace", "", "record a cycle-exact trace into this directory (trace.json + stalls.folded + summary.json; see cmd/dsptrace)")
		traceN   = flag.Int("trace-every", trace.DefaultSampleEvery, "with -trace: sample every n-th source tuple tree")
		traceQ   = flag.Int64("trace-cadence", int64(trace.DefaultQueueCadence), "with -trace: queue-depth sampling period in cycles (<0 disables)")
	)
	flag.Parse()
	if math.IsInf(*rate, 0) || math.IsNaN(*rate) {
		fail(fmt.Errorf("-rate must be a finite number, got %v", *rate))
	}
	bench.SetJobs(*jobs)
	if *quiet {
		bench.SetProgress(false)
	}
	stopProf, err := bench.StartProfiles(*cpuprof, *memprof)
	fail(err)
	defer stopProf()
	if *cache != "" {
		pruned, err := bench.EnableDiskCache(*cache)
		fail(err)
		if pruned > 0 {
			fmt.Fprintf(os.Stderr, "dspbench: pruned %d stale cache file(s) from %s\n", pruned, *cache)
		}
	}

	if *native {
		if *validate {
			runNativeValidate()
			return
		}
		runNative(*app, *system, *batch, *events, *scale, *seed, *chain, *jsonOut,
			*rate, *noack, *co, *latEvery)
		return
	}

	if *rate > 0 && *latEvery == 0 {
		*latEvery = 1 // open-loop tail runs observe every sink tuple
	}
	cell := bench.Cell{
		App: *app, System: *system,
		Sockets: *sockets, Cores: *cores,
		BatchSize: *batch, Seed: *seed, Scale: *scale,
		Spec:       *spec,
		SourceRate: *rate, LatencySampleEvery: *latEvery,
		NoAck: *noack, COUncorrected: *co,
	}
	if *events > 0 {
		if def := cell.Events(); def > 0 {
			cell.EventScale = float64(*events) / float64(def)
		}
	}
	var jointCounts benchJointStats
	if *joint {
		if *sockets != 4 {
			fail(fmt.Errorf("-joint plans on the calibrated 4-socket machine; run with -sockets 4"))
		}
		if *placeOpt {
			fail(fmt.Errorf("-joint subsumes -place (the fixed-parallelism winner is its fallback)"))
		}
		js, err := bench.SearchJoint(*app, *system, *batch, *scale)
		fail(err)
		cell.Placement = js.Winner.Placement
		if len(js.Winner.Override) > 0 {
			cell.ParallelismOverride = js.Winner.Override
		}
		jointCounts = benchJointStats{Screened: js.Validation.Screened, Verified: js.Validation.Verified}
		fmt.Printf("joint: %d vector(s) screened, %d searched, %d verified; winner %s (%+.1f%% vs placement-only)\n",
			js.Validation.Screened, js.VectorsSearched, js.Validation.Verified, js.ParString(),
			(js.Throughput/js.FixedThroughput-1)*100)
	}
	if *placeOpt {
		if *sockets == 4 {
			// Model-guided search (internal/place): calibrate from a probe,
			// rank assignments by predicted bottleneck, verify the top few
			// against the unplaced run.
			ps, err := bench.SearchPlacement(*app, *system, *batch, *scale)
			fail(err)
			cell.Placement = bench.PlacementMap(ps.Winner)
			winner := fmt.Sprintf("k=%d", ps.WinnerK)
			if ps.Kept {
				winner = "kept the unplaced run"
			}
			fmt.Printf("placement: model-guided search, %s, %d plans ranked, %d verified, best %.1f k events/s\n",
				winner, ps.Validation.Screened, ps.Validation.Verified, ps.Throughput/1e3)
		} else {
			topo, err := cell.Topology()
			fail(err)
			sys, err := bench.SystemProfile(*system)
			fail(err)
			plans, err := place.PlanFor(topo, sys, *sockets, place.PlaceOptions{Balanced: true})
			fail(err)
			best := plans[len(plans)-1] // largest k among feasible balanced plans
			cell.Placement = best.Placement()
			fmt.Printf("placement: k=%d, estimated cross-socket cost %.1f\n", best.K, best.Cost)
		}
	}

	if *tier {
		if *traceDir != "" {
			fail(fmt.Errorf("-tier never simulates the cell, so there is no run to -trace"))
		}
		if *jsonOut {
			fail(fmt.Errorf("-json records measured trajectories; run without -tier to simulate"))
		}
		est, err := bench.EstimateCell(cell)
		fail(err)
		fmt.Printf("%s on %s: %d sockets, batch S=%d — fast-tier estimate (cell not simulated)\n",
			*app, *system, *sockets, *batch)
		fmt.Printf("  probe        unplaced full machine at S=1: %10.1f k events/s measured\n",
			est.ProbeThroughputEPS/1e3)
		fmt.Printf("  predicted    throughput %10.1f k events/s   mean latency %.2f ms\n",
			est.Pred.ThroughputEPS/1e3, est.Pred.LatencyMs)
		fmt.Printf("  model        bottleneck %.3g cycles   uncertainty %.2f\n",
			est.Pred.BottleneckCycles, est.Pred.Uncertainty)
		return
	}

	var res *engine.Result
	if *traceDir != "" {
		// Traced runs bypass the memo/disk cache: a cached Result carries
		// no trace, and the trace streams must come from a live simulation.
		tr := trace.New(trace.Config{SampleEvery: *traceN, QueueCadence: sim.Cycles(*traceQ)})
		res, err = bench.RunTraced(cell, tr)
		fail(err)
		fail(tr.Write(*traceDir))
		fmt.Fprintf(os.Stderr, "dspbench: wrote trace (%d sampled tuple trees) to %s\n",
			tr.SampledRoots(), *traceDir)
	} else {
		res, err = bench.Run(cell)
		fail(err)
	}

	fmt.Printf("%s on %s: %d sockets, batch S=%d\n", *app, *system, *sockets, *batch)
	fmt.Printf("  throughput   %10.1f k events/s  (%d events in %.3f s simulated, computed in %.2f s host)\n",
		res.Throughput().KPerSecond(), res.SourceEvents, res.ElapsedSeconds, res.WallSeconds)
	fmt.Printf("  latency      p50 %.2f ms   p99 %.2f ms   mean %.2f ms\n",
		res.Latency.Quantile(0.5), res.Latency.Quantile(0.99), res.Latency.Mean())
	if *rate > 0 {
		basis := "intended arrival (coordinated-omission corrected)"
		if *co {
			basis = "actual emission (coordinated omission UNCORRECTED)"
		}
		fmt.Printf("  tail         p99.9 %.2f ms   p99.99 %.2f ms   max %.2f ms   vs %s\n",
			res.Latency.Quantile(0.999), res.Latency.Quantile(0.9999), res.Latency.Max(), basis)
	}
	fmt.Printf("  utilization  cpu %.0f%%   memory bandwidth %.0f%%\n", res.CPUUtil*100, res.MemUtil*100)
	fmt.Printf("  gc           %d minor collections, %.1f%% of time\n", res.MinorGCs, res.GCShare*100)
	if res.AckerCompleted > 0 {
		fmt.Printf("  acker        %d/%d tuple trees completed\n", res.AckerCompleted, res.SourceEvents)
	}
	if *profile {
		fmt.Printf("\n%s\n", res.Profile.String())
	}
	if *jsonOut {
		name, err := writeBenchJSON(cell, res, jointCounts)
		fail(err)
		fmt.Fprintln(os.Stderr, "dspbench: wrote", name)
	}
}

// benchRecord is the machine-readable benchmark trajectory record the
// -json flag emits; the schema is documented in the README ("Benchmark
// trajectories"). CellKey ties the record to both the exact cell and the
// simulator build, so regression tooling can tell "same experiment, new
// code" apart from "different experiment".
type benchRecord struct {
	Schema    string `json:"schema"` // "dspbench/v2"
	CellKey   string `json:"cell_key"`
	Canonical string `json:"canonical"`

	App     string `json:"app"`
	System  string `json:"system"`
	Sockets int    `json:"sockets"`
	Batch   int    `json:"batch"`
	Spec    string `json:"spec,omitempty"` // machine spec variant; "" = Table III

	ThroughputKps float64 `json:"throughput_k_events_per_s"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`

	// Tail fields (added with the HDR histogram; zero-valued records from
	// older builds simply lack them — same dspbench/v2 schema).
	LatencyP999Ms  float64 `json:"latency_p999_ms"`
	LatencyP9999Ms float64 `json:"latency_p9999_ms"`
	LatencyMaxMs   float64 `json:"latency_max_ms"`
	SourceRate     float64 `json:"source_rate,omitempty"` // events/s; 0 = closed-loop
	COUncorrected  bool    `json:"co_uncorrected,omitempty"`

	SourceEvents  int64   `json:"source_events"`
	ElapsedSimS   float64 `json:"elapsed_simulated_s"`
	WallSeconds   float64 `json:"wall_seconds"` // host compute time; not deterministic
	ChargedCycles int64   `json:"charged_cycles"`

	// KernelEvents and Ops count the simulator's work in the run: events
	// the kernel fired, and the machine model's walks and cache probes.
	KernelEvents int64  `json:"kernel_events"`
	Ops          hw.Ops `json:"ops"`

	// Memo snapshots the process-wide memo counters at write time: for a
	// single-cell dspbench run it says whether the result was simulated
	// fresh (simulated=1) or served from cache; under -place or -joint the
	// counts cover every cell the process touched. Joint counts the -joint
	// search this run performed (all zero without -joint).
	Memo  benchMemoStats  `json:"memo"`
	Joint benchJointStats `json:"joint"`
}

// benchMemoStats mirrors memo.Stats with trajectory-record field names:
// simulated = cells actually run, deduped = served from the in-memory
// layer (including single-flight joins), from_disk = persistent-cache hits.
type benchMemoStats struct {
	Simulated int64 `json:"simulated"`
	Deduped   int64 `json:"deduped"`
	FromDisk  int64 `json:"from_disk"`
}

// benchJointStats counts joint-search activity: parallelism vectors
// screened analytically and joint configurations verified by full
// simulation.
type benchJointStats struct {
	Screened int `json:"configs_screened"`
	Verified int `json:"configs_verified"`
}

func writeBenchJSON(cell bench.Cell, res *engine.Result, joint benchJointStats) (string, error) {
	st := bench.MemoStats()
	rec := benchRecord{
		Schema:        "dspbench/v2",
		CellKey:       bench.CellKey(cell),
		Canonical:     cell.Canonical(),
		App:           cell.App,
		System:        cell.System,
		Sockets:       cell.Sockets,
		Batch:         cell.BatchSize,
		Spec:          cell.Spec,
		ThroughputKps: res.Throughput().KPerSecond(),
		LatencyP50Ms:  res.Latency.Quantile(0.5),
		LatencyP99Ms:  res.Latency.Quantile(0.99),
		LatencyMeanMs: res.Latency.Mean(),

		LatencyP999Ms:  res.Latency.Quantile(0.999),
		LatencyP9999Ms: res.Latency.Quantile(0.9999),
		LatencyMaxMs:   res.Latency.Max(),
		SourceRate:     cell.SourceRate,
		COUncorrected:  cell.COUncorrected,

		SourceEvents:  res.SourceEvents,
		ElapsedSimS:   res.ElapsedSeconds,
		WallSeconds:   res.WallSeconds,
		ChargedCycles: int64(res.ChargedCycles),
		KernelEvents:  res.Events,
		Ops:           res.Ops,
		Memo:          benchMemoStats{Simulated: st.Runs, Deduped: st.MemHits, FromDisk: st.DiskHits},
		Joint:         joint,
	}
	name := fmt.Sprintf("BENCH_%s_%s.json", cell.App, cell.System)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return name, os.WriteFile(name, append(data, '\n'), 0o666)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dspbench:", err)
		os.Exit(1)
	}
}

// runNative executes the cell on the real goroutine runtime and reports
// host wall-clock performance.
func runNative(app, system string, batch, events, scale int, seed int64, chain, jsonOut bool,
	rate float64, noack, co bool, latEvery int) {
	if events <= 0 {
		events = 5000
	}
	if rate > 0 && latEvery == 0 {
		latEvery = 1 // open-loop tail runs observe every sink tuple
	}
	sys, err := bench.SystemProfile(system)
	fail(err)
	topo, err := apps.Build(app, apps.Config{Events: events, Seed: seed, Scale: scale})
	fail(err)
	if noack {
		sys.AckEnabled = false
	}
	res, err := engine.RunNative(topo, engine.NativeConfig{
		System: sys, BatchSize: batch, Seed: seed, Chaining: chain,
		SourceRate: rate, CoordinatedOmission: co, LatencySampleEvery: latEvery,
	})
	fail(err)
	fmt.Printf("%s on %s (native runtime, this host)\n", app, system)
	fmt.Printf("  throughput   %10.1f k events/s  (%d events in %.1f ms wall)\n",
		res.Throughput().KPerSecond(), res.SourceEvents, res.ElapsedSeconds*1e3)
	fmt.Printf("  latency      p50 %.3f ms   p99 %.3f ms\n",
		res.Latency.Quantile(0.5), res.Latency.Quantile(0.99))
	if rate > 0 {
		basis := "intended arrival (coordinated-omission corrected)"
		if co {
			basis = "actual emission (coordinated omission UNCORRECTED)"
		}
		fmt.Printf("  tail         p99.9 %.3f ms   p99.99 %.3f ms   max %.3f ms   vs %s\n",
			res.Latency.Quantile(0.999), res.Latency.Quantile(0.9999), res.Latency.Max(), basis)
	}
	if res.AckerCompleted > 0 {
		fmt.Printf("  acker        %d/%d tuple trees completed\n", res.AckerCompleted, res.SourceEvents)
	}
	if jsonOut {
		name, err := writeNativeBenchJSON(app, system, batch, chain, res)
		fail(err)
		fmt.Fprintln(os.Stderr, "dspbench: wrote", name)
	}
}

// runNativeValidate runs the simulator-validation loop over the default
// (app, system) grid and prints the effect-ratio table.
func runNativeValidate() {
	v, err := bench.ValidateNative(bench.DefaultValidationCells(), 3)
	fail(err)
	fmt.Printf("simulator-validation loop: optimization effect ratios, simulated vs native (best of %d)\n", v.Reps)
	fmt.Print(v.String())
}

// nativeBenchRecord is the machine-readable record -native -json emits.
// Unlike dspbench/v1 records it describes a wall-clock measurement on this
// host, so it carries the host shape instead of a simulated machine slice
// and is NOT reproducible across machines.
type nativeBenchRecord struct {
	Schema string `json:"schema"` // "dspbench-native/v1"

	App      string `json:"app"`
	System   string `json:"system"`
	Batch    int    `json:"batch"`
	Chaining bool   `json:"chaining"`

	ThroughputKps float64 `json:"throughput_k_events_per_s"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	SourceEvents  int64   `json:"source_events"`
	SinkEvents    int64   `json:"sink_events"`
	WallSeconds   float64 `json:"wall_seconds"`

	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func writeNativeBenchJSON(app, system string, batch int, chain bool, res *engine.Result) (string, error) {
	rec := nativeBenchRecord{
		Schema:        "dspbench-native/v1",
		App:           app,
		System:        system,
		Batch:         batch,
		Chaining:      chain,
		ThroughputKps: res.Throughput().KPerSecond(),
		LatencyP50Ms:  res.Latency.Quantile(0.5),
		LatencyP99Ms:  res.Latency.Quantile(0.99),
		SourceEvents:  res.SourceEvents,
		SinkEvents:    res.SinkEvents,
		WallSeconds:   res.ElapsedSeconds,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
	}
	name := fmt.Sprintf("BENCH_native_%s_%s.json", app, system)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return name, os.WriteFile(name, append(data, '\n'), 0o666)
}
