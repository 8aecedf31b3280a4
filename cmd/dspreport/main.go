// Command dspreport regenerates the paper's tables and figures on the
// simulated Table III machine. Without arguments it runs every experiment;
// -experiment selects one by ID (see DESIGN.md's per-experiment index).
//
// Usage:
//
//	dspreport                      # everything (several minutes)
//	dspreport -experiment fig7     # one artifact
//	dspreport -list                # available experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"streamscale/internal/apps"
	"streamscale/internal/bench"
)

type experiment struct {
	id   string
	desc string
	run  func() (string, error)
}

// experiments lists the report's experiments. Those that make model
// decisions append their model-vs-measured records to val, which the
// report prints as its closing section.
func experiments(tier bool, val *[]bench.Validation) []experiment {
	exps := baseExperiments(val)
	if !tier {
		return exps
	}
	// The tiered set swaps the screened sweeps in under their familiar
	// IDs — fig6b/fig6c/fig12 gain width, not new names — and adds the
	// spec matrix that only the fast tier makes affordable.
	sweep := func(r *bench.TierRun, err error) (*bench.TierRun, error) {
		if err == nil {
			*val = append(*val, r.Validation)
		}
		return r, err
	}
	tiered := map[string]experiment{
		"fig6b": {id: "fig6b", desc: "Storm scalability over cores (tiered, wide)", run: func() (string, error) {
			r, err := sweep(bench.TieredScalability("storm"))
			if err != nil {
				return "", err
			}
			return bench.TieredScalabilityTable("storm", r), nil
		}},
		"fig6c": {id: "fig6c", desc: "Flink scalability over cores (tiered, wide)", run: func() (string, error) {
			r, err := sweep(bench.TieredScalability("flink"))
			if err != nil {
				return "", err
			}
			return bench.TieredScalabilityTable("flink", r), nil
		}},
		"fig12": {id: "fig12", desc: "tuple batching (tiered, wide)", run: func() (string, error) {
			r, err := sweep(bench.TieredBatching())
			if err != nil {
				return "", err
			}
			return bench.TieredBatchingTables(r), nil
		}},
	}
	for i := range exps {
		if t, ok := tiered[exps[i].id]; ok {
			exps[i] = t
		}
	}
	return append(exps,
		experiment{id: "tier-specs", desc: "machine-variant scenario matrix (tiered)", run: func() (string, error) {
			r, err := sweep(bench.SpecMatrix())
			if err != nil {
				return "", err
			}
			return bench.SpecMatrixTable(r), nil
		}},
	)
}

func baseExperiments(val *[]bench.Validation) []experiment {
	// No local result sharing: the bench package memoizes every cell by
	// content, so the experiments that reuse the single-socket study (and
	// each other's baselines) deduplicate simulation work automatically.
	fromStudy := func(f func([]bench.CellResult) string) func() (string, error) {
		return func() (string, error) {
			cells, err := bench.SingleSocketStudy()
			if err != nil {
				return "", err
			}
			return f(cells), nil
		}
	}
	return []experiment{
		{id: "fig6a", desc: "throughput per application, single socket", run: fromStudy(bench.Fig6aTable)},
		{id: "fig6b", desc: "Storm scalability over cores and sockets", run: func() (string, error) {
			r, err := bench.Scalability("storm")
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{id: "fig6c", desc: "Flink scalability over cores and sockets", run: func() (string, error) {
			r, err := bench.Scalability("flink")
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		}},
		{id: "table4", desc: "CPU and memory bandwidth utilization", run: fromStudy(bench.TableIV)},
		{id: "fig7", desc: "execution time breakdown", run: fromStudy(bench.Fig7Table)},
		{id: "fig8", desc: "front-end stall breakdown", run: fromStudy(bench.Fig8Table)},
		{id: "fig9", desc: "instruction footprint CDF (both systems)", run: func() (string, error) {
			s, err := bench.FootprintCDF("storm")
			if err != nil {
				return "", err
			}
			f, err := bench.FootprintCDF("flink")
			if err != nil {
				return "", err
			}
			return bench.Fig9Table(s) + "\n" + bench.Fig9Table(f), nil
		}},
		{id: "table5", desc: "LLC miss stalls on four sockets", run: func() (string, error) {
			rows, err := bench.TableV("storm")
			if err != nil {
				return "", err
			}
			return bench.TableVTable("storm", rows), nil
		}},
		{id: "fig10", desc: "TM Map-Matcher executor sweep", run: func() (string, error) {
			rows, err := bench.Fig10()
			if err != nil {
				return "", err
			}
			return bench.Fig10Table(rows), nil
		}},
		{id: "fig11", desc: "back-end stall breakdown", run: fromStudy(bench.Fig11Table)},
		{id: "fig12", desc: "tuple batching: throughput", run: func() (string, error) {
			rows, err := bench.Batching()
			if err != nil {
				return "", err
			}
			return bench.Fig12Table(rows) + "\n" + bench.Fig13Table(rows), nil
		}},
		{id: "fig14", desc: "NUMA-aware placement and combined optimizations", run: func() (string, error) {
			rows, v, err := bench.Placement()
			if err != nil {
				return "", err
			}
			*val = append(*val, v...)
			return bench.Fig14Table(rows) + "\n" + bench.Fig15Table(rows), nil
		}},
		{id: "joint", desc: "joint parallelism + placement (RLAS) vs placement-only", run: func() (string, error) {
			rows, v, err := bench.JointStudy()
			if err != nil {
				return "", err
			}
			*val = append(*val, v...)
			return bench.JointTable(rows), nil
		}},
		{id: "gc", desc: "G1 vs parallelGC overhead (§V-D)", run: func() (string, error) {
			rows, err := bench.GCStudy(apps.BenchmarkNames())
			if err != nil {
				return "", err
			}
			return bench.GCTable(rows), nil
		}},
		{id: "hugepages", desc: "huge-pages TLB ablation (§V-D)", run: func() (string, error) {
			rows, err := bench.HugePages(apps.BenchmarkNames())
			if err != nil {
				return "", err
			}
			return bench.HugePagesTable(rows), nil
		}},
		{id: "placement-ablation", desc: "min-k-cut vs round-robin placement", run: func() (string, error) {
			rows, err := bench.PlacementAblation([]string{"wc", "vs", "lr"})
			if err != nil {
				return "", err
			}
			return bench.PlacementAblationTable(rows), nil
		}},
		{id: "load-latency", desc: "extension: open-loop latency vs offered load", run: func() (string, error) {
			out := ""
			for _, sys := range []string{"storm", "flink"} {
				rows, err := bench.LoadLatency("wc", sys, 1)
				if err != nil {
					return "", err
				}
				out += bench.LoadLatencyTable("wc", sys, rows) + "\n"
			}
			return out, nil
		}},
		{id: "sustainable", desc: "extension: sustainable throughput under a p99 bound", run: func() (string, error) {
			var rows []*bench.SustainableResult
			for _, sys := range []string{"storm", "flink"} {
				r, err := bench.Sustainable("wc", sys, 5.0)
				if err != nil {
					return "", err
				}
				rows = append(rows, r)
			}
			return bench.SustainableTable(rows), nil
		}},
		{id: "chaining-ablation", desc: "extension: Flink-style operator chaining on/off", run: func() (string, error) {
			rows, err := bench.ChainingAblation([]string{"sd", "wc", "fd"})
			if err != nil {
				return "", err
			}
			return bench.ChainingTable(rows), nil
		}},
		{id: "tail", desc: "extension: p99.99 tail latency with worst-tuple stall attribution", run: func() (string, error) {
			rows, err := bench.TailStudy([]string{"wc", "sd"})
			if err != nil {
				return "", err
			}
			return bench.TailTable(rows), nil
		}},
	}
}

// writeCSVs runs the main sweeps and writes plot-ready CSV files into dir.
func writeCSVs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	save := func(name string, fill func(w *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, bench.CSVName(name)))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fill(f); err != nil {
			return err
		}
		fmt.Println("wrote", f.Name())
		return nil
	}

	cells, err := bench.SingleSocketStudy()
	if err != nil {
		return err
	}
	if err := save("fig6a", func(w *os.File) error { return bench.Fig6aCSV(w, cells) }); err != nil {
		return err
	}
	if err := save("fig7", func(w *os.File) error { return bench.BreakdownCSV(w, cells) }); err != nil {
		return err
	}
	if err := save("table4", func(w *os.File) error { return bench.UtilizationCSV(w, cells) }); err != nil {
		return err
	}
	for _, sys := range bench.Systems {
		sc, err := bench.Scalability(sys)
		if err != nil {
			return err
		}
		if err := save("fig6bc_"+sys, func(w *os.File) error { return bench.ScalabilityCSV(w, sc) }); err != nil {
			return err
		}
		fp, err := bench.FootprintCDF(sys)
		if err != nil {
			return err
		}
		if err := save("fig9_"+sys, func(w *os.File) error { return bench.FootprintCSV(w, fp) }); err != nil {
			return err
		}
	}
	tv, err := bench.TableV("storm")
	if err != nil {
		return err
	}
	if err := save("table5", func(w *os.File) error { return bench.TableVCSV(w, "storm", tv) }); err != nil {
		return err
	}
	f10, err := bench.Fig10()
	if err != nil {
		return err
	}
	if err := save("fig10", func(w *os.File) error { return bench.Fig10CSV(w, f10) }); err != nil {
		return err
	}
	batching, err := bench.Batching()
	if err != nil {
		return err
	}
	if err := save("fig12_13", func(w *os.File) error { return bench.BatchingCSV(w, batching) }); err != nil {
		return err
	}
	placement, _, err := bench.Placement()
	if err != nil {
		return err
	}
	return save("fig14_15", func(w *os.File) error { return bench.PlacementCSV(w, placement) })
}

// main's wall-clock reads only feed the progress line on stderr; all
// simulated results derive from the deterministic kernel clock.
//
//dsplint:wallclock
func main() {
	var (
		pick       = flag.String("experiment", "", "experiment ID to run (default: all)")
		list       = flag.Bool("list", false, "list experiment IDs")
		csvDir     = flag.String("csv", "", "also write plot-ready CSV files into this directory")
		jobs       = flag.Int("jobs", runtime.NumCPU(), "parallel simulation cells per sweep (results are identical at any value)")
		cache      = flag.String("cache", "", "persistent result cache directory (results are identical with or without it; stale builds' entries are pruned)")
		quiet      = flag.Bool("quiet", false, "suppress the sweep progress line and the memo/tier stats lines on stderr")
		tier       = flag.Bool("tier", false, "tiered evaluation: screen widened sweeps with the calibrated fast tier, simulate only the interesting cells (adds fig6b/c and fig12 width, the tier-specs matrix, and a validation summary)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	bench.SetJobs(*jobs)
	if *quiet {
		bench.SetProgress(false)
	}
	stopProf, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dspreport:", err)
		os.Exit(1)
	}
	defer stopProf()
	if *cache != "" {
		pruned, err := bench.EnableDiskCache(*cache)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dspreport:", err)
			os.Exit(1)
		}
		if pruned > 0 {
			fmt.Fprintf(os.Stderr, "dspreport: pruned %d stale cache file(s) from %s\n", pruned, *cache)
		}
	}

	if *csvDir != "" {
		if err := writeCSVs(*csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "dspreport:", err)
			os.Exit(1)
		}
		return
	}

	var val []bench.Validation
	exps := experiments(*tier, &val)
	if *list {
		ids := make([]string, 0, len(exps))
		for _, e := range exps {
			ids = append(ids, fmt.Sprintf("  %-20s %s", e.id, e.desc))
		}
		sort.Strings(ids)
		fmt.Println("experiments:")
		for _, l := range ids {
			fmt.Println(l)
		}
		return
	}
	start := time.Now()
	ran := 0
	for _, e := range exps {
		if *pick != "" && e.id != *pick {
			continue
		}
		out, err := e.run()
		if err != nil {
			if out != "" {
				fmt.Printf("%s\n", out)
			}
			fmt.Fprintf(os.Stderr, "dspreport: %s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", out)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "dspreport: unknown experiment %q (try -list)\n", *pick)
		os.Exit(1)
	}
	if len(val) > 0 {
		fmt.Printf("%s\n", bench.ValidationTable(val))
	}
	if !*quiet {
		st := bench.MemoStats()
		fmt.Fprintf(os.Stderr, "dspreport: %d experiment(s) in %.1fs (jobs=%d; %d simulated, %d deduped, %d from cache)\n",
			ran, time.Since(start).Seconds(), bench.Jobs(), st.Runs, st.MemHits, st.DiskHits)
		if *tier {
			t := total(val, "tier")
			fmt.Fprintf(os.Stderr, "dspreport: tier: %d cells screened, %d verified by simulation, %d probe request(s)\n",
				t.Screened, t.Verified, t.Probes)
		}
		if j := total(val, "joint"); j.Screened > 0 || j.Verified > 0 {
			fmt.Fprintf(os.Stderr, "dspreport: joint: %d parallelism vector(s) screened, %d configuration(s) verified by simulation\n",
				j.Screened, j.Verified)
		}
	}
}

// total sums the counts of one decision's records.
func total(val []bench.Validation, decision string) bench.Validation {
	var t bench.Validation
	for _, v := range val {
		if v.Decision == decision {
			t.Screened += v.Screened
			t.Verified += v.Verified
			t.Probes += v.Probes
		}
	}
	return t
}
