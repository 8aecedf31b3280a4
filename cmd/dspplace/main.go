// Command dspplace computes NUMA-aware executor placements for a benchmark
// application. By default it builds the communication graph (Definition 4),
// solves the capacity-constrained min-k-cut for k = 1..sockets, and prints
// each plan with its Equation 1 cross-socket communication cost.
//
// -strategy selects a placement strategy instead: "min-k-cut" (the
// default flow's balanced variant), "bnb" (probe-calibrated placement-only
// branch-and-bound), or "joint" (joint parallelism + placement search,
// BriskStream's RLAS). The model-driven strategies run one probe
// simulation to calibrate the cost model and print their ranked plans;
// output is deterministic and independent of -jobs.
//
// Usage:
//
//	dspplace -app lr -system storm -sockets 4
//	dspplace -app wc -system flink -sockets 2 -verbose
//	dspplace -app wc -system storm -strategy joint -scale 4 -batch 8
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"streamscale/internal/apps"
	"streamscale/internal/bench"
	"streamscale/internal/engine"
	"streamscale/internal/place"
)

func main() {
	var (
		app      = flag.String("app", "wc", "application: "+fmt.Sprint(apps.Names()))
		system   = flag.String("system", "storm", "engine profile: storm | flink")
		sockets  = flag.Int("sockets", 4, "socket count to plan for (min-k-cut modes)")
		scale    = flag.Int("scale", 1, "parallelism scale factor")
		verbose  = flag.Bool("verbose", false, "print per-executor assignments")
		strategy = flag.String("strategy", "", "placement strategy: min-k-cut | bnb | joint (default: legacy min-k-cut listing)")
		batch    = flag.Int("batch", 1, "batch size the model plans for (model strategies)")
		jobs     = flag.Int("jobs", 1, "parallel workers for model strategies (results are identical at any value)")
	)
	flag.Parse()

	if *strategy != "" {
		fail(runStrategy(*strategy, *app, *system, *sockets, *scale, *batch, *jobs))
		return
	}

	topo, err := apps.Build(*app, apps.Config{Events: 1000, Seed: 1, Scale: *scale})
	fail(err)
	sys := engine.Storm()
	if *system == "flink" {
		sys = engine.Flink()
	}

	g, err := place.BuildCommGraph(topo, sys)
	fail(err)
	fmt.Printf("%s/%s: %d executors, total communication weight %.2f\n",
		*app, *system, g.N(), g.TotalWeight())

	for _, balanced := range []bool{false, true} {
		mode := "capacity-capped"
		if balanced {
			mode = "balanced"
		}
		plans, err := place.Plans(g, *sockets, place.PlaceOptions{
			CoresPerSocket: 8, Oversubscribe: 1.5, Balanced: balanced,
		})
		if err != nil {
			fmt.Printf("  %s: %v\n", mode, err)
			continue
		}
		fmt.Printf("\n%s plans:\n", mode)
		for _, p := range plans {
			fmt.Printf("  k=%d  cost=%10.2f  (%.0f%% of total weight cut)\n",
				p.K, p.Cost, 100*p.Cost/maxf(g.TotalWeight(), 1e-9))
			if *verbose {
				counts := map[int][]string{}
				for v, s := range p.Assign {
					counts[s] = append(counts[s], g.Names[v])
				}
				for s := 0; s < p.K; s++ {
					fmt.Printf("    socket %d: %v\n", s, counts[s])
				}
			}
		}
	}
	rr := place.RoundRobinPlan(g, *sockets)
	fmt.Printf("\nround-robin baseline: cost=%.2f\n", rr.Cost)
}

// runStrategy routes a one-off search through the pluggable Strategy
// interface. The model strategies calibrate from one probe simulation (the
// unplaced four-socket baseline, batch 1) exactly like the report flow.
func runStrategy(name, app, system string, sockets, scale, batch, jobs int) error {
	strat, ok := place.StrategyByName(name)
	if !ok {
		names := []string{}
		for _, s := range place.Strategies() {
			names = append(names, s.Name())
		}
		return fmt.Errorf("unknown strategy %q (have %v)", name, names)
	}
	bench.SetJobs(jobs)
	bench.SetProgress(false)

	cell := bench.Cell{App: app, Seed: 1, Scale: scale}
	topo, err := cell.Topology()
	if err != nil {
		return err
	}
	sys := engine.Storm()
	if system == "flink" {
		sys = engine.Flink()
	}
	prob := place.Problem{Sockets: sockets}
	prob.Graph, err = place.BuildCommGraph(topo, sys)
	if err != nil {
		return err
	}

	var w *place.Workload
	if name != "min-k-cut" {
		if w, err = bench.Calibrate(app, system, batch, scale); err != nil {
			return err
		}
		prob.Model, prob.Workload = w.Model, w
	}

	// Worker counts flow through the strategy options; results are
	// identical at any value (the CI jobs-diff stage pins this).
	switch s := strat.(type) {
	case place.BnBStrategy:
		s.Opts.Workers = jobs
		strat = s
	case place.JointStrategy:
		s.Opts.Search.Workers = jobs
		strat = s
	}

	decisions, err := strat.Plan(prob)
	if err != nil {
		return err
	}
	fmt.Printf("%s/%s strategy=%s scale=%d batch=%d: %d plan(s)\n",
		app, system, strat.Name(), scale, batch, len(decisions))
	for i, d := range decisions {
		fmt.Printf("  #%d score=%12.2f k=%d assign=%s", i+1, d.Score, distinct(d.Assign), assignString(d.Assign))
		if d.Par != nil && w != nil {
			fmt.Printf(" par=%s", parString(w, d.Par))
		}
		fmt.Println()
	}
	return nil
}

// parString renders a parallelism vector as op=k pairs for operators that
// differ from the workload default, or "default".
func parString(w *place.Workload, par []int) string {
	def := w.DefaultPar()
	var parts []string
	for i := range par {
		if par[i] != def[i] {
			parts = append(parts, fmt.Sprintf("%s=%d", w.Ops[i].Name, par[i]))
		}
	}
	if len(parts) == 0 {
		return "default"
	}
	sort.Strings(parts)
	s := parts[0]
	for _, p := range parts[1:] {
		s += "," + p
	}
	return s
}

func assignString(assign []int) string {
	b := make([]byte, 0, 2*len(assign))
	for i, s := range assign {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, byte('0'+s))
	}
	return string(b)
}

func distinct(assign []int) int {
	seen := map[int]bool{}
	for _, s := range assign {
		seen[s] = true
	}
	return len(seen)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dspplace:", err)
		os.Exit(1)
	}
}
