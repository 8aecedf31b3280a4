// Command dspplace computes NUMA-aware executor placements for a benchmark
// application. By default it builds the communication graph (Definition 4),
// solves the capacity-constrained min-k-cut for k = 1..sockets, and prints
// each plan with its Equation 1 cross-socket communication cost.
//
// -strategy prints one planner's ranked plans instead: "bnb" (the pool the
// report's placement decision ranks: the min-k-cut seeds merged with the
// probe-calibrated branch-and-bound's plans) or "joint" (the report's
// joint parallelism + placement search, BriskStream's RLAS). Both run one
// probe simulation to calibrate the cost model and simulate nothing else;
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
	"strings"

	"streamscale/internal/apps"
	"streamscale/internal/bench"
	"streamscale/internal/place"
)

func main() {
	var (
		app      = flag.String("app", "wc", "application: "+fmt.Sprint(apps.Names()))
		system   = flag.String("system", "storm", "engine profile: storm | flink")
		sockets  = flag.Int("sockets", 4, "socket count to plan for (min-k-cut listing)")
		scale    = flag.Int("scale", 1, "parallelism scale factor")
		verbose  = flag.Bool("verbose", false, "print per-executor assignments")
		strategy = flag.String("strategy", "", "placement strategy: bnb | joint (default: the min-k-cut listing)")
		batch    = flag.Int("batch", 1, "batch size the model plans for (model strategies)")
		jobs     = flag.Int("jobs", 1, "parallel workers for model strategies (results are identical at any value)")
	)
	flag.Parse()

	if *strategy != "" {
		fail(runStrategy(*strategy, *app, *system, *scale, *batch, *jobs))
		return
	}

	sys, err := bench.SystemProfile(*system)
	fail(err)
	topo, err := apps.Build(*app, apps.Config{Events: 1000, Seed: 1, Scale: *scale})
	fail(err)

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
			fmt.Printf("  k=%d  cost=%10.2f  (%.0f%% of total weight cut)  assign=%s\n",
				p.K, p.Cost, 100*p.Cost/max(g.TotalWeight(), 1e-9), assignString(p.Assign))
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

// runStrategy prints one planner's ranked plans. bnb and joint calibrate
// from one probe simulation (the unplaced four-socket baseline, batch 1)
// exactly like the report flow, and run the report's searches.
func runStrategy(name, app, system string, scale, batch, jobs int) error {
	bench.SetJobs(jobs)
	bench.SetProgress(false)

	type plan struct {
		assign, par []int
		score       float64
		seed        bool
	}
	var plans []plan
	var w *place.Workload
	switch name {
	case "bnb":
		pool, err := bench.PlacementPool(app, system, batch, scale)
		if err != nil {
			return err
		}
		for _, p := range pool {
			plans = append(plans, plan{assign: p.Assign, score: p.Score, seed: p.Seed})
		}
	case "joint":
		var err error
		if w, err = bench.Calibrate(app, system, batch, scale); err != nil {
			return err
		}
		res, err := w.SearchJoint(place.JointOptions{Search: place.SearchOptions{Workers: jobs}})
		if err != nil {
			return err
		}
		for _, c := range res.Candidates {
			plans = append(plans, plan{assign: c.Assign, par: c.Par, score: c.Score})
		}
	default:
		return fmt.Errorf("unknown strategy %q (have [bnb joint])", name)
	}

	fmt.Printf("%s/%s strategy=%s scale=%d batch=%d: %d plan(s)\n",
		app, system, name, scale, batch, len(plans))
	for i, p := range plans {
		fmt.Printf("  #%d score=%12.2f k=%d assign=%s", i+1, p.score, distinct(p.assign), assignString(p.assign))
		if p.par != nil {
			fmt.Printf(" par=%s", parString(w, p.par))
		}
		if p.seed {
			fmt.Printf(" seed")
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
	return strings.Join(parts, ",")
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

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dspplace:", err)
		os.Exit(1)
	}
}
