// NUMA placement walk-through: builds a custom topology, extracts its
// communication graph (the paper's Definition 4 mapping), solves min-k-cut
// for several k, and shows how Equation 1 cost relates to measured
// performance on the simulated machine.
//
//	go run ./examples/numaplacement
package main

import (
	"fmt"

	"streamscale/internal/engine"
	"streamscale/internal/place"
)

// tick emits monotonically increasing integers.
type tick struct{ n int }

func (t *tick) Prepare(engine.Context) {}
func (t *tick) Next(ctx engine.Context) bool {
	if t.n <= 0 {
		return false
	}
	t.n--
	ctx.Emit(int64(t.n), int64(t.n%64))
	return t.n > 0
}

func buildPipeline() *engine.Topology {
	topo := engine.NewTopology("pipeline")
	topo.AddSource("ticks", 1, func() engine.Source { return &tick{n: 4000} },
		engine.Stream(engine.DefaultStream, "seq", "key")).
		WithProfile(engine.WorkProfile{CodeBytes: 6 << 10, UopsPerTuple: 300, AvgTupleBytes: 48})

	// A heavy enrichment stage: wide fan-out from the source.
	topo.AddOp("enrich", 8, func() engine.Operator {
		return engine.ProcessFunc(func(ctx engine.Context, t engine.Tuple) {
			ctx.Work(2500, 30)
			ctx.Emit(t.Values[0], t.Values[1], t.Values[0].(int64)*7)
		})
	}, engine.Stream(engine.DefaultStream, "seq", "key", "score")).
		SubDefault("ticks", engine.Shuffle()).
		WithProfile(engine.WorkProfile{
			CodeBytes: 12 << 10, UopsPerTuple: 500,
			StateBytes: 1 << 20, StateAccessesPerTuple: 4, AvgTupleBytes: 64,
		})

	// Keyed aggregation, then a sink.
	topo.AddOp("aggregate", 4, func() engine.Operator {
		sums := map[int64]int64{}
		return engine.ProcessFunc(func(ctx engine.Context, t engine.Tuple) {
			k := t.Values[1].(int64)
			sums[k] += t.Values[2].(int64)
			ctx.Emit(k, sums[k])
		})
	}, engine.Stream(engine.DefaultStream, "key", "sum")).
		SubDefault("enrich", engine.Fields("key")).
		WithProfile(engine.WorkProfile{
			CodeBytes: 8 << 10, UopsPerTuple: 350,
			StateBytes: 256 << 10, StateAccessesPerTuple: 3, AvgTupleBytes: 48,
		})

	topo.AddOp("sink", 1, func() engine.Operator {
		return engine.ProcessFunc(func(engine.Context, engine.Tuple) {})
	}).SubDefault("aggregate", engine.Global())
	return topo
}

func main() {
	sys := engine.Flink()

	g, err := place.BuildCommGraph(buildPipeline(), sys)
	if err != nil {
		panic(err)
	}
	fmt.Printf("communication graph: %d executors, total weight %.1f\n\n", g.N(), g.TotalWeight())

	fmt.Println("plan            Eq.1 cost     measured throughput")
	measure := func(label string, placement map[int]int) float64 {
		res, err := engine.RunSim(buildPipeline(), engine.SimConfig{
			System: sys, Sockets: 4, Seed: 1, Placement: placement,
		})
		if err != nil {
			panic(err)
		}
		tp := res.Throughput().KPerSecond()
		cost := "-"
		if placement != nil {
			assign := make([]int, g.N())
			for v, s := range placement {
				assign[v] = s
			}
			cost = fmt.Sprintf("%9.1f", g.CutCost(assign))
		}
		fmt.Printf("%-15s %9s %18.1f k events/s\n", label, cost, tp)
		return tp
	}

	base := measure("os-spread", nil)
	rr := place.RoundRobinPlan(g, 4)
	measure("round-robin", rr.Placement())
	plans, err := place.Plans(g, 4, place.PlaceOptions{Balanced: true})
	if err != nil {
		panic(err)
	}
	var bestTp float64
	for _, p := range plans {
		tp := measure(fmt.Sprintf("min-%d-cut", p.K), p.Placement())
		if tp > bestTp {
			bestTp = tp
		}
	}
	fmt.Printf("\nbest min-k-cut plan vs OS spread: %+.1f%%\n", (bestTp/base-1)*100)
}
