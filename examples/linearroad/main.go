// Linear Road on the simulated four-socket server: demonstrates the
// paper's headline result end to end. The same topology runs (1) on one
// socket, (2) on four sockets with the default OS-spread placement, and
// (3) on four sockets with both optimizations — non-blocking tuple
// batching (S=8) and NUMA-aware executor placement.
//
//	go run ./examples/linearroad
package main

import (
	"fmt"

	"streamscale/internal/apps"

	"streamscale/internal/engine"
	"streamscale/internal/place"
)

func run(label string, cfg engine.SimConfig) *engine.Result {
	topo, err := apps.Build("lr", apps.Config{Events: 6000, Seed: 3, Scale: 4})
	if err != nil {
		panic(err)
	}
	res, err := engine.RunSim(topo, cfg)
	if err != nil {
		panic(err)
	}
	lo, re := res.Profile.LLCMissShares()
	fmt.Printf("%-34s %8.1f k events/s   p50 %6.2f ms   llc local/remote %4.1f%%/%4.1f%%\n",
		label, res.Throughput().KPerSecond(), res.Latency.Quantile(0.5), lo*100, re*100)
	return res
}

func main() {
	fmt.Println("Linear Road: 10-operator toll network on the simulated 4-socket Xeon E5-4640")

	run("1 socket, no optimizations", engine.SimConfig{
		System: engine.Storm(), Sockets: 1, Seed: 3,
	})
	base := run("4 sockets, no optimizations", engine.SimConfig{
		System: engine.Storm(), Sockets: 4, Seed: 3,
	})

	// NUMA-aware placement: balanced min-k-cut plans for k=1..4; pick the
	// lowest-cost balanced 4-socket plan (§VI-B tests each and keeps the
	// fastest; see cmd/dspreport -experiment fig14 for the full selection).
	topo, err := apps.Build("lr", apps.Config{Events: 6000, Seed: 3, Scale: 4})
	if err != nil {
		panic(err)
	}
	plans, err := place.PlanFor(topo, engine.Storm(), 4, place.PlaceOptions{Balanced: true})
	if err != nil {
		panic(err)
	}
	best := plans[len(plans)-1]
	fmt.Printf("\nplacement plan: k=%d, Eq.1 cross-socket cost %.0f\n", best.K, best.Cost)

	opt := run("4 sockets, batching S=8 + placement", engine.SimConfig{
		System: engine.Storm(), Sockets: 4, Seed: 3,
		BatchSize: 8, Placement: best.Placement(),
	})

	speedup := opt.Throughput().PerSecond() / base.Throughput().PerSecond()
	fmt.Printf("\ncombined optimizations: %.1fx over the unoptimized 4-socket run "+
		"(the paper reports 1.3-3.2x for Storm)\n", speedup)
}
