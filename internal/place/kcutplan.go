package place

import (
	"fmt"
	"math"

	"streamscale/internal/engine"
)

// Plan is an executor placement P(T,k): an assignment of every executor
// (by global index) to one of k sockets.
type Plan struct {
	K      int
	Assign []int // executor global index -> socket
	// Cost is the Equation 1 cross-socket communication cost estimate.
	Cost float64
}

// Placement converts the plan to the engine's placement map.
func (p *Plan) Placement() map[int]int {
	m := make(map[int]int, len(p.Assign))
	for g, s := range p.Assign {
		m[g] = s
	}
	return m
}

// socketCapacity is how many executors a capacity-capped plan puts on one
// socket: Table III's 8 cores, each time-sharing 1.5 executors.
const socketCapacity = 8 * 1.5

// refinements bounds the greedy improvement passes after the min-k-cut
// seed.
const refinements = 8

// PlaceOptions tunes the placement optimizer.
type PlaceOptions struct {
	// Balanced switches the capacity constraint from executor count to
	// estimated CPU load (CommGraph.Load), with a 5% slack over the even
	// split. Without it, min-k-cut gladly packs most executors onto one
	// socket, up to socketCapacity executors, which is Equation-1-optimal
	// but CPU-bound.
	Balanced bool

	// capacity overrides socketCapacity; only tests set it.
	capacity float64
}

func (o *PlaceOptions) fill() {
	if o.capacity <= 0 {
		o.capacity = socketCapacity
	}
}

// loadsAndCapacity returns per-vertex loads and the per-socket capacity for
// the chosen balance mode.
func loadsAndCapacity(g *CommGraph, k int, opts PlaceOptions) ([]float64, float64) {
	n := g.N()
	if opts.Balanced && len(g.Load) == n && g.TotalLoad() > 0 {
		return g.Load, g.TotalLoad() / float64(k) * 1.05
	}
	loads := make([]float64, n)
	for i := range loads {
		loads[i] = 1
	}
	if opts.Balanced {
		return loads, float64((n+k-1)/k + 1)
	}
	return loads, opts.capacity
}

// PlanForK computes a capacity-constrained placement of the graph onto k
// sockets minimizing Equation 1: min-k-cut seeds the partition, then a
// Kernighan-Lin-style pass moves executors between sockets while capacity
// allows. For k=1 everything goes to socket 0.
func PlanForK(g *CommGraph, k int, opts PlaceOptions) (*Plan, error) {
	opts.fill()
	n := g.N()
	loads, capacity := loadsAndCapacity(g, k, opts)
	var total float64
	for _, l := range loads {
		total += l
	}
	if capacity*float64(k) < total {
		return nil, fmt.Errorf("place: load %.1f exceeds capacity %.1f of %d sockets", total, capacity*float64(k), k)
	}
	assign := make([]int, n)
	if k > 1 {
		seed, _ := MinKCut(g.W, k)
		copy(assign, seed)
		enforceCapacity(g, assign, loads, k, capacity)
		refine(g, assign, loads, k, capacity, refinements)
	}
	return &Plan{K: k, Assign: assign, Cost: g.CutCost(assign)}, nil
}

// Plans computes placements for every k in 1..maxK, for performance-based
// selection among them (the paper tests each plan and keeps the fastest).
func Plans(g *CommGraph, maxK int, opts PlaceOptions) ([]*Plan, error) {
	var out []*Plan
	for k := 1; k <= maxK; k++ {
		p, err := PlanForK(g, k, opts)
		if err != nil {
			// Smaller k may be infeasible for large graphs; skip it.
			continue
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("place: no feasible placement up to %d sockets", maxK)
	}
	return out, nil
}

func socketLoads(assign []int, loads []float64, k int) []float64 {
	out := make([]float64, k)
	for v, s := range assign {
		out[s] += loads[v]
	}
	return out
}

// enforceCapacity moves vertices out of overfull sockets, preferring moves
// with the smallest Equation 1 penalty.
func enforceCapacity(g *CommGraph, assign []int, loads []float64, k int, capacity float64) {
	n := g.N()
	cur := socketLoads(assign, loads, k)
	for s := 0; s < k; s++ {
		for cur[s] > capacity {
			bestV, bestT, bestDelta := -1, -1, math.Inf(1)
			for v := 0; v < n; v++ {
				if assign[v] != s {
					continue
				}
				for t := 0; t < k; t++ {
					if t == s || cur[t]+loads[v] > capacity {
						continue
					}
					if d := moveDelta(g, assign, v, t); d < bestDelta {
						bestV, bestT, bestDelta = v, t, d
					}
				}
			}
			if bestV < 0 {
				return // nowhere to move; caller validated total capacity
			}
			cur[s] -= loads[bestV]
			cur[bestT] += loads[bestV]
			assign[bestV] = bestT
		}
	}
}

// moveDelta returns the Equation 1 cost change of moving v to socket t.
func moveDelta(g *CommGraph, assign []int, v, t int) float64 {
	var cur, next float64
	for u := 0; u < g.N(); u++ {
		if u == v || g.W[v][u] == 0 {
			continue
		}
		if assign[u] != assign[v] {
			cur += g.W[v][u]
		}
		if assign[u] != t {
			next += g.W[v][u]
		}
	}
	return next - cur
}

// refine runs greedy improvement passes: each pass applies the single best
// capacity-respecting move until no move improves the cost.
func refine(g *CommGraph, assign []int, loads []float64, k int, capacity float64, passes int) {
	n := g.N()
	cur := socketLoads(assign, loads, k)
	for p := 0; p < passes; p++ {
		improved := false
		for v := 0; v < n; v++ {
			bestT, bestDelta := -1, -1e-9 // only strictly improving moves
			for t := 0; t < k; t++ {
				if t == assign[v] || cur[t]+loads[v] > capacity {
					continue
				}
				if d := moveDelta(g, assign, v, t); d < bestDelta {
					bestT, bestDelta = t, d
				}
			}
			if bestT >= 0 {
				cur[assign[v]] -= loads[v]
				cur[bestT] += loads[v]
				assign[v] = bestT
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// RoundRobinPlan spreads executors across k sockets ignoring communication
// — the ablation baseline for Figure 14.
func RoundRobinPlan(g *CommGraph, k int) *Plan {
	assign := make([]int, g.N())
	for i := range assign {
		assign[i] = i % k
	}
	return &Plan{K: k, Assign: assign, Cost: g.CutCost(assign)}
}

// PlanFor is a convenience wrapper: build the communication graph for the
// topology under the given system profile and return plans for k=1..maxK.
func PlanFor(t *engine.Topology, sys engine.SystemProfile, maxK int, opts PlaceOptions) ([]*Plan, error) {
	g, err := BuildCommGraph(t, sys)
	if err != nil {
		return nil, err
	}
	return Plans(g, maxK, opts)
}
