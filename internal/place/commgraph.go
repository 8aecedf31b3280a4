package place

import (
	"fmt"

	"streamscale/internal/engine"
)

// CommGraph is an undirected weighted graph over executors; edge weights
// are the estimated communication volumes R*Trans(w,w') of Definition 2.
type CommGraph struct {
	// Names labels each vertex "op[i]".
	Names []string
	// Ops maps each vertex to its operator name.
	Ops []string
	// W is the symmetric weight matrix.
	W [][]float64
	// Load estimates each executor's CPU demand (input rate x per-tuple
	// computation), used by load-balanced placement. A heavy operator like
	// TM's map-matcher must not be count-balanced onto one socket.
	Load []float64
}

// TotalLoad returns the summed CPU demand estimate.
func (g *CommGraph) TotalLoad() float64 {
	var t float64
	for _, l := range g.Load {
		t += l
	}
	return t
}

// N returns the vertex count.
func (g *CommGraph) N() int { return len(g.Names) }

// TotalWeight returns the sum of all edge weights.
func (g *CommGraph) TotalWeight() float64 {
	var t float64
	for i := 0; i < g.N(); i++ {
		for j := i + 1; j < g.N(); j++ {
			t += g.W[i][j]
		}
	}
	return t
}

// CutCost evaluates Equation 1 for an assignment of vertices to partitions:
// the total weight of edges whose endpoints are placed on different
// sockets. R (the remote-access penalty per unit) is already folded into
// the weights.
func (g *CommGraph) CutCost(assign []int) float64 {
	var c float64
	for i := 0; i < g.N(); i++ {
		for j := i + 1; j < g.N(); j++ {
			if assign[i] != assign[j] {
				c += g.W[i][j]
			}
		}
	}
	return c
}

// BuildCommGraph maps a topology's execution graph to a weighted graph
// (the Definition 4 mapping): one vertex per executor, one edge per
// producer-consumer pair, weighted by the estimated bytes flowing between
// that pair. Flows are estimated by propagating each source's unit event
// rate through operator selectivities and dividing across executor pairs
// according to the grouping strategy.
//
// The topology is first expanded for the system profile, so Storm-style
// acker executors participate in placement like any other executor.
func BuildCommGraph(t *engine.Topology, sys engine.SystemProfile) (*CommGraph, error) {
	xt, err := engine.BuildExecTopology(t, sys)
	if err != nil {
		return nil, err
	}

	// Vertex numbering follows the execution graph's global order.
	refs := engine.ExecGraph(xt)
	g := &CommGraph{W: make([][]float64, len(refs))}
	base := map[string]int{} // operator -> first global index
	for _, r := range refs {
		g.Names = append(g.Names, fmt.Sprintf("%s[%d]", r.Op, r.Index))
		g.Ops = append(g.Ops, r.Op)
		if _, ok := base[r.Op]; !ok {
			base[r.Op] = r.Global
		}
	}
	for i := range g.W {
		g.W[i] = make([]float64, len(refs))
	}

	rates := operatorRates(xt)

	// Per-executor CPU demand: the operator's input rate split across its
	// executors, times its per-tuple computation estimate.
	g.Load = make([]float64, len(refs))
	for _, n := range xt.Nodes() {
		perExec := rates[n.Name] / float64(n.Parallelism)
		cost := float64(n.Profile.UopsPerTuple + 1500 + 60*n.Profile.StateAccessesPerTuple)
		for i := 0; i < n.Parallelism; i++ {
			g.Load[base[n.Name]+i] = perExec * cost
		}
	}

	for _, n := range xt.Nodes() {
		outRate := rates[n.Name] * n.Profile.EffSelectivity()
		bytesPerTuple := float64(n.Profile.EffTupleBytes())
		for _, ed := range xt.Consumers(n.Name) {
			c := ed.Consumer
			// Total bytes/s on this edge, split across producer executors.
			edgeBytes := outRate * bytesPerTuple
			if ed.Sub.Stream == engine.AckStream {
				// Ack messages are small and proportional to tuple rate.
				edgeBytes = rates[n.Name] * 48
			}
			perProducer := edgeBytes / float64(n.Parallelism)
			for pi := 0; pi < n.Parallelism; pi++ {
				p := base[n.Name] + pi
				switch ed.Sub.Group.Kind {
				case engine.GroupGlobal:
					q := base[c.Name]
					g.W[p][q] += perProducer
					g.W[q][p] += perProducer
				case engine.GroupAll:
					for ci := 0; ci < c.Parallelism; ci++ {
						q := base[c.Name] + ci
						g.W[p][q] += perProducer
						g.W[q][p] += perProducer
					}
				default: // shuffle, fields: uniform split on average
					share := perProducer / float64(c.Parallelism)
					for ci := 0; ci < c.Parallelism; ci++ {
						q := base[c.Name] + ci
						g.W[p][q] += share
						g.W[q][p] += share
					}
				}
			}
		}
	}
	return g, nil
}

// operatorRates propagates unit source rates through the topology,
// yielding each operator's input event rate.
func operatorRates(t *engine.Topology) map[string]float64 {
	rates := map[string]float64{}
	for _, n := range t.Nodes() {
		if n.IsSource() {
			rates[n.Name] = 1.0
		}
	}
	// The graph is a DAG in practice; iterate to a fixed point with a
	// bounded pass count to stay safe on accidental cycles.
	for pass := 0; pass < len(t.Nodes())+1; pass++ {
		changed := false
		for _, n := range t.Nodes() {
			if n.IsSource() {
				continue
			}
			var in float64
			for _, sub := range n.Subs {
				p := t.Node(sub.Operator)
				if p == nil {
					continue
				}
				pr := rates[p.Name] * p.Profile.EffSelectivity()
				if sub.Stream == engine.AckStream {
					pr = rates[p.Name]
				}
				if sub.Group.Kind == engine.GroupAll {
					pr *= float64(n.Parallelism)
				}
				in += pr
			}
			if in != rates[n.Name] {
				rates[n.Name] = in
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return rates
}
