package bench

import (
	"fmt"

	"streamscale/internal/engine"
	"streamscale/internal/hw"
	"streamscale/internal/place/eval"
)

// The tiered sweep engine: every cell of a sweep is screened by the fast
// analytical tier (internal/place/eval — microseconds per cell), and only
// the cells the screen flags as interesting are verified by cycle-exact
// simulation. One probe simulation per workload amortizes over every cell
// that shares it, through the same memo layer as everything else; the
// probe of a four-socket workload IS the placement search's probe and the
// Fig 14 baseline, so it is usually free. Verified cells go through the
// ordinary memoized Run, so a verified row is byte-identical to what the
// untiered path produces for the same cell — the tier can skip
// simulations, never change them.

// ProbeCell returns the calibration probe for a cell: the same workload
// (app, system, scale, seed, GC, ablations, chaining, overrides) run
// unplaced on the full baseline machine at batch 1 with default events.
// Everything the probe drops is exactly what the fast tier models
// analytically (batch, slice, placement, spec variant, event count), so
// every cell of a sweep that varies only those axes shares one probe.
func ProbeCell(c Cell) Cell {
	c.BatchSize = 1
	c.Placement = nil
	c.Sockets = 0
	c.Cores = 0
	c.EventScale = 0
	c.Spec = ""
	return c
}

// TierGroup is one comparison group of a tiered sweep: the cells ranked
// against each other (one app/system series of a figure). The first cell
// is the group's anchor — the normalization base of the rendered table —
// and is always verified.
type TierGroup struct {
	Name  string
	Cells []Cell
}

// TierPolicy selects which screened cells get full simulation.
type TierPolicy struct {
	// Budget caps verified cells per group (<= 0 selects 4).
	Budget int
	// Neighborhood verifies the cells adjacent (in group order) to the
	// predicted best: the crossover region where a ranking error would
	// change the sweep's conclusion.
	Neighborhood int
	// Midpoint verifies the middle cell of the group, anchoring the
	// rank-correlation check across the group's full range rather than
	// only at its extremes.
	Midpoint bool
}

// TierCell is one screened cell of a tiered sweep: its candidate record
// (Predicted is Pred.ThroughputEPS) and the full fast-tier prediction.
type TierCell struct {
	Candidate
	Pred eval.Prediction
}

// TierRun is the outcome of one tiered sweep.
type TierRun struct {
	Name   string
	Groups []TierGroup
	// Cells mirrors Groups: Cells[g][i] is Groups[g].Cells[i] screened
	// (and possibly verified).
	Cells      [][]TierCell
	Validation Validation
}

// estimatorFor builds the fast-tier estimator from a probe cell and its
// simulated result.
func estimatorFor(probe Cell, res *engine.Result) (*eval.Estimator, error) {
	sys, err := SystemProfile(probe.System)
	if err != nil {
		return nil, err
	}
	spec, err := probe.MachineSpec()
	if err != nil {
		return nil, err
	}
	return eval.New(res, spec, sys, 1)
}

// targetFor translates a cell into the estimator's target relative to its
// probe. A partial Placement map (fewer entries than executors) falls back
// to the OS-spread model; the sweeps in this package only produce full
// maps (the placement search's output).
func targetFor(c Cell, probeSpec hw.MachineSpec, est *eval.Estimator) (eval.Target, error) {
	t := eval.Target{Sockets: c.Sockets, Cores: c.Cores, Batch: c.BatchSize}
	spec, err := c.MachineSpec()
	if err != nil {
		return t, err
	}
	if spec != probeSpec {
		t.Spec = spec
	}
	if len(c.Placement) == est.N() {
		assign := make([]int, est.N())
		for i := range assign {
			s, ok := c.Placement[i]
			if !ok {
				return t, fmt.Errorf("bench: placement map missing executor %d", i)
			}
			assign[i] = s
		}
		t.Assign = assign
	}
	return t, nil
}

// RunCellsTiered screens every cell of every group analytically, verifies
// the policy-selected subset by full simulation, and folds the sweep's
// model-vs-measured record, with pairs ranked within each group. Probe and
// verification simulations go through the ordinary memoized pool, so
// anything another sweep (tiered or not) already ran is shared, and
// verified Results are byte-identical to the untiered path's.
func RunCellsTiered(name string, groups []TierGroup, pol TierPolicy) (*TierRun, error) {
	run := &TierRun{Name: name, Groups: groups}

	// Distinct probes for the whole sweep, in first-appearance order.
	var probeCells []Cell
	probeIdx := make(map[string]int)
	probeOf := make([][]int, len(groups))
	for gi, g := range groups {
		probeOf[gi] = make([]int, len(g.Cells))
		for ci, c := range g.Cells {
			p := ProbeCell(c)
			key := p.Canonical()
			i, ok := probeIdx[key]
			if !ok {
				i = len(probeCells)
				probeIdx[key] = i
				probeCells = append(probeCells, p)
			}
			probeOf[gi][ci] = i
		}
	}
	probeResults, err := runCells(probeCells)
	if err != nil {
		return nil, fmt.Errorf("tier %s probes: %w", name, err)
	}

	ests := make([]*eval.Estimator, len(probeCells))
	specs := make([]hw.MachineSpec, len(probeCells))
	for i, pr := range probeResults {
		if ests[i], err = estimatorFor(pr.Cell, pr.Res); err != nil {
			return nil, fmt.Errorf("tier %s calibrate %s/%s: %w", name, pr.Cell.App, pr.Cell.System, err)
		}
		if specs[i], err = pr.Cell.MachineSpec(); err != nil {
			return nil, err
		}
	}

	// Screen everything, then pick the verification set per group.
	run.Cells = make([][]TierCell, len(groups))
	var picked []Candidate
	var pickedAt [][2]int
	for gi, g := range groups {
		run.Cells[gi] = make([]TierCell, len(g.Cells))
		for ci, c := range g.Cells {
			pi := probeOf[gi][ci]
			t, err := targetFor(c, specs[pi], ests[pi])
			if err != nil {
				return nil, fmt.Errorf("tier %s %s: %w", name, g.Name, err)
			}
			pred, err := ests[pi].Estimate(t)
			if err != nil {
				return nil, fmt.Errorf("tier %s %s cell %d: %w", name, g.Name, ci, err)
			}
			run.Cells[gi][ci] = TierCell{Candidate{Cell: c, Predicted: pred.ThroughputEPS}, pred}
		}
		for _, i := range pol.pick(run.Cells[gi]) {
			picked = append(picked, run.Cells[gi][i].Candidate)
			pickedAt = append(pickedAt, [2]int{gi, i})
		}
	}
	if err := verify(picked); err != nil {
		return nil, fmt.Errorf("tier %s verify: %w", name, err)
	}
	for k, at := range pickedAt {
		run.Cells[at[0]][at[1]].Res = picked[k].Res
	}

	run.Validation = Validation{Decision: "tier", Name: name, Probes: len(probeCells)}
	cands := make([][]Candidate, len(groups))
	for gi, cells := range run.Cells {
		run.Validation.Screened += len(cells)
		for _, tc := range cells {
			cands[gi] = append(cands[gi], tc.Candidate)
		}
	}
	run.Validation.score(cands...)
	return run, nil
}

// pick returns the indices to verify, deduplicated, in priority order:
// the predicted best, the group anchor (index 0), the midpoint, the
// best's neighbors, then the highest-uncertainty cell. Ties break to the
// lower index, so the selection is deterministic.
func (pol TierPolicy) pick(cells []TierCell) []int {
	budget := pol.Budget
	if budget <= 0 {
		budget = 4
	}
	n := len(cells)
	if n == 0 {
		return nil
	}
	best, maxU := 0, 0
	for i := 1; i < n; i++ {
		if cells[i].Pred.ThroughputEPS > cells[best].Pred.ThroughputEPS {
			best = i
		}
		if cells[i].Pred.Uncertainty > cells[maxU].Pred.Uncertainty {
			maxU = i
		}
	}
	cand := []int{best, 0}
	if pol.Midpoint {
		cand = append(cand, n/2)
	}
	for k := 1; k <= pol.Neighborhood; k++ {
		if best-k >= 0 {
			cand = append(cand, best-k)
		}
		if best+k < n {
			cand = append(cand, best+k)
		}
	}
	cand = append(cand, maxU)

	seen := make(map[int]bool, len(cand))
	var out []int
	for _, i := range cand {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
			if len(out) == budget {
				break
			}
		}
	}
	return out
}

// TierEstimate is one cell's fast-tier estimate (dspbench -tier): the
// probe that calibrated it and the resulting prediction.
type TierEstimate struct {
	Cell  Cell
	Probe Cell
	// ProbeThroughputEPS is the probe's measured throughput, for scale.
	ProbeThroughputEPS float64
	Pred               eval.Prediction
}

// EstimateCell screens one cell through the fast tier: one memoized probe
// simulation (often already cached), then an analytical estimate.
func EstimateCell(c Cell) (*TierEstimate, error) {
	probe := ProbeCell(c)
	res, err := Run(probe)
	if err != nil {
		return nil, err
	}
	est, err := estimatorFor(probe, res)
	if err != nil {
		return nil, err
	}
	spec, err := probe.MachineSpec()
	if err != nil {
		return nil, err
	}
	t, err := targetFor(c, spec, est)
	if err != nil {
		return nil, err
	}
	pred, err := est.Estimate(t)
	if err != nil {
		return nil, err
	}
	return &TierEstimate{
		Cell: c, Probe: probe,
		ProbeThroughputEPS: res.Throughput().PerSecond(),
		Pred:               pred,
	}, nil
}
