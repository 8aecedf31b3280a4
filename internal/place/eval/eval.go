// Package eval is the fast-evaluation tier: it generalizes the calibrated
// placement cost model (internal/place) from "rank socket assignments for
// one cell" into an estimator that predicts throughput and latency for ANY
// experiment cell — machine slice, batch size, placement, spec variant —
// from ONE cycle-exact probe simulation per workload. An estimate costs
// microseconds where a simulation costs seconds, so a sweep can screen
// thousands of cells analytically and spend simulations only where the
// screen says they matter (internal/bench's tiered runner).
//
// Every estimate carries an Uncertainty score: zero at the calibration
// point, growing with each analytical extrapolation applied (batch
// adjustment, spec retarget, machine-slice change, modeled OS spread,
// oversubscription). The tiered runner verifies high-uncertainty cells
// preferentially, so the score is a screening priority, not a confidence
// interval.
package eval

import (
	"fmt"
	"math"

	"streamscale/internal/engine"
	"streamscale/internal/hw"
	"streamscale/internal/place"
)

// Uncertainty weights: one unit of "analytical distance" per extrapolation
// the estimate takes beyond what the probe measured. The relative order is
// what matters (spec retarget > slice change > batch step), calibrated so
// the worst cells of bench's TestTierSmoke sweep rank above its
// best-understood ones.
const (
	uncPerBatchDoubling = 0.03 // batch moved 2x away from the probe's
	uncSpecRetarget     = 0.15 // machine spec re-priced analytically
	uncSliceChange      = 0.05 // different socket/core slice than probed
	uncOSSpread         = 0.05 // floating threads modeled as round-robin
	uncOversubscribed   = 0.10 // more executors than enabled cores
)

// Target describes the configuration to estimate, relative to the probe's
// workload (same app, system, scale, seed — those are baked into the
// estimator; anything that changes them needs its own probe).
type Target struct {
	// Sockets enables the first n sockets (0 = all); Cores, if nonzero,
	// restricts to the machine's first n cores. SimConfig semantics.
	Sockets int
	Cores   int
	// Batch is the tuple-batching S (0/1 = off).
	Batch int
	// Assign pins each executor (global index) to a socket; nil models
	// the simulator's OS-spread default as round-robin over the enabled
	// sockets (matching its queue-memory placement rule).
	Assign []int
	// Spec retargets the estimate onto a different machine; the zero
	// value keeps the probe's spec.
	Spec hw.MachineSpec
}

// Prediction is one analytical estimate.
type Prediction struct {
	// ThroughputEPS is predicted source throughput in events/s, anchored
	// to the probe's measurement: the analytical model supplies the
	// *ratio* between the target and the probe configuration, the probe's
	// measured throughput supplies the scale. Anchoring cancels the
	// model's per-workload bound looseness (its bottleneck terms are
	// admissible lower bounds, so raw analytical throughput overshoots by
	// a workload-dependent factor), which keeps estimates calibrated
	// against different probes comparable within one sweep group.
	ThroughputEPS float64
	// LatencyMs is a coarse mean-latency estimate: the probe's measured
	// mean scaled by the predicted service-time ratio and the batch
	// accumulation delay. Useful for trends, not for absolute SLOs.
	LatencyMs float64
	// BottleneckCycles is the model's raw score (lower is better).
	BottleneckCycles float64
	// Uncertainty is the accumulated analytical distance from the probe.
	Uncertainty float64
}

// Estimator predicts cell performance from one calibrated probe.
type Estimator struct {
	base *place.Model
	spec hw.MachineSpec // the spec the probe simulated

	probeBatch   int
	probeScore   float64 // base model's score of the probe's own run
	probeEPS     float64 // events/s, measured by the probe
	probeMeanLat float64 // ms, measured by the probe
}

// New calibrates an estimator from a probe simulation's result. The probe
// should be an UNPLACED full-machine run of the workload (the same cell
// the placement search probes with), simulated on spec under sys at
// probeBatch (almost always 1, the cheapest and sharpest calibration
// point: batching effects are then modeled, never baked in).
func New(res *engine.Result, spec hw.MachineSpec, sys engine.SystemProfile, probeBatch int) (*Estimator, error) {
	if probeBatch <= 0 {
		probeBatch = 1
	}
	m, err := place.Calibrate(res, spec, sys, probeBatch)
	if err != nil {
		return nil, err
	}
	// The placement search compares assignments that share a slice, where
	// per-byte crossing penalties suffice; the tier also compares *slices*
	// against each other, where the fixed per-message cost of a crossing
	// delivery is what makes ack-heavy cross-socket traffic expensive:
	// the queue's slot line and its index line each take a remote
	// round-trip the consumer cannot hide, so price a crossing message at
	// two remote latencies. Calibrate leaves the term zero so the
	// placement search (and the default report) is unchanged.
	m.CrossMsgCycles = 2 * float64(spec.Latency.RemoteDRAM)
	e := &Estimator{
		base:         m,
		spec:         spec,
		probeBatch:   probeBatch,
		probeEPS:     res.Throughput().PerSecond(),
		probeMeanLat: res.Latency.Mean(),
	}
	e.probeScore = m.BottleneckOn(roundRobin(m.N(), spec.Sockets), 0, 0)
	if e.probeScore <= 0 || math.IsInf(e.probeScore, 1) {
		return nil, fmt.Errorf("eval: probe model has no positive bottleneck")
	}
	if e.probeEPS <= 0 {
		return nil, fmt.Errorf("eval: probe measured no throughput")
	}
	return e, nil
}

// N returns the workload's executor count.
func (e *Estimator) N() int { return e.base.N() }

// Estimate predicts the workload's performance at the target
// configuration. It never simulates; cost is microseconds.
func (e *Estimator) Estimate(t Target) (Prediction, error) {
	m := e.base
	spec := e.spec
	var unc float64

	if t.Spec != (hw.MachineSpec{}) && t.Spec != e.spec {
		m = m.Retarget(t.Spec)
		spec = t.Spec
		unc += uncSpecRetarget
	}
	batch := t.Batch
	if batch <= 0 {
		batch = 1
	}
	if batch != e.probeBatch {
		m = m.WithBatch(batch)
		r := float64(batch) / float64(e.probeBatch)
		if r < 1 {
			r = 1 / r
		}
		unc += uncPerBatchDoubling * math.Log2(r)
	}

	sockets, enabled := hw.Slice(spec.Sockets, spec.CoresPerSocket, t.Sockets, t.Cores)
	if sockets != spec.Sockets || enabled != spec.TotalCores() {
		unc += uncSliceChange
	}
	// Sockets covered by the enabled cores (the last may be partial) —
	// the only sockets an unpinned executor's queue can land on.
	covered := (enabled + spec.CoresPerSocket - 1) / spec.CoresPerSocket

	assign := t.Assign
	if assign == nil {
		assign = roundRobin(m.N(), covered)
		if covered > 1 {
			unc += uncOSSpread
		}
	} else if len(assign) != m.N() {
		return Prediction{}, fmt.Errorf("eval: assignment has %d executors, workload %d", len(assign), m.N())
	}
	if m.N() > enabled {
		unc += uncOversubscribed
	}

	score := m.BottleneckOn(assign, sockets, t.Cores)
	if math.IsInf(score, 1) {
		return Prediction{}, fmt.Errorf("eval: assignment uses a disabled socket")
	}
	// Anchor: predicted/probe analytical throughput gives the model's
	// ratio (clock changes from a retarget included via PredictThroughputOn),
	// and the probe's measured throughput gives the scale.
	probeAnalytic := float64(e.base.SourceEvents) * float64(e.base.ClockHz) / e.probeScore
	p := Prediction{
		BottleneckCycles: score,
		ThroughputEPS:    e.probeEPS * m.PredictThroughputOn(assign, sockets, t.Cores) / probeAnalytic,
		Uncertainty:      unc,
	}
	// Coarse latency: service time scales with the bottleneck ratio, and
	// a tuple waits on average half a batch before dispatch.
	p.LatencyMs = e.probeMeanLat * (score / e.probeScore) * (1 + 0.5*float64(batch-1))
	return p, nil
}

// roundRobin models the simulator's OS-spread default: executor i's queue
// memory lands on enabled socket i%covered.
func roundRobin(n, covered int) []int {
	if covered < 1 {
		covered = 1
	}
	a := make([]int, n)
	for i := range a {
		a[i] = i % covered
	}
	return a
}
