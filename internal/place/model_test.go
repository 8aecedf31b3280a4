package place

import (
	"math"
	"testing"

	"streamscale/internal/engine"
	"streamscale/internal/hw"
)

// assignments returns a few structurally different full assignments for a
// model with n executors on a machine with `sockets` sockets.
func assignments(n, sockets int) [][]int {
	all0 := make([]int, n)
	rr := make([]int, n)
	split := make([]int, n)
	for i := 0; i < n; i++ {
		rr[i] = i % sockets
		if i >= n/2 {
			split[i] = sockets - 1
		}
	}
	return [][]int{all0, rr, split}
}

// TestBottleneckOnSlices pins the slice semantics: a partial-core slice
// can only raise the bottleneck, an executor on a disabled socket is
// infeasible (+Inf), and the feasible slices convert to positive predicted
// throughput.
func TestBottleneckOnSlices(t *testing.T) {
	res, sys := probe(t)
	m, err := Calibrate(res, hw.TableIII(), sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]int, m.N())
	full := m.BottleneckOn(zeros, 0, 0)
	// Two enabled cores for six executors: the compute-over-cores and
	// interference terms must not shrink the bottleneck.
	if two := m.BottleneckOn(zeros, 1, 2); two < full {
		t.Errorf("2-core slice bottleneck %v < full-machine %v", two, full)
	}
	if tp := m.PredictThroughputOn(zeros, 1, 2); tp <= 0 {
		t.Errorf("feasible slice predicted non-positive throughput %v", tp)
	}
	// Any executor on socket 1 while only socket 0 is enabled is infeasible.
	rr := make([]int, m.N())
	for i := range rr {
		rr[i] = i % 2
	}
	if b := m.BottleneckOn(rr, 1, 0); !math.IsInf(b, 1) {
		t.Errorf("disabled-socket assignment scored %v, want +Inf", b)
	}
	if tp := m.PredictThroughputOn(rr, 1, 0); tp != 0 {
		t.Errorf("infeasible slice predicted throughput %v, want 0", tp)
	}
}

// TestCalibrateSingleSocketSpec pins that calibration and prediction work
// on a machine with one socket: no cross-socket terms exist, every
// all-zeros assignment is feasible, and the model's socket shape follows
// the spec rather than the Table III default.
func TestCalibrateSingleSocketSpec(t *testing.T) {
	res, sys := probe(t)
	spec := hw.TableIII()
	spec.Sockets = 1
	m, err := Calibrate(res, spec, sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sockets != 1 {
		t.Fatalf("model sockets = %d, want 1", m.Sockets)
	}
	zeros := make([]int, m.N())
	b := m.Bottleneck(zeros)
	if b <= 0 || math.IsInf(b, 1) {
		t.Fatalf("single-socket bottleneck %v", b)
	}
	if got := m.BottleneckOn(zeros, 0, 0); got != b {
		t.Fatalf("BottleneckOn = %v, Bottleneck = %v", got, b)
	}
}

// soloSource is a self-contained source for the single-executor probe.
type soloSource struct{ n, i int }

func (s *soloSource) Prepare(engine.Context) {}
func (s *soloSource) Next(ctx engine.Context) bool {
	if s.i >= s.n {
		return false
	}
	s.i++
	ctx.Emit("tick")
	return true
}

// TestCalibrateSingleExecutorTopology pins the n==1 edge case: a topology
// with one executor and no edges must calibrate (the no-edge-account error
// applies only to multi-executor probes) and predict a positive
// throughput for the only possible assignment. Flink's profile keeps the
// executor count at one — Storm would add its acker.
func TestCalibrateSingleExecutorTopology(t *testing.T) {
	topo := engine.NewTopology("solo")
	topo.AddSource("src", 1, func() engine.Source { return &soloSource{n: 40} },
		engine.Stream(engine.DefaultStream, "t"))
	res, err := engine.RunSim(topo, engine.SimConfig{System: engine.Flink(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Calibrate(res, hw.TableIII(), engine.Flink(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 1 || len(m.Edges) != 0 {
		t.Fatalf("model shape N=%d edges=%d, want 1 and 0", m.N(), len(m.Edges))
	}
	if tp := m.PredictThroughput([]int{0}); tp <= 0 {
		t.Fatalf("predicted throughput %v for the only assignment", tp)
	}
}

// TestRetarget pins the re-pricing contract: retargeting onto the
// calibration spec is an exact no-op for predictions, and a slower-memory
// variant can only raise the predicted bottleneck.
func TestRetarget(t *testing.T) {
	res, sys := probe(t)
	spec := hw.TableIII()
	m, err := Calibrate(res, spec, sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := m.Retarget(spec)
	slow, ok := hw.Variant("slowmem")
	if !ok {
		t.Fatal("slowmem variant missing")
	}
	rt := m.Retarget(slow)
	for _, a := range assignments(m.N(), m.Sockets) {
		base := m.Bottleneck(a)
		if got := same.Bottleneck(a); got != base {
			t.Errorf("same-spec retarget changed bottleneck: %v != %v for %v", got, base, a)
		}
		if got := rt.Bottleneck(a); got < base {
			t.Errorf("slowmem retarget lowered bottleneck: %v < %v for %v", got, base, a)
		}
	}
}
