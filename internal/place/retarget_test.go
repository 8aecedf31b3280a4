package place

import (
	"math"
	"testing"

	"streamscale/internal/hw"
)

// relClose reports whether a and b agree to within rel relative error
// (absolute for values near zero).
func relClose(a, b, rel float64) bool {
	d := math.Abs(a - b)
	if d <= rel {
		return true
	}
	return d <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// modelsAgree compares the fields Retarget re-prices plus the predictions
// they feed, to within rel.
func modelsAgree(t *testing.T, tag string, got, want *Model, rel float64) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: executor count %d != %d", tag, got.N(), want.N())
	}
	for i := range want.Compute {
		if !relClose(got.Compute[i], want.Compute[i], rel) {
			t.Errorf("%s: Compute[%d] = %v, want %v", tag, i, got.Compute[i], want.Compute[i])
		}
		if !relClose(got.MemBytes[i], want.MemBytes[i], rel) {
			t.Errorf("%s: MemBytes[%d] = %v, want %v", tag, i, got.MemBytes[i], want.MemBytes[i])
		}
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"LocalBW", got.LocalBW, want.LocalBW},
		{"QPIBW", got.QPIBW, want.QPIBW},
		{"RemotePenalty", got.RemotePenalty, want.RemotePenalty},
		{"CrossMsgCycles", got.CrossMsgCycles, want.CrossMsgCycles},
		{"invokeCycles", got.invokeCycles, want.invokeCycles},
		{"deliveryCycles", got.deliveryCycles, want.deliveryCycles},
	} {
		if !relClose(f.got, f.want, rel) {
			t.Errorf("%s: %s = %v, want %v", tag, f.name, f.got, f.want)
		}
	}
	if got.Sockets != want.Sockets || got.CoresPerSocket != want.CoresPerSocket {
		t.Errorf("%s: shape %dx%d, want %dx%d", tag,
			got.Sockets, got.CoresPerSocket, want.Sockets, want.CoresPerSocket)
	}
	for _, a := range assignments(want.N(), want.Sockets) {
		if gb, wb := got.Bottleneck(a), want.Bottleneck(a); !relClose(gb, wb, rel) {
			t.Errorf("%s: Bottleneck(%v) = %v, want %v", tag, a, gb, wb)
		}
	}
}

// TestRetargetRoundTrip pins that retargeting is invertible: for every
// ordered pair of spec variants (A, B), a model calibrated on A and
// retargeted A -> B -> A reproduces the original to float precision. The
// re-pricing preserves the probe's line counts and µop totals (only the
// latency and retirement-rate pricing moves), so the round trip must not
// drift — drift here would mean the fast tier's per-variant estimates
// depend on the order sweeps visit specs.
func TestRetargetRoundTrip(t *testing.T) {
	res, sys := probe(t)
	const rel = 1e-12
	for _, na := range hw.VariantNames() {
		specA, ok := hw.Variant(na)
		if !ok {
			t.Fatalf("variant %q missing", na)
		}
		m, err := Calibrate(res, specA, sys, 1)
		if err != nil {
			t.Fatalf("calibrate on %q: %v", na, err)
		}
		// Seed CrossMsgCycles the way the fast tier does (two remote DRAM
		// latencies) so its remote-latency-ratio re-pricing is exercised.
		m.CrossMsgCycles = 2 * float64(specA.Latency.RemoteDRAM)
		for _, nb := range hw.VariantNames() {
			if nb == na {
				continue
			}
			specB, ok := hw.Variant(nb)
			if !ok {
				t.Fatalf("variant %q missing", nb)
			}
			rt := m.Retarget(specB).Retarget(specA)
			modelsAgree(t, na+"->"+nb+"->"+na, rt, m, rel)
		}
	}
}

// TestRetargetComposes pins that retargeting is path-independent: going
// A -> B -> C lands on the same model as A -> C directly, for every pair
// of intermediate and final variants. Line counts are spec-invariant and
// every priced quantity rescales by a ratio of spec scalars, so the
// intermediate hop must cancel out; a composition failure would make a
// retargeted model, and the fast tier's spec-matrix estimates built on it,
// depend on the path taken rather than only on the probe and the target.
func TestRetargetComposes(t *testing.T) {
	res, sys := probe(t)
	base, err := Calibrate(res, hw.TableIII(), sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	base.CrossMsgCycles = 2 * float64(hw.TableIII().Latency.RemoteDRAM)
	const rel = 1e-12
	for _, nb := range hw.VariantNames() {
		specB, _ := hw.Variant(nb)
		via := base.Retarget(specB)
		for _, nc := range hw.VariantNames() {
			specC, _ := hw.Variant(nc)
			got := via.Retarget(specC)
			want := base.Retarget(specC)
			modelsAgree(t, "via-"+nb+"->"+nc, got, want, rel)
		}
	}
}

// TestRetargetPricesLatencyDelta pins the arithmetic of one hop against
// the calibration identities: retargeting the Table III baseline onto the
// slowmem variant must add exactly (localB - localA) cycles per DRAM line
// to each executor's compute demand and leave the line count (MemBytes /
// block size) unchanged, and onto the turbo variant must leave compute
// untouched while shrinking the per-cycle bandwidths by the clock ratio.
func TestRetargetPricesLatencyDelta(t *testing.T) {
	res, sys := probe(t)
	specA := hw.TableIII()
	m, err := Calibrate(res, specA, sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	slow, _ := hw.Variant("slowmem")
	rt := m.Retarget(slow)
	dLat := float64(slow.Latency.LocalDRAM - specA.Latency.LocalDRAM)
	line := float64(specA.LLC.BlockBytes)
	for i := range m.Compute {
		lines := m.MemBytes[i] / line
		want := m.Compute[i] + lines*dLat
		if !relClose(rt.Compute[i], want, 1e-12) {
			t.Errorf("slowmem Compute[%d] = %v, want %v (+%v cycles/line over %v lines)",
				i, rt.Compute[i], want, dLat, lines)
		}
		if !relClose(rt.MemBytes[i], m.MemBytes[i], 1e-12) {
			t.Errorf("slowmem MemBytes[%d] = %v, want unchanged %v", i, rt.MemBytes[i], m.MemBytes[i])
		}
	}

	turbo, _ := hw.Variant("turbo")
	tb := m.Retarget(turbo)
	for i := range m.Compute {
		if tb.Compute[i] != m.Compute[i] {
			t.Errorf("turbo Compute[%d] = %v, want unchanged %v (same DRAM latency)",
				i, tb.Compute[i], m.Compute[i])
		}
	}
	if tb.LocalBW != turbo.LocalBWBytesPerCycle || tb.QPIBW != turbo.QPIBWBytesPerCycle {
		t.Errorf("turbo bandwidths %v/%v, want %v/%v",
			tb.LocalBW, tb.QPIBW, turbo.LocalBWBytesPerCycle, turbo.QPIBWBytesPerCycle)
	}
	if tb.ClockHz != turbo.ClockHz {
		t.Errorf("turbo ClockHz = %d, want %d", tb.ClockHz, turbo.ClockHz)
	}
}
