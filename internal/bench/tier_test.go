package bench

import (
	"testing"
)

// TestProbeCell pins the probe collapse: batch, slice, placement, event
// scale, and spec variant are dropped (those axes are modeled), while the
// workload identity — app, system, scale, seed, GC, ablations — survives.
func TestProbeCell(t *testing.T) {
	c := Cell{
		App: "wc", System: "storm",
		Sockets: 1, Cores: 4, BatchSize: 8, EventScale: 0.5,
		Placement: map[int]int{0: 1}, Spec: "turbo",
		Scale: 2, Seed: 7, Chaining: true, NoUopCache: true,
	}
	p := ProbeCell(c)
	if p.BatchSize != 1 || p.Sockets != 0 || p.Cores != 0 ||
		p.Placement != nil || p.EventScale != 0 || p.Spec != "" {
		t.Fatalf("probe did not drop modeled axes: %+v", p)
	}
	if p.App != c.App || p.System != c.System || p.Scale != c.Scale ||
		p.Seed != c.Seed || !p.Chaining || !p.NoUopCache {
		t.Fatalf("probe dropped workload identity: %+v", p)
	}
	// Every cell of a sweep that varies only modeled axes shares one probe.
	d := c
	d.BatchSize, d.Sockets, d.Spec = 32, 4, "slowmem"
	if ProbeCell(c).Canonical() != ProbeCell(d).Canonical() {
		t.Fatal("cells differing only in modeled axes have distinct probes")
	}
}

// TestEstimateCellSharesProbe pins the memo amortization: estimating a
// cell whose probe was already simulated runs zero new simulations — the
// calibration probe is a cache hit, and the estimate itself is analytical.
func TestEstimateCellSharesProbe(t *testing.T) {
	ResetMemo()
	cell := Cell{App: "wc", System: "storm", Sockets: 1, BatchSize: 8}
	if _, err := Run(ProbeCell(cell)); err != nil {
		t.Fatal(err)
	}
	if st := MemoStats(); st.Runs != 1 {
		t.Fatalf("probe warm-up ran %d simulations", st.Runs)
	}
	est, err := EstimateCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if st := MemoStats(); st.Runs != 1 {
		t.Fatalf("estimate re-simulated: %d runs, want the probe's 1", st.Runs)
	}
	if est.Pred.ThroughputEPS <= 0 || est.ProbeThroughputEPS <= 0 {
		t.Fatalf("estimate not positive: %+v", est)
	}
	if est.Cell.Canonical() != cell.Canonical() || est.Probe.Canonical() != ProbeCell(cell).Canonical() {
		t.Fatalf("estimate screened %s on probe %s, want %s on %s",
			est.Cell.Canonical(), est.Probe.Canonical(), cell.Canonical(), ProbeCell(cell).Canonical())
	}
}

// TestRunCellsTiered pins the tiered sweep contract on a small batching
// group: every cell is screened, the selection is the policy's (anchor +
// predicted best + midpoint, within budget), verified results are the
// memoized ones the untiered path returns, and the validation record is
// returned. Running the same sweep again must reproduce the selection
// and the record: nothing carries over between runs.
func TestRunCellsTiered(t *testing.T) {
	ResetMemo()
	group := TierGroup{Name: "wc/storm", Cells: []Cell{
		{App: "wc", System: "storm", Sockets: 1, BatchSize: 1},
		{App: "wc", System: "storm", Sockets: 1, BatchSize: 2},
		{App: "wc", System: "storm", Sockets: 1, BatchSize: 4},
		{App: "wc", System: "storm", Sockets: 1, BatchSize: 8},
	}}
	pol := TierPolicy{Budget: 3, Midpoint: true}

	run, err := RunCellsTiered("tier-test", []TierGroup{group}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Cells) != 1 || len(run.Cells[0]) != len(group.Cells) {
		t.Fatalf("screened shape %dx%d", len(run.Cells), len(run.Cells[0]))
	}
	var verified []int
	for i, tc := range run.Cells[0] {
		if tc.Pred.ThroughputEPS <= 0 {
			t.Fatalf("cell %d screened non-positive throughput", i)
		}
		if tc.Res != nil {
			verified = append(verified, i)
		}
	}
	if len(verified) != 3 {
		t.Fatalf("verified %v, want exactly the budget of 3", verified)
	}
	if run.Cells[0][0].Res == nil {
		t.Fatal("group anchor not verified")
	}

	// Verified rows are the same memoized Results the untiered path yields.
	runsBefore := MemoStats().Runs
	for _, i := range verified {
		direct, err := Run(group.Cells[i])
		if err != nil {
			t.Fatal(err)
		}
		if direct != run.Cells[0][i].Res {
			t.Fatalf("verified cell %d result differs from untiered Run", i)
		}
	}
	if MemoStats().Runs != runsBefore {
		t.Fatal("untiered re-check simulated instead of hitting the memo")
	}

	// One probe for the whole group (only modeled axes vary), plus one
	// simulation per verified cell.
	if got, want := MemoStats().Runs, int64(1+len(verified)); got != want {
		t.Fatalf("simulations = %d, want %d (1 probe + %d verified)", got, want, len(verified))
	}
	if v := run.Validation; v.Decision != "tier" || v.Name != "tier-test" ||
		v.Screened != 4 || v.Verified != 3 || v.Probes != 1 {
		t.Fatalf("validation record %+v", v)
	}

	// The sweep is deterministic: a second run reproduces the selection and
	// predictions without any new simulation.
	again, err := RunCellsTiered("tier-test", []TierGroup{group}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if MemoStats().Runs != int64(1+len(verified)) {
		t.Fatal("repeat sweep simulated new cells")
	}
	for i := range again.Cells[0] {
		if again.Cells[0][i].Pred != run.Cells[0][i].Pred {
			t.Fatalf("cell %d prediction changed across runs", i)
		}
		if (again.Cells[0][i].Res != nil) != (run.Cells[0][i].Res != nil) {
			t.Fatalf("cell %d verification selection changed across runs", i)
		}
	}
	if again.Validation != run.Validation {
		t.Fatalf("repeat sweep record %+v, first run %+v", again.Validation, run.Validation)
	}
}

// TestTierPolicyPick pins the selection order and budget handling on
// synthetic predictions, independent of any simulation.
func TestTierPolicyPick(t *testing.T) {
	cells := make([]TierCell, 6)
	for i, tp := range []float64{10, 40, 30, 90, 20, 50} {
		cells[i].Pred.ThroughputEPS = tp
	}
	cells[4].Pred.Uncertainty = 0.9 // max-uncertainty straggler

	// best=3, anchor=0, midpoint n/2=3 (dup), neighbors 2 and 4, maxU=4 (dup).
	got := TierPolicy{Budget: 6, Neighborhood: 1, Midpoint: true}.pick(cells)
	want := []int{3, 0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("pick = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick = %v, want %v", got, want)
		}
	}

	// Budget truncates in priority order.
	if got := (TierPolicy{Budget: 2, Neighborhood: 1, Midpoint: true}).pick(cells); len(got) != 2 || got[0] != 3 || got[1] != 0 {
		t.Fatalf("budget-2 pick = %v, want [3 0]", got)
	}
	if got := (TierPolicy{}).pick(nil); got != nil {
		t.Fatalf("empty group picked %v", got)
	}
}
