package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"streamscale/internal/apps"
	"streamscale/internal/engine"
)

// tinySize shrinks every workload so that a test run takes seconds.
const tinySize = 0.02

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMetricTables checks that every metric name is well formed and used
// once, and that the code's tables match BENCHMARK.json in order.
func TestMetricTables(t *testing.T) {
	d := loadDeclared(t)
	seen := map[string]bool{}
	check := func(kind string, code []struct{ name, unit string }, file []struct{ Name, Unit string }) {
		if len(code) != len(file) {
			t.Fatalf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(code), len(file))
		}
		for i, m := range code {
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, m.name, m.unit)
			}
			if seen[m.name] {
				t.Errorf("%s: %s used twice", kind, m.name)
			}
			seen[m.name] = true
			if file[i].Name != m.name || file[i].Unit != m.unit {
				t.Errorf("%s[%d]: code %s/%s, BENCHMARK.json %s/%s", kind, i, m.name, m.unit, file[i].Name, file[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, d.EndToEnd)
	check("per_layer", perLayer, d.PerLayer)
	if len(d.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(d.Workloads), len(specs))
	}
	for i, w := range d.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, code %s", i, w.Name, specs[i].name)
		}
	}
}

// TestTinyWorkloads runs every workload at a tiny size, untraced and
// traced and at two seeds, and checks that each prints every declared
// metric of its mode with its unit and that the metric set does not
// depend on the seed.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := loadDeclared(t)
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			var keys [][]string
			for _, seed := range []int64{1, 2} {
				t.Run(fmt.Sprintf("%s/trace=%v/seed=%d", sp.name, trace, seed), func(t *testing.T) {
					rep, err := run(runConfig{workload: sp.name, seed: seed, seconds: 0.01, trace: trace, out: t.TempDir(), size: tinySize}, io.Discard)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
						t.Errorf("correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
					}
					if len(rep.Metrics) != len(want) {
						t.Errorf("%d metrics, want %d", len(rep.Metrics), len(want))
					}
					for _, m := range want {
						got, ok := rep.Metrics[m.Name]
						if !ok || got.Unit != m.Unit {
							t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
						}
					}
					keys = append(keys, sortedKeys(rep.Metrics))
				})
			}
			if len(keys) == 2 && !reflect.DeepEqual(keys[0], keys[1]) {
				t.Errorf("%s trace=%v: metric set changed with the seed", sp.name, trace)
			}
		}
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int64
		limit float64
		pct   float64
		ok    bool
	}{
		{19, 99, 0, false},   // not even ten samples beyond the median
		{20, 99, 50, true},   // exactly ten beyond the median
		{99, 99, 75, true},   // p90 would have 9.9 beyond
		{100, 99, 90, true},  // p90 has exactly ten beyond
		{1000, 99, 99, true}, // p99 has ten beyond
		{999, 99, 95, true},  // p99 would have 9.99 beyond
		{1e6, 99, 99, true},  // the workload's limit caps the ladder
		{1e6, 99.9, 99.9, true},
		{1e6, 75, 75, true},
	} {
		got, ok := pickTail(c.n, c.limit)
		if ok != c.ok || (ok && got.Pct != c.pct) || got.Samples != c.n {
			t.Errorf("pickTail(%d, %g) = %+v, %v; want p%g, %v", c.n, c.limit, got, ok, c.pct, c.ok)
		}
		if ok && beyond(c.n, got.Pct) < minBeyond {
			t.Errorf("pickTail(%d, %g) chose p%g with fewer than %d samples beyond", c.n, c.limit, got.Pct, minBeyond)
		}
	}
}

// TestSeedChangesInputs checks that the seed reaches the generated inputs:
// the simulated cells' outputs and the native pipeline's source stream.
func TestSeedChangesInputs(t *testing.T) {
	digests := func(seed int64) []uint64 {
		s := &simCells{seed: seed, size: tinySize}
		if err := s.setup(nil); err != nil {
			t.Fatal(err)
		}
		return s.ref
	}
	if reflect.DeepEqual(digests(1), digests(2)) {
		t.Error("sim-cells: seeds 1 and 2 simulated identical cells")
	}
	if !reflect.DeepEqual(digests(3), digests(3)) {
		t.Error("sim-cells: one seed gave two different sets of cells")
	}
	sentences := func(seed int64) []engine.Tuple {
		topo, err := apps.Build("wc", apps.Config{Events: 50, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		src := topo.Nodes()[0].NewSource()
		ctx := &stubCtx{rng: rand.New(rand.NewSource(seed))}
		src.Prepare(ctx)
		for src.Next(ctx) {
		}
		return ctx.out
	}
	if reflect.DeepEqual(sentences(1), sentences(2)) {
		t.Error("native: seeds 1 and 2 generated the same source stream")
	}
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 0.75); got != 3.25 {
		t.Errorf("quantile(0.75) = %g, want 3.25", got)
	}
	if got := iqm([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("iqm = %g, want 3.5", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
