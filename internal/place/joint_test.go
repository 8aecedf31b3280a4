package place

import (
	"math"
	"reflect"
	"testing"

	"streamscale/internal/apps"
	"streamscale/internal/engine"
)

// toyWorkload builds a synthetic four-operator workload over a hand-built
// model: source(1) -shuffle-> split(2) -fields-> count(2) -global-> sink(1),
// with skewed count executors so the key-share model has something to see.
func toyWorkload() *Workload {
	m := &Model{
		Sockets:        3,
		CoresPerSocket: 2,
		ClockHz:        2_400_000_000,
		LocalBW:        21.33,
		QPIBW:          3.33,
		RemotePenalty:  2.03,
		SourceEvents:   1000,
		Batch:          1,
		invokeCycles:   300,
		deliveryCycles: 85,
	}
	// Executors: 0=source, 1-2=split, 3-4=count (skewed), 5=sink.
	m.Compute = []float64{800, 1500, 1500, 2600, 1400, 300}
	m.MemBytes = []float64{100, 400, 400, 900, 500, 50}
	m.Invocations = []float64{10, 40, 40, 60, 35, 20}
	m.OutMsgs = make([]float64, 6)
	add := func(from, to int, bytes, msgs float64) {
		m.Edges = append(m.Edges, Edge{From: from, To: to, Bytes: bytes, Msgs: msgs})
		m.OutMsgs[from] += msgs
	}
	add(0, 1, 500, 10)
	add(0, 2, 500, 10)
	add(1, 3, 700, 20) // fields: the hot key mass lands on count exec 3
	add(1, 4, 300, 10)
	add(2, 3, 700, 20)
	add(2, 4, 300, 10)
	add(3, 5, 400, 12)
	add(4, 5, 200, 6)

	w := &Workload{
		Model: m,
		Ops: []OpShape{
			{Name: "source", First: 0, Count: 1, Source: true},
			{Name: "split", First: 1, Count: 2},
			{Name: "count", First: 3, Count: 2, Keyed: true},
			{Name: "sink", First: 5, Count: 1, GlobalOnly: true},
		},
		Edges: []OpEdge{
			{From: 0, To: 1, Group: engine.GroupShuffle},
			{From: 1, To: 2, Group: engine.GroupFields},
			{From: 2, To: 3, Group: engine.GroupGlobal},
		},
		opOf: []int{0, 1, 1, 2, 2, 3},
	}
	return w
}

// syntheticModelFor builds a model with n executors of plausible values —
// enough for NewWorkload, which only checks the count.
func syntheticModelFor(n int) *Model {
	m := &Model{
		Sockets: 4, CoresPerSocket: 8, ClockHz: 2_400_000_000,
		LocalBW: 21.33, QPIBW: 3.33, RemotePenalty: 2.03,
		SourceEvents: 1000, Batch: 1,
	}
	m.Compute = make([]float64, n)
	m.MemBytes = make([]float64, n)
	m.Invocations = make([]float64, n)
	m.OutMsgs = make([]float64, n)
	for i := range m.Compute {
		m.Compute[i] = float64(500 + 100*i)
		m.MemBytes[i] = float64(40 * (i + 1))
		m.Invocations[i] = 10
	}
	return m
}

// TestNewWorkloadWordCount derives the operator structure from the real
// word-count topology and pins the grouping-driven flags the joint search
// keys off: sources and the acker are fixed, the fields-grouped counter is
// keyed, and the globally-grouped sink is excluded from the search.
func TestNewWorkloadWordCount(t *testing.T) {
	topo, err := apps.Build("wc", apps.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sys := engine.Storm()
	xt, err := engine.BuildExecTopology(topo, sys)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, node := range xt.Nodes() {
		n += node.Parallelism
	}
	w, err := NewWorkload(syntheticModelFor(n), topo, sys)
	if err != nil {
		t.Fatal(err)
	}

	byName := map[string]OpShape{}
	for _, op := range w.Ops {
		byName[op.Name] = op
	}
	if !byName["source"].Source {
		t.Error("source not flagged Source")
	}
	if !byName[engine.AckerName].System {
		t.Errorf("%s not flagged System", engine.AckerName)
	}
	if !byName["count"].Keyed {
		t.Error("count (fields-grouped) not flagged Keyed")
	}
	if !byName["sink"].GlobalOnly {
		t.Error("sink (globally grouped) not flagged GlobalOnly")
	}

	var names []string
	for _, i := range w.Searchable() {
		names = append(names, w.Ops[i].Name)
	}
	if !reflect.DeepEqual(names, []string{"split", "count"}) {
		t.Errorf("searchable ops = %v, want [split count]", names)
	}

	// Executor layout must line up with the exec topology's contiguous
	// global indexing.
	total := 0
	for i, node := range xt.Nodes() {
		if w.Ops[i].First != total || w.Ops[i].Count != node.Parallelism {
			t.Errorf("op %s layout {%d,%d}, want {%d,%d}",
				node.Name, w.Ops[i].First, w.Ops[i].Count, total, node.Parallelism)
		}
		total += node.Parallelism
	}
}

// TestReparallelizeIdentity: the probe's own vector returns the calibrated
// model itself — fixed-parallelism plans score identically under joint and
// placement-only search.
func TestReparallelizeIdentity(t *testing.T) {
	w := toyWorkload()
	m, err := w.Reparallelize(w.DefaultPar())
	if err != nil {
		t.Fatal(err)
	}
	if m != w.Model {
		t.Fatal("identity vector did not return the base model")
	}
}

func TestReparallelizeRejectsBadVectors(t *testing.T) {
	w := toyWorkload()
	if _, err := w.Reparallelize([]int{1, 2}); err == nil {
		t.Error("short vector accepted")
	}
	if _, err := w.Reparallelize([]int{1, 0, 2, 1}); err == nil {
		t.Error("zero parallelism accepted")
	}
	if _, err := w.Reparallelize([]int{2, 2, 2, 1}); err == nil {
		t.Error("source rescale accepted")
	}
}

// TestReparallelizeConservation: rescaling must conserve the calibrated
// totals — compute, memory, invocations, and per-pair edge traffic are
// redistributed, never created or destroyed.
func TestReparallelizeConservation(t *testing.T) {
	w := toyWorkload()
	base := w.Model
	sum := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x
		}
		return t
	}
	for _, par := range [][]int{
		{1, 4, 2, 1}, {1, 1, 4, 1}, {1, 3, 3, 1}, {1, 4, 4, 1},
	} {
		m, err := w.Reparallelize(par)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.N(), par[0]+par[1]+par[2]+par[3]; got != want {
			t.Fatalf("par %v: n = %d, want %d", par, got, want)
		}
		for name, pair := range map[string][2]float64{
			"compute":     {sum(m.Compute), sum(base.Compute)},
			"mem":         {sum(m.MemBytes), sum(base.MemBytes)},
			"invocations": {sum(m.Invocations), sum(base.Invocations)},
		} {
			if math.Abs(pair[0]-pair[1]) > 1e-9*pair[1] {
				t.Errorf("par %v: %s total %v, want %v", par, name, pair[0], pair[1])
			}
		}
		var bytes, baseBytes float64
		for _, e := range m.Edges {
			bytes += e.Bytes
		}
		for _, e := range base.Edges {
			baseBytes += e.Bytes
		}
		if math.Abs(bytes-baseBytes) > 1e-9*baseBytes {
			t.Errorf("par %v: edge bytes %v, want %v", par, bytes, baseBytes)
		}
		if got, want := sum(m.OutMsgs), sum(base.OutMsgs); math.Abs(got-want) > 1e-9*want {
			t.Errorf("par %v: out msgs %v, want %v", par, got, want)
		}
	}
}

// TestReparallelizeShuffleSplitsEvenly: doubling a shuffle-fed operator
// halves its per-executor demand.
func TestReparallelizeShuffleSplitsEvenly(t *testing.T) {
	w := toyWorkload()
	m, err := w.Reparallelize([]int{1, 4, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Split executors are now globals 1..4; probe total was 3000.
	for i := 1; i <= 4; i++ {
		if math.Abs(m.Compute[i]-750) > 1e-9 {
			t.Errorf("split exec %d compute %v, want 750", i, m.Compute[i])
		}
	}
	// The unchanged count op keeps its measured skew (globals 5,6).
	if m.Compute[5] != 2600 || m.Compute[6] != 1400 {
		t.Errorf("count kept %v/%v, want 2600/1400", m.Compute[5], m.Compute[6])
	}
}

// TestReparallelizeKeyShare pins the fields-grouping skew model: at the
// probe parallelism the measured hot share is kept; growing the executor
// count shrinks the hot bucket toward — but never below — the uniform
// share, and the remainder splits evenly.
func TestReparallelizeKeyShare(t *testing.T) {
	w := toyWorkload()
	hot := 2600.0 / 4000.0 // probe hot share of the count op

	m4, err := w.Reparallelize([]int{1, 2, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Count executors are globals 3..6; hot bucket rehashed over 4 buckets
	// holds hot * 2/4 of the mass.
	wantHot := 4000 * hot * 2 / 4
	if math.Abs(m4.Compute[3]-wantHot) > 1e-9 {
		t.Errorf("hot bucket at k=4: %v, want %v", m4.Compute[3], wantHot)
	}
	for i := 4; i <= 6; i++ {
		want := (4000 - wantHot) / 3
		if math.Abs(m4.Compute[i]-want) > 1e-9 {
			t.Errorf("cold bucket %d at k=4: %v, want %v", i, m4.Compute[i], want)
		}
	}

	// At very large k the skew floors at the uniform share.
	m16, err := w.Reparallelize([]int{1, 2, 16, 1})
	if err != nil {
		t.Fatal(err)
	}
	uniform := 4000.0 / 16
	if m16.Compute[3] < uniform-1e-9 {
		t.Errorf("hot bucket fell below uniform: %v < %v", m16.Compute[3], uniform)
	}
	for i := 3; i < 19; i++ {
		if m16.Compute[i] > 4000*hot {
			t.Errorf("bucket %d exceeds probe hot mass: %v", i, m16.Compute[i])
		}
	}
}

// TestReparallelizeGlobalEdges: traffic into a globally grouped consumer
// lands entirely on its executor 0, whatever the producer's parallelism.
func TestReparallelizeGlobalEdges(t *testing.T) {
	w := toyWorkload()
	m, err := w.Reparallelize([]int{1, 2, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := 1 + 2 + 4 // global index of the sink executor
	var toSink float64
	for _, e := range m.Edges {
		if e.To == sink {
			toSink += e.Bytes
		}
		if e.From >= 3 && e.From < 7 && e.To != sink {
			t.Errorf("count edge to non-sink executor %d", e.To)
		}
	}
	if math.Abs(toSink-600) > 1e-9 { // probe pair total 400+200
		t.Errorf("sink inbound bytes %v, want 600", toSink)
	}
}

// TestReparallelizeAllGrouping: an all-grouped consumer receives the full
// producer output per replica, so pair traffic and consumer demand scale
// with the replica count.
func TestReparallelizeAllGrouping(t *testing.T) {
	m := &Model{
		Sockets: 2, CoresPerSocket: 4, ClockHz: 2_400_000_000,
		LocalBW: 21.33, QPIBW: 3.33, RemotePenalty: 2.03,
		SourceEvents: 100, Batch: 1,
		Compute:     []float64{500, 900, 900},
		MemBytes:    []float64{50, 80, 80},
		Invocations: []float64{10, 20, 20},
		OutMsgs:     []float64{8, 0, 0},
		Edges: []Edge{
			{From: 0, To: 1, Bytes: 300, Msgs: 4},
			{From: 0, To: 2, Bytes: 300, Msgs: 4},
		},
	}
	w := &Workload{
		Model: m,
		Ops: []OpShape{
			{Name: "src", First: 0, Count: 1, Source: true},
			{Name: "bcast", First: 1, Count: 2, AllOnly: true},
		},
		Edges: []OpEdge{{From: 0, To: 1, Group: engine.GroupAll}},
		opOf:  []int{0, 1, 1},
	}
	out, err := w.Reparallelize([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Each replica still carries the full per-replica demand.
	for i := 1; i <= 4; i++ {
		if math.Abs(out.Compute[i]-900) > 1e-9 {
			t.Errorf("replica %d compute %v, want 900", i, out.Compute[i])
		}
	}
	var bytes float64
	for _, e := range out.Edges {
		bytes += e.Bytes
	}
	if math.Abs(bytes-1200) > 1e-9 { // 300 per replica x 4
		t.Errorf("broadcast bytes %v, want 1200", bytes)
	}
}

// TestVectorFloorAdmissible: the cheap per-vector bound never exceeds the
// bottleneck of ANY assignment of the re-priced model — checked against
// the greedy assignment, which upper-bounds the optimum.
func TestVectorFloorAdmissible(t *testing.T) {
	w := toyWorkload()
	for _, par := range [][]int{
		{1, 2, 2, 1}, {1, 1, 1, 1}, {1, 4, 2, 1}, {1, 2, 4, 1}, {1, 4, 4, 1}, {1, 3, 2, 1},
	} {
		m, err := w.Reparallelize(par)
		if err != nil {
			t.Fatal(err)
		}
		floor := w.vectorFloor(par)
		if g := m.greedy(); floor > g.Score+1e-9 {
			t.Errorf("par %v: floor %v above greedy score %v", par, floor, g.Score)
		}
	}
}

// TestSearchJointDeterministicAcrossWorkers pins the joint search's
// worker-count independence — the property the CI jobs-diff stage gates.
func TestSearchJointDeterministicAcrossWorkers(t *testing.T) {
	w := toyWorkload()
	run := func(workers int) *JointResult {
		r, err := w.SearchJoint(JointOptions{Search: SearchOptions{Workers: workers}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1, r4, r9 := run(1), run(4), run(9)
	if !reflect.DeepEqual(r1, r4) || !reflect.DeepEqual(r1, r9) {
		t.Fatalf("joint results vary with worker count:\n1: %+v\n4: %+v\n9: %+v", r1, r4, r9)
	}
	if r1.VectorsScreened == 0 || r1.VectorsSearched == 0 {
		t.Fatalf("counters empty: %+v", r1)
	}
}

// TestSearchJointNeverWorseThanDefault: the joint optimum scores at least
// as well as the best placement-only plan under the same model — the
// default vector is always searched in full.
func TestSearchJointNeverWorseThanDefault(t *testing.T) {
	w := toyWorkload()
	r, err := w.SearchJoint(JointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	fixed := w.Model.Search(SearchOptions{TopM: 1})
	if r.Candidates[0].Score > fixed[0].Score {
		t.Fatalf("joint best %v worse than fixed-parallelism best %v",
			r.Candidates[0].Score, fixed[0].Score)
	}
	// Even with the vector budget squeezed to the default vector alone.
	r1, err := w.SearchJoint(JointOptions{vectorBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Candidates[0].Score > fixed[0].Score {
		t.Fatalf("budget-1 joint best %v worse than fixed best %v",
			r1.Candidates[0].Score, fixed[0].Score)
	}
}

// TestSearchJointScoresAreExact: every returned candidate's score equals
// the re-priced model's bottleneck for its assignment, with the fixed
// per-message crossing cost priced too.
func TestSearchJointScoresAreExact(t *testing.T) {
	w := toyWorkload()
	w.Model.CrossMsgCycles = 50
	r, err := w.SearchJoint(JointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.Candidates {
		m, err := w.Reparallelize(c.Par)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Bottleneck(c.Assign); math.Abs(got-c.Score) > 1e-9 {
			t.Errorf("par %v assign %v: score %v != bottleneck %v", c.Par, c.Assign, c.Score, got)
		}
		if len(c.Assign) != m.N() {
			t.Errorf("par %v: assignment length %d != n %d", c.Par, len(c.Assign), m.N())
		}
	}
}

// TestSearchJointFindsSerialBottleneckFix: a workload whose default shape
// pins all its compute in one executor must improve when the joint search
// is allowed to scale that operator out.
func TestSearchJointFindsSerialBottleneckFix(t *testing.T) {
	m := &Model{
		Sockets: 2, CoresPerSocket: 4, ClockHz: 2_400_000_000,
		LocalBW: 21.33, QPIBW: 3.33, RemotePenalty: 2.03,
		SourceEvents: 100, Batch: 1,
		Compute:     []float64{400, 6000, 200},
		MemBytes:    []float64{40, 600, 20},
		Invocations: []float64{10, 50, 10},
		OutMsgs:     []float64{8, 4, 0},
		Edges: []Edge{
			{From: 0, To: 1, Bytes: 300, Msgs: 8},
			{From: 1, To: 2, Bytes: 150, Msgs: 4},
		},
	}
	w := &Workload{
		Model: m,
		Ops: []OpShape{
			{Name: "src", First: 0, Count: 1, Source: true},
			{Name: "heavy", First: 1, Count: 1},
			{Name: "sink", First: 2, Count: 1},
		},
		Edges: []OpEdge{
			{From: 0, To: 1, Group: engine.GroupShuffle},
			{From: 1, To: 2, Group: engine.GroupShuffle},
		},
		opOf: []int{0, 1, 2},
	}
	r, err := w.SearchJoint(JointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fixed := m.Search(SearchOptions{TopM: 1})
	if r.Candidates[0].Score >= fixed[0].Score {
		t.Fatalf("joint best %v did not beat the serial bottleneck %v",
			r.Candidates[0].Score, fixed[0].Score)
	}
	if r.Candidates[0].Par[1] <= 1 {
		t.Fatalf("winner did not scale the heavy op: par %v", r.Candidates[0].Par)
	}
}

// TestVectorChoicesClamped: candidate parallelism values are halve / keep /
// double, clamped and deduplicated, in ascending order.
func TestVectorChoicesClamped(t *testing.T) {
	w := toyWorkload()
	if got := w.vectorChoices(1, 64); !reflect.DeepEqual(got, []int{1, 2, 4}) {
		t.Errorf("choices(split) = %v, want [1 2 4]", got)
	}
	if got := w.vectorChoices(1, 3); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("choices clamped to 3 = %v, want [1 2 3]", got)
	}
	if got := w.vectorChoices(1, 2); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("choices clamped to 2 = %v, want [1 2]", got)
	}
}
