package place

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamscale/internal/engine"
)

// --- GlobalMinCut -----------------------------------------------------

func TestGlobalMinCutTwoClusters(t *testing.T) {
	// Two triangles joined by one light edge: the min cut is that edge.
	w := zeros(6)
	link := func(a, b int, x float64) { w[a][b], w[b][a] = x, x }
	link(0, 1, 5)
	link(1, 2, 5)
	link(0, 2, 5)
	link(3, 4, 5)
	link(4, 5, 5)
	link(3, 5, 5)
	link(2, 3, 1)

	cost, side := GlobalMinCut(w)
	if cost != 1 {
		t.Fatalf("min cut = %v, want 1", cost)
	}
	if len(side) != 3 {
		t.Fatalf("cut side size = %d, want 3", len(side))
	}
	in := map[int]bool{}
	for _, v := range side {
		in[v] = true
	}
	if in[0] != in[1] || in[1] != in[2] || in[0] == in[3] {
		t.Fatalf("cut separates the wrong vertices: %v", side)
	}
}

func TestGlobalMinCutStar(t *testing.T) {
	// A star: min cut isolates the lightest leaf.
	w := zeros(4)
	w[0][1], w[1][0] = 3, 3
	w[0][2], w[2][0] = 7, 7
	w[0][3], w[3][0] = 9, 9
	cost, side := GlobalMinCut(w)
	if cost != 3 {
		t.Fatalf("min cut = %v, want 3", cost)
	}
	if len(side) != 1 && len(side) != 3 {
		t.Fatalf("unexpected side %v", side)
	}
}

// Property: Stoer-Wagner never reports a cut heavier than any single-vertex
// cut, and the reported weight matches the weight of the returned side.
func TestGlobalMinCutProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		w := zeros(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				x := float64(rng.Intn(10))
				w[i][j], w[j][i] = x, x
			}
		}
		cost, side := GlobalMinCut(w)
		// Verify reported cost matches the side.
		assign := make([]int, n)
		for _, v := range side {
			assign[v] = 1
		}
		if len(side) == 0 || len(side) == n {
			return false
		}
		if math.Abs(cutWeight(w, assign)-cost) > 1e-9 {
			return false
		}
		// Compare against each single-vertex cut.
		for v := 0; v < n; v++ {
			var c float64
			for u := 0; u < n; u++ {
				c += w[v][u]
			}
			if cost > c+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Exhaustive check on small graphs: Stoer-Wagner is exact.
func TestGlobalMinCutExactSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(4) // 3..6 vertices
		w := zeros(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				x := float64(rng.Intn(7))
				w[i][j], w[j][i] = x, x
			}
		}
		got, _ := GlobalMinCut(w)
		want := math.Inf(1)
		for mask := 1; mask < (1<<n)-1; mask++ {
			assign := make([]int, n)
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					assign[v] = 1
				}
			}
			if c := cutWeight(w, assign); c < want {
				want = c
			}
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: min cut %v, brute force %v", trial, got, want)
		}
	}
}

// --- MinKCut ----------------------------------------------------------

func TestMinKCutProducesKComponents(t *testing.T) {
	w := zeros(9)
	for c := 0; c < 3; c++ { // three cliques of 3
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				a, b := c*3+i, c*3+j
				w[a][b], w[b][a] = 10, 10
			}
		}
	}
	// Light links between cliques.
	w[2][3], w[3][2] = 1, 1
	w[5][6], w[6][5] = 1, 1

	assign, cost := MinKCut(w, 3)
	comps := map[int]bool{}
	for _, a := range assign {
		comps[a] = true
	}
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if cost != 2 {
		t.Fatalf("k-cut cost = %v, want 2", cost)
	}
	// Cliques must stay together.
	for c := 0; c < 3; c++ {
		if assign[c*3] != assign[c*3+1] || assign[c*3] != assign[c*3+2] {
			t.Fatalf("clique %d split: %v", c, assign)
		}
	}
}

func TestMinKCutK1AndKN(t *testing.T) {
	w := zeros(4)
	w[0][1], w[1][0] = 2, 2
	assign, cost := MinKCut(w, 1)
	if cost != 0 {
		t.Fatalf("k=1 cost = %v", cost)
	}
	for _, a := range assign {
		if a != 0 {
			t.Fatal("k=1 did not place everything together")
		}
	}
	_, cost = MinKCut(w, 4)
	if cost != 2 {
		t.Fatalf("k=n cost = %v, want total weight 2", cost)
	}
}

// --- CommGraph --------------------------------------------------------

func chainTopology() *engine.Topology {
	t := engine.NewTopology("chain")
	t.AddSource("src", 2, func() engine.Source { return nil },
		engine.Stream(engine.DefaultStream, "v"))
	t.AddOp("mid", 2, func() engine.Operator { return nil },
		engine.Stream(engine.DefaultStream, "v")).
		SubDefault("src", engine.Shuffle())
	t.AddOp("sink", 1, func() engine.Operator { return nil }).
		SubDefault("mid", engine.Global())
	return t
}

func TestBuildCommGraphShape(t *testing.T) {
	g, err := BuildCommGraph(chainTopology(), engine.Flink())
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 {
		t.Fatalf("vertices = %d, want 5", g.N())
	}
	// src executors talk to mid executors, not to each other.
	if g.W[0][1] != 0 {
		t.Fatal("source executors connected to each other")
	}
	if g.W[0][2] == 0 || g.W[0][3] == 0 {
		t.Fatal("source not connected to mid executors")
	}
	// Global grouping: both mid executors feed the single sink.
	if g.W[2][4] == 0 || g.W[3][4] == 0 {
		t.Fatal("mid not connected to sink")
	}
	// Symmetry.
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			if g.W[i][j] != g.W[j][i] {
				t.Fatal("weight matrix not symmetric")
			}
		}
	}
}

func TestBuildCommGraphStormIncludesAcker(t *testing.T) {
	g, err := BuildCommGraph(chainTopology(), engine.Storm())
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 6 {
		t.Fatalf("vertices = %d, want 6 (5 + acker)", g.N())
	}
	ackerIdx := 5
	if g.Ops[ackerIdx] != engine.AckerName {
		t.Fatalf("vertex 5 = %s, want acker", g.Ops[ackerIdx])
	}
	var ackerW float64
	for v := 0; v < 5; v++ {
		ackerW += g.W[v][ackerIdx]
	}
	if ackerW == 0 {
		t.Fatal("acker has no communication weight")
	}
}

func TestBuildCommGraphSelectivityScalesFlow(t *testing.T) {
	mk := func(sel float64) float64 {
		topo := chainTopology()
		p := topo.Node("src").Profile
		p.Selectivity = sel
		topo.Node("src").WithProfile(p)
		g, err := BuildCommGraph(topo, engine.Flink())
		if err != nil {
			t.Fatal(err)
		}
		return g.W[0][2]
	}
	if mk(10) <= mk(1) {
		t.Fatal("higher selectivity did not increase edge weight")
	}
}

// --- Placement --------------------------------------------------------

func TestPlanForKRespectsCapacity(t *testing.T) {
	g, err := BuildCommGraph(chainTopology(), engine.Storm())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanForK(g, 2, PlaceOptions{capacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	count := map[int]int{}
	for _, s := range plan.Assign {
		if s < 0 || s >= 2 {
			t.Fatalf("socket out of range: %d", s)
		}
		count[s]++
	}
	for s, c := range count {
		if c > 3 {
			t.Fatalf("socket %d holds %d executors, capacity 3", s, c)
		}
	}
}

func TestPlanForKOneSocketIsZeroCost(t *testing.T) {
	g, _ := BuildCommGraph(chainTopology(), engine.Flink())
	plan, err := PlanForK(g, 1, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cost != 0 {
		t.Fatalf("k=1 cost = %v, want 0", plan.Cost)
	}
}

func TestPlanBeatsRoundRobin(t *testing.T) {
	// On a communication-heavy chain, the optimizer must not be worse
	// than round-robin placement.
	g, _ := BuildCommGraph(chainTopology(), engine.Storm())
	plan, err := PlanForK(g, 2, PlaceOptions{capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	rr := RoundRobinPlan(g, 2)
	if plan.Cost > rr.Cost+1e-9 {
		t.Fatalf("optimized cost %v worse than round-robin %v", plan.Cost, rr.Cost)
	}
}

func TestPlansEnumerateK(t *testing.T) {
	plans, err := PlanFor(chainTopology(), engine.Flink(), 4, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 4 {
		t.Fatalf("plans = %d, want 4", len(plans))
	}
	// Costs are monotone-ish: k=1 cheapest.
	if plans[0].Cost != 0 {
		t.Fatalf("k=1 plan cost = %v", plans[0].Cost)
	}
}

func TestPlanForKInfeasible(t *testing.T) {
	g, _ := BuildCommGraph(chainTopology(), engine.Storm()) // 6 executors
	if _, err := PlanForK(g, 1, PlaceOptions{capacity: 2}); err == nil {
		t.Fatal("infeasible capacity accepted")
	}
}

// Property: refinement never increases Equation 1 cost over the seed, and
// plans always assign within [0, k).
func TestPlacementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		g := &CommGraph{W: zeros(n)}
		for i := 0; i < n; i++ {
			g.Names = append(g.Names, "v")
			g.Ops = append(g.Ops, "v")
			for j := i + 1; j < n; j++ {
				x := float64(rng.Intn(20))
				g.W[i][j], g.W[j][i] = x, x
			}
		}
		k := 1 + rng.Intn(4)
		plan, err := PlanForK(g, k, PlaceOptions{capacity: 32})
		if err != nil {
			return true // infeasible is allowed
		}
		for _, s := range plan.Assign {
			if s < 0 || s >= k {
				return false
			}
		}
		return math.Abs(plan.Cost-g.CutCost(plan.Assign)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func zeros(n int) [][]float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	return w
}

// Load estimation: a heavy operator dominates the communication graph's
// load vector, so balanced plans must spread its executors.
func TestCommGraphLoadReflectsHeavyOperators(t *testing.T) {
	topo := engine.NewTopology("heavy")
	topo.AddSource("src", 1, func() engine.Source { return nil },
		engine.Stream(engine.DefaultStream, "v"))
	topo.AddOp("heavy", 4, func() engine.Operator { return nil },
		engine.Stream(engine.DefaultStream, "v")).
		SubDefault("src", engine.Shuffle()).
		WithProfile(engine.WorkProfile{UopsPerTuple: 1_000_000})
	topo.AddOp("light", 4, func() engine.Operator { return nil }).
		SubDefault("heavy", engine.Shuffle()).
		WithProfile(engine.WorkProfile{UopsPerTuple: 100})

	g, err := BuildCommGraph(topo, engine.Flink())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Load) != g.N() {
		t.Fatalf("load vector length %d != %d vertices", len(g.Load), g.N())
	}
	var heavy, light float64
	for v := range g.Ops {
		switch g.Ops[v] {
		case "heavy":
			heavy += g.Load[v]
		case "light":
			light += g.Load[v]
		}
	}
	if heavy < light*100 {
		t.Fatalf("heavy operator load %.1f not dominating light %.1f", heavy, light)
	}

	// Balanced 2-way plan splits the heavy executors 2/2.
	plan, err := PlanForK(g, 2, PlaceOptions{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	perSock := map[int]int{}
	for v := range g.Ops {
		if g.Ops[v] == "heavy" {
			perSock[plan.Assign[v]]++
		}
	}
	if perSock[0] != 2 || perSock[1] != 2 {
		t.Fatalf("heavy executors split %v, want 2/2", perSock)
	}
}
