package place

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"streamscale/internal/engine"
	"streamscale/internal/hw"
)

// The joint parallelism + placement search (BriskStream's relative-
// location-aware scheduling): the calibrated Model learns to re-price the
// workload under a different per-operator parallelism vector from the one
// probe it was calibrated on, and SearchJoint enumerates (parallelism
// vector x socket assignment) jointly — an admissible per-vector lower
// bound prunes the parallelism axis exactly the way the branch-and-bound's
// incremental bound prunes the assignment axis.

// OpShape describes one operator of the calibrated workload: where its
// executors sit in the model's global index space and how it may be
// rescaled.
type OpShape struct {
	Name  string
	First int // global index of the operator's executor 0
	Count int // probe parallelism
	// Source and System operators keep their probe parallelism: a source's
	// event budget is per executor (rescaling would change the workload),
	// and System executors (the acker) are sized by the engine profile.
	Source bool
	System bool
	// Keyed marks operators fed by a fields grouping: their per-executor
	// load is a key-share distribution, not an even split.
	Keyed bool
	// GlobalOnly marks operators whose every input is globally grouped:
	// only executor 0 ever receives tuples, so extra executors idle.
	GlobalOnly bool
	// AllOnly marks operators whose every input is all-grouped: each
	// executor receives the full input stream, so total demand scales with
	// the executor count instead of splitting across it.
	AllOnly bool
}

// OpEdge is one producer→consumer operator pair with the grouping rule
// that decides how its traffic redistributes when either side rescales.
type OpEdge struct {
	From, To int // indices into Workload.Ops
	Group    engine.GroupKind
}

// Workload binds a calibrated Model to the operator structure of the
// topology it was probed on — the information the per-executor model alone
// lacks but re-parallelization needs.
type Workload struct {
	Model *Model
	Ops   []OpShape
	// Edges are the operator-level pairs, deduplicated: parallel
	// subscriptions between one pair collapse to the dominant rule
	// (all > global > fields > shuffle) so each pair redistributes one way.
	Edges []OpEdge

	opOf []int // executor global index -> op index
}

// NewWorkload derives the operator structure for a calibrated model from
// the topology and system profile the probe ran under. The topology is
// expanded exactly like the probe expanded it (the acker participates), so
// executor indices line up with the model's.
func NewWorkload(m *Model, topo *engine.Topology, sys engine.SystemProfile) (*Workload, error) {
	xt, err := engine.BuildExecTopology(topo, sys)
	if err != nil {
		return nil, err
	}
	w := &Workload{Model: m}
	opIdx := make(map[string]int)
	total := 0
	for _, n := range xt.Nodes() {
		opIdx[n.Name] = len(w.Ops)
		w.Ops = append(w.Ops, OpShape{
			Name: n.Name, First: total, Count: n.Parallelism,
			Source: n.IsSource(), System: n.System,
		})
		total += n.Parallelism
	}
	if total != m.N() {
		return nil, fmt.Errorf("place: topology has %d executors, model %d", total, m.N())
	}

	// Operator pairs, collapsing parallel subscriptions to one rule.
	rank := func(k engine.GroupKind) int {
		switch k {
		case engine.GroupAll:
			return 3
		case engine.GroupGlobal:
			return 2
		case engine.GroupFields:
			return 1
		}
		return 0
	}
	pair := make(map[[2]int]engine.GroupKind)
	var order [][2]int
	for _, n := range xt.Nodes() {
		for _, ed := range xt.Consumers(n.Name) {
			key := [2]int{opIdx[n.Name], opIdx[ed.Consumer.Name]}
			g, seen := pair[key]
			if !seen {
				order = append(order, key)
				pair[key] = ed.Sub.Group.Kind
			} else if rank(ed.Sub.Group.Kind) > rank(g) {
				pair[key] = ed.Sub.Group.Kind
			}
		}
	}
	for _, key := range order {
		w.Edges = append(w.Edges, OpEdge{From: key[0], To: key[1], Group: pair[key]})
	}

	// Input-rule flags per consumer op.
	for i := range w.Ops {
		hasIn, allGlobal, allAll := false, true, true
		for _, e := range w.Edges {
			if e.To != i {
				continue
			}
			hasIn = true
			if e.Group == engine.GroupFields {
				w.Ops[i].Keyed = true
			}
			if e.Group != engine.GroupGlobal {
				allGlobal = false
			}
			if e.Group != engine.GroupAll {
				allAll = false
			}
		}
		w.Ops[i].GlobalOnly = hasIn && allGlobal
		w.Ops[i].AllOnly = hasIn && allAll
	}

	w.opOf = make([]int, m.N())
	for i, op := range w.Ops {
		for j := 0; j < op.Count; j++ {
			w.opOf[op.First+j] = i
		}
	}
	return w, nil
}

// Retarget returns the workload re-priced for a different machine spec
// (Model.Retarget). The operator structure depends only on the topology
// and system profile, so it carries over unchanged.
func (w *Workload) Retarget(spec hw.MachineSpec) *Workload {
	out := *w
	out.Model = w.Model.Retarget(spec)
	return &out
}

// DefaultPar returns the probe's parallelism vector.
func (w *Workload) DefaultPar() []int {
	par := make([]int, len(w.Ops))
	for i, op := range w.Ops {
		par[i] = op.Count
	}
	return par
}

// Searchable returns the op indices whose parallelism the joint search may
// vary: not sources (per-executor event budgets), not System executors
// (profile-sized), and not globally-grouped consumers (extra executors
// would idle).
func (w *Workload) Searchable() []int {
	var out []int
	for i, op := range w.Ops {
		if op.Source || op.System || op.GlobalOnly {
			continue
		}
		out = append(out, i)
	}
	return out
}

// shares returns op i's per-executor load distribution at parallelism k:
// fractions summing to 1 (except AllOnly ops, where every executor carries
// the full unit load and fractions sum to k — total demand scales with the
// replica count, the all-grouping semantics).
func (w *Workload) shares(i, k int) []float64 {
	op := w.Ops[i]
	out := make([]float64, k)
	switch {
	case op.AllOnly:
		for j := range out {
			out[j] = 1
		}
	case op.GlobalOnly:
		out[0] = 1
	case op.Keyed && k > 1:
		// Key-share model: the probe's hottest executor holds a fraction
		// `hot` of the operator's key mass. Rehashing over k buckets scales
		// a bucket's expected share by kProbe/k, floored at the uniform
		// share (a bucket cannot hold less than its even slice on average)
		// and capped at 1. Exact at k = kProbe; monotone toward uniform as
		// k grows. The hottest bucket lands on the op's first executor so
		// the skew is visible to the serial-executor bound.
		hot := w.hotShare(i)
		s := hot * float64(op.Count) / float64(k)
		if u := 1 / float64(k); s < u {
			s = u
		}
		if s > 1 {
			s = 1
		}
		out[0] = s
		rest := (1 - s) / float64(k-1)
		for j := 1; j < k; j++ {
			out[j] = rest
		}
	default:
		for j := range out {
			out[j] = 1 / float64(k)
		}
	}
	return out
}

// hotShare returns the probe's hottest-executor compute fraction for op i.
func (w *Workload) hotShare(i int) float64 {
	op := w.Ops[i]
	var total, hot float64
	for j := 0; j < op.Count; j++ {
		c := w.Model.Compute[op.First+j]
		total += c
		if c > hot {
			hot = c
		}
	}
	if total <= 0 {
		return 1 / float64(op.Count)
	}
	return hot / total
}

// probeShares returns op i's measured per-executor compute distribution.
func (w *Workload) probeShares(i int) []float64 {
	op := w.Ops[i]
	out := make([]float64, op.Count)
	var total float64
	for j := 0; j < op.Count; j++ {
		total += w.Model.Compute[op.First+j]
	}
	for j := 0; j < op.Count; j++ {
		if total > 0 {
			out[j] = w.Model.Compute[op.First+j] / total
		} else {
			out[j] = 1 / float64(op.Count)
		}
	}
	if op.AllOnly {
		// Unit-load convention: each replica carries the full stream.
		for j := range out {
			out[j] *= float64(op.Count)
		}
	}
	return out
}

// Reparallelize re-prices the calibrated model under a new per-operator
// parallelism vector without a second probe. Each operator's calibrated
// compute/DRAM/invocation totals are split across its new executor count
// by its grouping semantics (even for shuffle, key-share skewed for fields
// consumers, replica-scaled for all-grouped consumers), and edge traffic
// is re-derived per grouping: a producer executor's output follows its
// load share, and the consumer side splits evenly (shuffle), by key share
// (fields), to executor 0 (global), or replicates (all). Operator pairs
// whose parallelism is unchanged keep the probe's measured per-executor
// edges verbatim. The identity vector returns the calibrated model itself.
func (w *Workload) Reparallelize(par []int) (*Model, error) {
	m := w.Model
	if len(par) != len(w.Ops) {
		return nil, fmt.Errorf("place: parallelism vector has %d ops, workload %d", len(par), len(w.Ops))
	}
	identity := true
	for i, op := range w.Ops {
		if par[i] < 1 {
			return nil, fmt.Errorf("place: op %q parallelism %d < 1", op.Name, par[i])
		}
		if (op.Source || op.System) && par[i] != op.Count {
			return nil, fmt.Errorf("place: op %q is fixed at parallelism %d", op.Name, op.Count)
		}
		if par[i] != op.Count {
			identity = false
		}
	}
	if identity {
		return m, nil
	}

	// New executor layout: same op order, counts from the vector.
	first := make([]int, len(w.Ops))
	n := 0
	for i := range w.Ops {
		first[i] = n
		n += par[i]
	}

	out := *m
	out.Compute = make([]float64, n)
	out.MemBytes = make([]float64, n)
	out.Invocations = make([]float64, n)
	out.OutMsgs = make([]float64, n)
	out.Edges = nil

	shares := make([][]float64, len(w.Ops))
	for i, op := range w.Ops {
		if par[i] == op.Count {
			shares[i] = w.probeShares(i)
		} else {
			shares[i] = w.shares(i, par[i])
		}
		var comp, mem, inv float64
		for j := 0; j < op.Count; j++ {
			g := op.First + j
			comp += m.Compute[g]
			mem += m.MemBytes[g]
			inv += m.Invocations[g]
		}
		if op.AllOnly {
			// Totals are per-replica under the unit-load convention.
			comp /= float64(op.Count)
			mem /= float64(op.Count)
			inv /= float64(op.Count)
		}
		if par[i] == op.Count {
			// Unchanged op: keep the probe's measured per-executor stats.
			for j := 0; j < op.Count; j++ {
				g, ng := op.First+j, first[i]+j
				out.Compute[ng] = m.Compute[g]
				out.MemBytes[ng] = m.MemBytes[g]
				out.Invocations[ng] = m.Invocations[g]
			}
			continue
		}
		for j := 0; j < par[i]; j++ {
			s := shares[i][j]
			ng := first[i] + j
			out.Compute[ng] = comp * s
			out.MemBytes[ng] = mem * s
			out.Invocations[ng] = inv * s
		}
	}

	// Edge re-derivation. Probe edges are aggregated per op pair, then
	// distributed under the pair's grouping rule; pairs with both sides
	// unchanged keep their measured per-executor detail.
	type agg struct{ bytes, msgs float64 }
	pairAgg := make(map[[2]int]agg, len(w.Edges))
	for _, e := range m.Edges {
		key := [2]int{w.opOf[e.From], w.opOf[e.To]}
		a := pairAgg[key]
		a.bytes += e.Bytes
		a.msgs += e.Msgs
		pairAgg[key] = a
	}
	addEdge := func(from, to int, bytes, msgs float64) {
		if bytes <= 0 && msgs <= 0 {
			return
		}
		out.Edges = append(out.Edges, Edge{From: from, To: to, Bytes: bytes, Msgs: msgs})
		out.OutMsgs[from] += msgs
	}
	for _, oe := range w.Edges {
		P, C := w.Ops[oe.From], w.Ops[oe.To]
		kp, kc := par[oe.From], par[oe.To]
		if kp == P.Count && kc == C.Count {
			// Copy measured executor edges for this pair (indices remapped).
			for _, e := range m.Edges {
				if w.opOf[e.From] == oe.From && w.opOf[e.To] == oe.To {
					addEdge(first[oe.From]+(e.From-P.First), first[oe.To]+(e.To-C.First), e.Bytes, e.Msgs)
				}
			}
			continue
		}
		a := pairAgg[[2]int{oe.From, oe.To}]
		if a.bytes <= 0 && a.msgs <= 0 {
			continue
		}
		// Producer split: output follows the producer's load distribution
		// (selectivity is a per-tuple property, invariant to the split).
		pShare := shares[oe.From]
		if P.AllOnly {
			// Replicas each see the full stream but emit the same logical
			// output once per replica: normalize to fractions of the pair
			// total so replica-count changes on the producer side scale
			// traffic with the replica count.
			pShare = append([]float64(nil), pShare...)
			var t float64
			for _, s := range pShare {
				t += s
			}
			for j := range pShare {
				pShare[j] /= t / (float64(kp) / float64(P.Count))
			}
		}
		switch oe.Group {
		case engine.GroupGlobal:
			for p := 0; p < kp; p++ {
				addEdge(first[oe.From]+p, first[oe.To], a.bytes*pShare[p], a.msgs*pShare[p])
			}
		case engine.GroupAll:
			// Each consumer executor receives the full producer output; the
			// probe aggregate counted C.Count replicas of it.
			perRep := 1 / float64(C.Count)
			for p := 0; p < kp; p++ {
				for c := 0; c < kc; c++ {
					addEdge(first[oe.From]+p, first[oe.To]+c, a.bytes*pShare[p]*perRep, a.msgs*pShare[p]*perRep)
				}
			}
		default: // shuffle, fields: consumer side follows its load shares
			cShare := shares[oe.To]
			if C.AllOnly {
				cShare = evenShares(kc)
			}
			for p := 0; p < kp; p++ {
				for c := 0; c < kc; c++ {
					addEdge(first[oe.From]+p, first[oe.To]+c, a.bytes*pShare[p]*cShare[c], a.msgs*pShare[p]*cShare[c])
				}
			}
		}
	}
	return &out, nil
}

func evenShares(k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = 1 / float64(k)
	}
	return out
}

// JointCandidate is one scored (parallelism vector, socket assignment)
// configuration. Assign indexes executors of the RESCALED layout (op
// order unchanged, counts from Par), in canonical socket labels.
type JointCandidate struct {
	Par    []int
	Assign []int
	// Score is the predicted bottleneck in cycles (lower is better),
	// comparable across vectors: every model derives from the same probe.
	Score float64
}

// JointOptions tunes SearchJoint. The zero value picks the defaults the
// report runs.
type JointOptions struct {
	// TopM is how many joint configurations to return (default 6).
	TopM int
	// TopVectors is how many screened vectors get the full assignment
	// branch-and-bound (default 4); the rest stop at the greedy screen.
	TopVectors int
	// VectorBudget bounds enumerated vectors (default 4096); enumeration
	// order is deterministic, so a truncation is reproducible.
	VectorBudget int
	// Search tunes the per-vector assignment search. Its TopM defaults to
	// 2 plans per vector, not the placement pool's 8: the joint search
	// runs many inner searches, and only a vector's best plans can win.
	Search SearchOptions
}

func (o *JointOptions) fill() {
	if o.TopM <= 0 {
		o.TopM = 6
	}
	if o.TopVectors <= 0 {
		o.TopVectors = 4
	}
	if o.VectorBudget <= 0 {
		o.VectorBudget = 4096
	}
	if o.Search.TopM <= 0 {
		o.Search.TopM = 2
	}
}

// JointResult is the outcome of one joint search.
type JointResult struct {
	// Candidates are the top joint configurations, best first.
	Candidates []JointCandidate
	// DefaultPar is the probe's parallelism vector (always screened, so
	// the joint optimum can never rank below the best fixed-parallelism
	// plan under the same model).
	DefaultPar []int
	// DefaultScore is the best bottleneck score found at DefaultPar (the
	// default vector is always fully searched). Verification flows use it
	// as the gate: a joint candidate is only worth simulating when its
	// score beats this by more than the model's resolution.
	DefaultScore float64
	// VectorsScreened counts parallelism vectors enumerated and scored
	// analytically; VectorsSearched those that got the full inner search.
	VectorsScreened int
	VectorsSearched int
}

// vectorChoices returns the candidate parallelism values for op i:
// halve / keep / double, clamped to [1, maxPar], deduplicated, ascending.
func (w *Workload) vectorChoices(i, maxPar int) []int {
	k := w.Ops[i].Count
	cand := []int{k / 2, k, 2 * k}
	var out []int
	for _, c := range cand {
		if c < 1 {
			c = 1
		}
		if c > maxPar {
			c = maxPar
		}
		dup := false
		for _, o := range out {
			dup = dup || o == c
		}
		if !dup {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// vectorFloor is an admissible lower bound on any assignment's bottleneck
// under vector par, computed from op totals alone (no model rebuild, no
// edges: crossing penalties are nonnegative, so dropping them keeps the
// bound admissible). It prunes the parallelism axis the way the
// branch-and-bound's incremental bound prunes the assignment axis.
func (w *Workload) vectorFloor(par []int) float64 {
	m := w.Model
	var total, mem, serial float64
	for i, op := range w.Ops {
		var comp, opMem float64
		for j := 0; j < op.Count; j++ {
			comp += m.Compute[op.First+j]
			opMem += m.MemBytes[op.First+j]
		}
		scale := 1.0
		if op.AllOnly {
			// Per-replica totals scale with the replica count.
			scale = float64(par[i]) / float64(op.Count)
		}
		total += comp * scale
		mem += opMem * scale
		sh := w.shares(i, par[i])
		if par[i] == op.Count {
			sh = w.probeShares(i)
		}
		maxShare := 0.0
		for _, s := range sh {
			maxShare = maxf(maxShare, s)
		}
		if op.AllOnly {
			serial = maxf(serial, comp/float64(op.Count)*maxShare)
		} else {
			serial = maxf(serial, comp*maxShare)
		}
	}
	b := total / float64(m.Sockets*m.CoresPerSocket)
	b = maxf(b, serial)
	b = maxf(b, mem/(float64(m.Sockets)*m.LocalBW))
	return b
}

// SearchJoint enumerates per-operator parallelism vectors (halve / keep /
// double per searchable op) jointly with socket assignments: every vector
// is lower-bounded and screened with a greedy assignment on its re-priced
// model, and the top screened vectors get the deterministic assignment
// branch-and-bound. Results are deterministic and worker-count-independent
// (the only parallelism is the inner search's, which is itself
// worker-count-independent).
func (w *Workload) SearchJoint(opts JointOptions) (*JointResult, error) {
	opts.fill()
	res := &JointResult{DefaultPar: w.DefaultPar()}
	// No operator outgrows the machine's core count.
	maxPar := w.Model.Sockets * w.Model.CoresPerSocket

	// Enumerate vectors depth-first over searchable ops, deterministic
	// lexicographic order, budget-bounded.
	idx := w.Searchable()
	vectors := [][]int{res.DefaultPar}
	var enum func(d int, cur []int)
	enum = func(d int, cur []int) {
		if len(vectors) >= opts.VectorBudget {
			return
		}
		if d == len(idx) {
			identity := true
			for i := range cur {
				identity = identity && cur[i] == w.Ops[i].Count
			}
			if !identity {
				vectors = append(vectors, append([]int(nil), cur...))
			}
			return
		}
		for _, c := range w.vectorChoices(idx[d], maxPar) {
			cur[idx[d]] = c
			enum(d+1, cur)
		}
		cur[idx[d]] = w.Ops[idx[d]].Count
	}
	enum(0, w.DefaultPar())

	// Screen: admissible floor first (cheap), greedy assignment on the
	// re-priced model when the floor might make the searched set.
	type screened struct {
		par    []int
		model  *Model
		greedy Candidate
		execs  int
	}
	var pool []screened
	worstKept := func() float64 {
		if len(pool) < opts.TopVectors {
			return 1e308
		}
		scores := make([]float64, len(pool))
		for i, s := range pool {
			scores[i] = s.greedy.Score
		}
		sort.Float64s(scores)
		return scores[opts.TopVectors-1]
	}
	for vi, par := range vectors {
		res.VectorsScreened++
		// The default vector is always screened in full: it anchors the
		// comparison against the fixed-parallelism search.
		if vi > 0 && w.vectorFloor(par) > worstKept() {
			continue
		}
		m, err := w.Reparallelize(par)
		if err != nil {
			return nil, err
		}
		execs := 0
		for _, p := range par {
			execs += p
		}
		pool = append(pool, screened{par: par, model: m, greedy: m.greedy(), execs: execs})
	}

	// Rank screened vectors; ties prefer fewer executors, then the
	// lexicographically smallest vector.
	sort.SliceStable(pool, func(i, j int) bool {
		if pool[i].greedy.Score != pool[j].greedy.Score {
			return pool[i].greedy.Score < pool[j].greedy.Score
		}
		if pool[i].execs != pool[j].execs {
			return pool[i].execs < pool[j].execs
		}
		return slices.Compare(pool[i].par, pool[j].par) < 0
	})
	searched := pool
	if len(searched) > opts.TopVectors {
		searched = searched[:opts.TopVectors]
	}
	// The default vector is always searched in full, even when its greedy
	// score misses the cut: it anchors the never-worse-than-fixed
	// guarantee (the joint optimum cannot rank below the best
	// fixed-parallelism plan under the same model).
	hasDefault := false
	for _, s := range searched {
		hasDefault = hasDefault || slices.Equal(s.par, res.DefaultPar)
	}
	if !hasDefault {
		for _, s := range pool {
			if slices.Equal(s.par, res.DefaultPar) {
				searched = append(searched, s)
				break
			}
		}
	}

	// Full assignment search per kept vector; the greedy incumbent seeds
	// the bound. All candidates land in one ranked pool: scores are
	// probe-anchored cycles, comparable across vectors.
	var all []JointCandidate
	for _, s := range searched {
		res.VectorsSearched++
		inner := opts.Search
		inner.Seeds = append([][]int(nil), opts.Search.Seeds...)
		inner.Seeds = append(inner.Seeds, s.greedy.Assign)
		for _, c := range s.model.Search(inner) {
			all = append(all, JointCandidate{Par: s.par, Assign: c.Assign, Score: c.Score})
		}
	}
	res.DefaultScore = math.Inf(1)
	for _, c := range all {
		if slices.Equal(c.Par, res.DefaultPar) && c.Score < res.DefaultScore {
			res.DefaultScore = c.Score
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score < all[j].Score
		}
		ei, ej := len(all[i].Assign), len(all[j].Assign)
		if ei != ej {
			return ei < ej
		}
		if c := slices.Compare(all[i].Par, all[j].Par); c != 0 {
			return c < 0
		}
		return slices.Compare(all[i].Assign, all[j].Assign) < 0
	})
	seen := make(map[string]bool, len(all))
	for _, c := range all {
		key := assignKey(c.Par) + "|" + assignKey(c.Assign)
		if seen[key] {
			continue
		}
		seen[key] = true
		res.Candidates = append(res.Candidates, c)
		if len(res.Candidates) == opts.TopM {
			break
		}
	}
	return res, nil
}
