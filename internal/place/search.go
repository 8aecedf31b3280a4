package place

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Candidate is one scored placement plan. Assign is in canonical form
// (sockets relabeled by first occurrence in global-index order) so equal
// plans compare equal and ties break reproducibly.
type Candidate struct {
	Assign []int
	// Score is the predicted bottleneck in cycles (lower is better).
	Score float64
}

// The branch-and-bound's one budget: the assignment tree splits into
// independent subtrees at executor depth splitDepth, and each subtree
// expands at most nodeBudget nodes, so the search degrades gracefully on
// wide graphs instead of exploding. Every search — placement, each joint
// vector, the joint-smoke and joint-shift sweeps — runs at this budget.
const (
	nodeBudget = 4000
	splitDepth = 2
)

// SearchOptions tunes the branch-and-bound search. The zero value picks
// usable defaults.
type SearchOptions struct {
	// TopM is how many best plans to return (default 8).
	TopM int
	// Workers bounds parallel subtree workers (default 1). Results are
	// identical for any worker count: subtrees are independent, each has
	// its own node budget, and the merge is order-insensitive.
	Workers int
	// Seeds are known-good assignments (e.g. the min-k-cut plans). Their
	// exact scores initialize the pruning bound, and they always appear
	// in the returned ranking, so the search can never do worse than the
	// best seed.
	Seeds [][]int

	// budget overrides nodeBudget; only tests set it.
	budget int
}

func (o *SearchOptions) fill() {
	if o.TopM <= 0 {
		o.TopM = 8
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.budget <= 0 {
		o.budget = nodeBudget
	}
}

// Canonical relabels sockets by first occurrence in global-index order:
// the first executor's socket becomes 0, the next distinct socket 1, and
// so on. Socket-symmetric plans map to the same canonical form.
func Canonical(assign []int) []int {
	out := make([]int, len(assign))
	relabel := make([]int, 0, 8)
	for i, s := range assign {
		j := -1
		for k, orig := range relabel {
			if orig == s {
				j = k
				break
			}
		}
		if j < 0 {
			j = len(relabel)
			relabel = append(relabel, s)
		}
		out[i] = j
	}
	return out
}

// assignKey serializes an assignment for dedup maps.
func assignKey(assign []int) string {
	b := make([]byte, len(assign))
	for i, s := range assign {
		b[i] = byte('0' + s)
	}
	return string(b)
}

// Search runs deterministic branch-and-bound over full per-executor
// socket assignments and returns the top-M plans by predicted bottleneck,
// ties broken by lexicographically smallest canonical assignment. Seeds
// are scored exactly and merged into the ranking.
func (m *Model) Search(opts SearchOptions) []Candidate {
	opts.fill()
	n := m.N()

	// Score the seeds: they initialize the pruning bound and are always
	// part of the returned pool.
	pool := make([]Candidate, 0, opts.TopM+len(opts.Seeds))
	for _, s := range opts.Seeds {
		if len(s) != n {
			continue
		}
		c := Canonical(s)
		pool = append(pool, Candidate{Assign: c, Score: m.Bottleneck(c)})
	}
	pool = append(pool, m.greedy())
	initialBound := pruneBound(pool, opts.TopM)

	order := m.branchOrder()
	// Split the tree into independent subtrees at splitDepth: every
	// symmetry-broken prefix of the first splitDepth executors.
	frontier := m.prefixes(order, splitDepth)
	results := make([][]Candidate, len(frontier))
	// Concurrency audit: workers share only the atomic claim cursor;
	// results are written at distinct claimed indices and read after
	// wg.Wait. Each subtree search is otherwise self-contained.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	workers := opts.Workers
	if workers > len(frontier) {
		workers = len(frontier)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(frontier) {
					return
				}
				results[i] = m.searchSubtree(order, frontier[i], initialBound, opts)
			}
		}()
	}
	wg.Wait()
	for _, r := range results {
		pool = append(pool, r...)
	}
	return rank(pool, opts.TopM)
}

// greedy builds one full assignment by placing executors heaviest-first
// on the socket that minimizes the incremental bottleneck — a cheap
// incumbent that tightens the initial pruning bound.
func (m *Model) greedy() Candidate {
	n := m.N()
	order := m.branchOrder()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	st := m.newSearchState(order)
	for d := 0; d < n; d++ {
		v := order[d]
		bestS, bestB := 0, 1e308
		limit := st.maxUsed + 1
		if limit >= m.Sockets {
			limit = m.Sockets - 1
		}
		for s := 0; s <= limit; s++ {
			st.place(v, s, assign)
			b := st.bound(assign)
			st.unplace(assign)
			if b < bestB {
				bestS, bestB = s, b
			}
		}
		st.place(v, bestS, assign)
	}
	c := Canonical(assign)
	return Candidate{Assign: c, Score: m.Bottleneck(c)}
}

// branchOrder returns the executors heaviest first: the order both the
// branch-and-bound and greedy assign in, so the compute bound bites early
// and symmetry breaking anchors on load-bearing decisions.
func (m *Model) branchOrder() []int {
	order := make([]int, m.N())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return m.Compute[order[a]] > m.Compute[order[b]] })
	return order
}

// prefixes enumerates symmetry-broken partial assignments of the first
// depth executors in branch order.
func (m *Model) prefixes(order []int, depth int) [][]int {
	if depth > len(order) {
		depth = len(order)
	}
	out := [][]int{{}}
	for d := 0; d < depth; d++ {
		var next [][]int
		for _, p := range out {
			maxUsed := -1
			for _, s := range p {
				if s > maxUsed {
					maxUsed = s
				}
			}
			limit := maxUsed + 1
			if limit >= m.Sockets {
				limit = m.Sockets - 1
			}
			for s := 0; s <= limit; s++ {
				np := make([]int, d+1)
				copy(np, p)
				np[d] = s
				next = append(next, np)
			}
		}
		out = next
	}
	return out
}

// searchSubtree runs bounded DFS below one frontier prefix and returns
// its local top-M. Pruning uses only the shared initial bound plus the
// subtree's own discoveries, so the outcome is independent of scheduling.
func (m *Model) searchSubtree(order, prefix []int, initialBound float64, opts SearchOptions) []Candidate {
	n := m.N()
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	st := m.newSearchState(order)
	for d, s := range prefix {
		st.place(order[d], s, assign)
	}
	var local []Candidate
	bound := initialBound
	budget := opts.budget

	var dfs func(d int)
	dfs = func(d int) {
		if budget <= 0 {
			return
		}
		budget--
		if d == n {
			c := Canonical(assign)
			local = append(local, Candidate{Assign: c, Score: st.bound(assign)})
			if nb := pruneBound(local, opts.TopM); nb < bound {
				bound = nb
			}
			return
		}
		v := order[d]
		limit := st.maxUsed + 1
		if limit >= m.Sockets {
			limit = m.Sockets - 1
		}
		for s := 0; s <= limit; s++ {
			st.place(v, s, assign)
			if st.bound(assign) < bound {
				dfs(d + 1)
			}
			st.unplace(assign)
		}
	}
	dfs(len(prefix))
	return rank(local, opts.TopM)
}

// pruneBound returns the score a new plan must beat to enter the top-M:
// the M-th best score in the pool, or +Inf headroom when fewer than M.
func pruneBound(pool []Candidate, topM int) float64 {
	if len(pool) < topM {
		return 1e308
	}
	scores := make([]float64, len(pool))
	for i, c := range pool {
		scores[i] = c.Score
	}
	sort.Float64s(scores)
	return scores[topM-1]
}

// rank dedups canonical assignments and returns the top-M by (score,
// lexicographic canonical assignment).
func rank(pool []Candidate, topM int) []Candidate {
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].Score != pool[j].Score {
			return pool[i].Score < pool[j].Score
		}
		return slices.Compare(pool[i].Assign, pool[j].Assign) < 0
	})
	seen := make(map[string]bool, len(pool))
	out := make([]Candidate, 0, topM)
	for _, c := range pool {
		k := assignKey(c.Assign)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, c)
		if len(out) == topM {
			break
		}
	}
	return out
}

// searchState supports incremental admissible bounds during DFS with
// exact undo. The bound is exact at leaves (it equals Bottleneck).
type searchState struct {
	m *Model

	sockCompute []float64 // per-socket assigned compute incl. penalties
	sockMem     []float64
	sockCount   []int     // per-socket assigned executor count
	qpi         []float64 // directed socket pair -> crossing bytes
	perExec     []float64 // assigned executors' demand incl. penalties

	// in/out index edges by endpoint for incremental penalty updates.
	in, out [][]int

	totalFloor float64 // all compute / all cores: constant lower bound

	maxUsed int
	trail   []trailEntry
	marks   []int
}

type trailEntry struct {
	v       int
	prevMax int
}

func (m *Model) newSearchState(order []int) *searchState {
	n := m.N()
	st := &searchState{
		m:           m,
		sockCompute: make([]float64, m.Sockets),
		sockMem:     make([]float64, m.Sockets),
		sockCount:   make([]int, m.Sockets),
		qpi:         make([]float64, m.Sockets*m.Sockets),
		perExec:     make([]float64, n),
		in:          make([][]int, n),
		out:         make([][]int, n),
		maxUsed:     -1,
	}
	var total float64
	for _, c := range m.Compute {
		total += c
	}
	st.totalFloor = total / float64(m.Sockets*m.CoresPerSocket)
	for i, e := range m.Edges {
		st.out[e.From] = append(st.out[e.From], i)
		st.in[e.To] = append(st.in[e.To], i)
	}
	return st
}

// place assigns executor v to socket s and applies incremental penalties
// for every edge whose other endpoint is already assigned.
func (st *searchState) place(v, s int, assign []int) {
	m := st.m
	te := trailEntry{v: v, prevMax: st.maxUsed}
	assign[v] = s
	if s > st.maxUsed {
		st.maxUsed = s
	}
	st.perExec[v] = m.Compute[v]
	st.sockMem[s] += m.MemBytes[v]
	st.sockCount[s]++

	// Incoming edges: v is the consumer; cross edges stall v.
	for _, ei := range st.in[v] {
		e := &m.Edges[ei]
		if u := e.From; assign[u] >= 0 && assign[u] != s && u != v {
			st.perExec[v] += m.crossing(*e)
			st.qpi[assign[u]*m.Sockets+s] += e.Bytes
		}
	}
	// Outgoing edges: v is the producer; cross edges stall the (already
	// assigned) consumer u — adjust u's demand and its socket's total.
	for _, ei := range st.out[v] {
		e := &m.Edges[ei]
		if u := e.To; assign[u] >= 0 && assign[u] != s && u != v {
			pen := m.crossing(*e)
			st.perExec[u] += pen
			st.sockCompute[assign[u]] += pen
			st.qpi[s*m.Sockets+assign[u]] += e.Bytes
		}
	}
	st.sockCompute[s] += st.perExec[v]
	st.trail = append(st.trail, te)
}

// unplace reverts the most recent place, iterating the same edges in the
// same cross-socket conditions so every increment is undone exactly.
func (st *searchState) unplace(assign []int) {
	m := st.m
	te := st.trail[len(st.trail)-1]
	st.trail = st.trail[:len(st.trail)-1]
	v := te.v
	s := assign[v]

	st.sockCompute[s] -= st.perExec[v]
	for _, ei := range st.in[v] {
		e := &m.Edges[ei]
		if u := e.From; assign[u] >= 0 && assign[u] != s && u != v {
			st.qpi[assign[u]*m.Sockets+s] -= e.Bytes
		}
	}
	for _, ei := range st.out[v] {
		e := &m.Edges[ei]
		if u := e.To; assign[u] >= 0 && assign[u] != s && u != v {
			pen := m.crossing(*e)
			st.perExec[u] -= pen
			st.sockCompute[assign[u]] -= pen
			st.qpi[s*m.Sockets+assign[u]] -= e.Bytes
		}
	}
	st.sockMem[s] -= m.MemBytes[v]
	st.sockCount[s]--
	st.perExec[v] = 0
	st.maxUsed = te.prevMax
	assign[v] = -1
}

// bound returns an admissible lower bound on the bottleneck of any
// completion of the current partial assignment; at a full assignment it
// is exact and equals Model.Bottleneck.
func (st *searchState) bound(assign []int) float64 {
	m := st.m
	b := st.totalFloor
	cores := float64(m.CoresPerSocket)
	for s := 0; s <= st.maxUsed; s++ {
		b = maxf(b, st.sockCompute[s]/cores)
		b = maxf(b, st.sockMem[s]/m.LocalBW)
	}
	for _, bytes := range st.qpi {
		b = maxf(b, bytes/m.QPIBW)
	}
	for v, s := range assign {
		if s >= 0 {
			// Interference is computed on the fly from the socket's current
			// count; counts only grow along a DFS path, so this term is
			// admissible and exact at leaves (it matches Model.Bottleneck).
			pe := st.perExec[v]
			if st.sockCount[s] > m.CoresPerSocket {
				pe += m.interference(v)
			}
			b = maxf(b, pe)
		} else {
			// Unassigned executors still owe at least their own serial
			// demand, wherever they land.
			b = maxf(b, m.Compute[v])
		}
	}
	return b
}
