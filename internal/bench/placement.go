package bench

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"streamscale/internal/place"
)

// The model-guided placement flow (§VI-B, BriskStream-style): one probe
// simulation per (app, system) — the unplaced four-socket baseline every
// placement row already needs, so it is memo-shared and costs nothing
// extra — calibrates an analytical cost model (internal/place). A
// deterministic branch-and-bound search then ranks full per-executor
// assignments, with the k=1..4 min-k-cut plans seeded into the pool, and
// only the handful of top-ranked plans are verified by full simulation.
// The unplaced run at the row's batch is the decision's incumbent: a plan
// is adopted only when it measures strictly faster.

// verifyTop is how many model-ranked plans are fully simulated per search
// (the best-ranked min-k-cut seed is verified in addition when it is not
// already among them). verifyTopBatched applies to batched (S>1)
// searches, whose ranking reuses the batch-adjusted model; those get one
// more slot because the batch adjustment is analytical (no batched probe)
// and its ranking is correspondingly less sharp. Batched searches over
// workloads with a deep seed pool (>= extraSeedMinSeeds distinct min-k-cut
// plans) verify one additional seed — the most concentrated unverified one
// — because crowding plans are exactly where the model's oversubscription
// term is an approximation of the scheduler.
//
// batchedTierEps groups flink's batched scores that agree to within 0.5%
// into one rank tier: that is below the batch-adjusted model's resolution.
// Within a tier the simulator is not indifferent even though the model is
// — see the socket-spread tie-break in rankPlacement. Batch-1 rankings use
// exact-score tiers only: the probe measured that batch size directly, so
// its scores are trusted.
const (
	verifyTop         = 2
	verifyTopBatched  = 3
	extraSeedMinSeeds = 6
	batchedTierEps    = 0.005
)

// PlacementPlan is one plan of a placement decision's ranked pool.
type PlacementPlan struct {
	// Assign is the per-executor socket assignment exactly as it would be
	// simulated: search plans are canonical, seed plans keep their
	// original labels (the simulated machine is not label symmetric).
	Assign []int
	// Score is the model's predicted bottleneck in cycles (lower is
	// better).
	Score float64
	// Seed marks a min-k-cut seed plan.
	Seed bool
}

// PlacementSearch is the outcome of one model-guided placement search for
// one (app, system, batch) row.
type PlacementSearch struct {
	App, System string
	Batch       int

	// Winner is the verified assignment with the highest measured
	// throughput; ties break to the lexicographically smallest assignment.
	// It is nil when the decision kept its incumbent.
	Winner []int
	// WinnerK is the number of distinct sockets the winner uses (0 when
	// the incumbent was kept).
	WinnerK int
	// Throughput is the winner's measured throughput (events/s).
	Throughput float64
	// Kept reports that no verified plan measured strictly faster than the
	// unplaced run at the row's batch, so the decision kept that run:
	// Winner is nil and Throughput is the unplaced run's.
	Kept bool
	// SeedThroughput is the best measured throughput among the verified
	// min-k-cut seed plans (at least one is always verified).
	SeedThroughput float64

	// Verified lists the simulated plans in model-rank order; each Key is
	// the plan's assignment (PlacementPlan.Assign).
	Verified []Candidate
	// Validation counts the plans the model ranked (the candidate pool:
	// B&B results merged with the seeds) as screened.
	Validation Validation
}

// SearchPlacement runs the model-guided search for one row: calibrate
// from the probe, rank candidates, verify the top few by simulation, and
// select the measured best unless the unplaced run measures as fast.
func SearchPlacement(app, system string, batch, scale int) (*PlacementSearch, error) {
	w, err := Calibrate(app, system, batch, scale)
	if err != nil {
		return nil, err
	}
	return searchPlacement(w.Model, app, system, batch, scale)
}

// PlacementPool returns the ranked pool a placement decision for the row
// verifies from, best first: the min-k-cut seeds and the branch-and-bound
// plans, as SearchPlacement ranks them. Nothing is simulated beyond the
// calibration probe.
func PlacementPool(app, system string, batch, scale int) ([]PlacementPlan, error) {
	w, err := Calibrate(app, system, batch, scale)
	if err != nil {
		return nil, err
	}
	return rankPlacement(w.Model, app, system, batch, scale)
}

// rankPlacement seeds and runs the branch-and-bound on a calibrated model
// and ranks the merged pool.
func rankPlacement(model *place.Model, app, system string, batch, scale int) ([]PlacementPlan, error) {
	topo, err := Cell{App: app, Scale: scale}.Topology()
	if err != nil {
		return nil, err
	}
	sys, err := SystemProfile(system)
	if err != nil {
		return nil, err
	}

	// Seed plans: the min-k-cut candidates in both balance modes. They
	// enter the ranked pool, so the search can never select a plan the
	// model scores worse than every seed. Seeds keep their ORIGINAL socket
	// labels: the simulated machine is not label symmetric (socket 0
	// hosts setup-time first-touch allocations), so a relabeled plan is a
	// physically different — and often slower — run.
	var seeds [][]int
	var pool []PlacementPlan
	seenSeed := make(map[string]bool)
	for _, balanced := range []bool{true, false} {
		ps, err := place.PlanFor(topo, sys, 4, place.PlaceOptions{
			CoresPerSocket: 8, Oversubscribe: 1.5, Balanced: balanced,
		})
		if err != nil {
			continue
		}
		for _, p := range ps {
			if k := assignString(p.Assign); !seenSeed[k] {
				seenSeed[k] = true
				seeds = append(seeds, p.Assign)
				pool = append(pool, PlacementPlan{Assign: p.Assign, Score: model.Bottleneck(p.Assign), Seed: true})
			}
		}
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no feasible placement plans")
	}

	// Merge the search plans (canonical labels), dropping those that
	// duplicate a seed's partition — the seed's labeling carries the
	// measurement.
	seedPartition := make(map[string]bool, len(seeds))
	for _, s := range seeds {
		seedPartition[assignString(place.Canonical(s))] = true
	}
	for _, c := range model.Search(place.SearchOptions{Workers: Jobs(), Seeds: seeds}) {
		if !seedPartition[assignString(c.Assign)] {
			pool = append(pool, PlacementPlan{Assign: c.Assign, Score: c.Score})
		}
	}
	sort.SliceStable(pool, func(i, j int) bool {
		if pool[i].Score != pool[j].Score {
			return pool[i].Score < pool[j].Score
		}
		return slices.Compare(pool[i].Assign, pool[j].Assign) < 0
	})
	if sys.AckEnabled {
		return pool, nil
	}

	// Flink's tie-break: scores within the model's resolution of the
	// tier's best are one tier (exact at batch 1, batchedTierEps at S>1),
	// and within a tier the plan on MORE distinct sockets ranks first.
	// Barrier-based flink is bound by aggregate LLC capacity and DRAM
	// channels, which the per-socket bounds do not price, and rewards
	// spread.
	eps := 0.0
	if batch > 1 {
		eps = batchedTierEps
	}
	type tiered struct {
		PlacementPlan
		tier, k int
	}
	ts := make([]tiered, len(pool))
	tierBest := 0.0
	for i, p := range pool {
		ts[i] = tiered{PlacementPlan: p, tier: i, k: distinctSockets(p.Assign)}
		if i > 0 && p.Score <= tierBest*(1+eps) {
			ts[i].tier = ts[i-1].tier
		} else {
			tierBest = p.Score
		}
	}
	sort.SliceStable(ts, func(i, j int) bool {
		if ts[i].tier != ts[j].tier {
			return ts[i].tier < ts[j].tier
		}
		if ts[i].k != ts[j].k {
			return ts[i].k > ts[j].k
		}
		return slices.Compare(ts[i].Assign, ts[j].Assign) < 0
	})
	for i := range ts {
		pool[i] = ts[i].PlacementPlan
	}
	return pool, nil
}

// searchPlacement is SearchPlacement on an already calibrated model.
func searchPlacement(model *place.Model, app, system string, batch, scale int) (*PlacementSearch, error) {
	pool, err := rankPlacement(model, app, system, batch, scale)
	if err != nil {
		return nil, err
	}
	isSeed := func(p PlacementPlan) bool { return p.Seed }
	seeds := 0
	for _, p := range pool {
		if p.Seed {
			seeds++
		}
	}

	// Verification set: the top-ranked plans, with the last slot reserved
	// for the best-ranked seed when none ranked on its own — the min-k-cut
	// comparison always has a measured anchor.
	top := verifyTop
	if batch > 1 {
		top = verifyTopBatched
	}
	top = min(top, len(pool))
	picked := slices.Clone(pool[:top])
	if !slices.ContainsFunc(picked, isSeed) {
		if i := slices.IndexFunc(pool[top:], isSeed); i >= 0 {
			picked[top-1] = pool[top+i]
		}
	}
	if batch > 1 && seeds >= extraSeedMinSeeds {
		// Extra slot: the most concentrated seed not already verified
		// (fewest distinct sockets, ranked order breaking ties).
		extra := -1
		for i, p := range pool {
			inPicked := slices.ContainsFunc(picked, func(q PlacementPlan) bool { return slices.Equal(q.Assign, p.Assign) })
			if !p.Seed || inPicked {
				continue
			}
			if extra < 0 || distinctSockets(p.Assign) < distinctSockets(pool[extra].Assign) {
				extra = i
			}
		}
		if extra >= 0 {
			picked = append(picked, pool[extra])
		}
	}

	// The do-nothing configuration — the unplaced run at the row's batch —
	// is the decision's incumbent, simulated in the same batch as the
	// plans. At batch 1 it is the calibration probe, already in the memo.
	unplaced := Cell{App: app, System: system, Sockets: 4, Scale: scale, BatchSize: batch}
	cands := make([]Candidate, 0, len(picked)+1)
	for _, p := range picked {
		c := unplaced
		c.Placement = asPlacementMap(p.Assign)
		cands = append(cands, Candidate{Cell: c, Key: p.Assign, Predicted: model.PredictThroughput(p.Assign)})
	}
	cands = append(cands, Candidate{Cell: unplaced})
	if err := verify(cands); err != nil {
		return nil, err
	}

	out := &PlacementSearch{
		App: app, System: system, Batch: batch,
		Verified: cands[:len(picked)],
		Validation: Validation{
			Decision: "placement", Name: app + "/" + system,
			Screened: len(pool), Probes: 1,
		},
	}
	for i, p := range picked {
		if p.Seed {
			out.SeedThroughput = max(out.SeedThroughput, out.Verified[i].Measured())
		}
	}
	out.Validation.score(out.Verified)
	out.decide(cands[len(picked)].Measured())
	return out, nil
}

// decide picks the row's winner among the verified plans, with the
// unplaced run's measured throughput as the incumbent: a plan replaces it
// only by measuring strictly faster (measuredWinner).
func (ps *PlacementSearch) decide(unplaced float64) {
	i := measuredWinner(ps.Verified, unplaced)
	if i < 0 {
		ps.Winner, ps.WinnerK, ps.Throughput, ps.Kept = nil, 0, unplaced, true
		return
	}
	ps.Winner = ps.Verified[i].Key
	ps.WinnerK = distinctSockets(ps.Winner)
	ps.Throughput = ps.Verified[i].Measured()
	ps.Kept = false
}

// PlacementMap converts a per-executor assignment slice to the Cell
// placement map form (global executor index -> socket).
func PlacementMap(assign []int) map[int]int { return asPlacementMap(assign) }

func asPlacementMap(assign []int) map[int]int {
	m := make(map[int]int, len(assign))
	for g, s := range assign {
		m[g] = s
	}
	return m
}

func assignString(assign []int) string {
	var sb strings.Builder
	sb.Grow(2 * len(assign))
	for i, s := range assign {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", s)
	}
	return sb.String()
}

func distinctSockets(assign []int) int {
	seen := make(map[int]bool, 4)
	for _, s := range assign {
		seen[s] = true
	}
	return len(seen)
}
