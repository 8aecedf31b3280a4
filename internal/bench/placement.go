package bench

import (
	"fmt"
	"math"
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
// The previous flow simulated every candidate plan at both batch sizes.

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
// batchedTierEps groups batched scores that agree to within 0.5% into one
// rank tier: that is below the batch-adjusted model's resolution. Within a
// tier the simulator is not indifferent even though the model is — see
// the socket-spread tie-break in SearchPlacement. Batch-1 rankings use
// exact-score tiers only: the probe measured that batch size directly, so
// its scores are trusted.
const (
	verifyTop         = 2
	verifyTopBatched  = 3
	extraSeedMinSeeds = 6
	batchedTierEps    = 0.005
)

// PlacementSearch is the outcome of one model-guided placement search for
// one (app, system, batch) row.
type PlacementSearch struct {
	App, System string
	Batch       int

	// Winner is the verified assignment with the highest measured
	// throughput; ties break to the lexicographically smallest assignment.
	Winner []int
	// WinnerK is the number of distinct sockets the winner uses.
	WinnerK int
	// Throughput is the winner's measured throughput (events/s).
	Throughput float64
	// SeedThroughput is the best measured throughput among the verified
	// min-k-cut seed plans (at least one is always verified).
	SeedThroughput float64

	// Verified lists the simulated plans in model-rank order; each Key is
	// the per-executor socket assignment exactly as simulated: search
	// plans are canonical, seed plans keep their original labels (the
	// simulated machine is not label symmetric).
	Verified []Candidate
	// Seeds is how many distinct min-k-cut seed plans entered the pool.
	Seeds int
	// Validation counts the plans the model ranked (the candidate pool:
	// B&B results merged with the seeds) as screened.
	Validation Validation
}

// SearchPlacement runs the model-guided search for one row: calibrate
// from the probe, rank candidates, verify the top few by simulation, and
// select the measured best.
func SearchPlacement(app, system string, batch, scale int) (*PlacementSearch, error) {
	w, err := Calibrate(app, system, batch, scale)
	if err != nil {
		return nil, err
	}
	return searchPlacement(w.Model, app, system, batch, scale)
}

// searchPlacement is SearchPlacement on an already calibrated model.
func searchPlacement(model *place.Model, app, system string, batch, scale int) (*PlacementSearch, error) {
	topo, err := Cell{App: app, Scale: scale}.Topology()
	if err != nil {
		return nil, err
	}
	sys, err := systemProfile(system)
	if err != nil {
		return nil, err
	}

	// Seed plans: the min-k-cut candidates of the previous flow, in both
	// balance modes. They enter the ranked pool, so the search can never
	// select a plan the model scores worse than every seed. Seeds keep
	// their ORIGINAL socket labels: the simulated machine is not label
	// symmetric (socket 0 hosts setup-time first-touch allocations), so a
	// relabeled plan is a physically different — and often slower — run,
	// and the old flow measured the original labels.
	var seeds [][]int
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
			}
		}
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no feasible placement plans")
	}

	cands := model.Search(place.SearchOptions{
		TopM: 8, Workers: Jobs(), Seeds: seeds,
	})

	// Merge the ranked pool: seeds (original labels) plus search plans
	// (canonical labels), with search plans that duplicate a seed's
	// partition dropped — the seed's labeling carries the measurement.
	seedPartition := make(map[string]bool, len(seeds))
	for _, s := range seeds {
		seedPartition[assignString(place.Canonical(s))] = true
	}
	type scoredPlan struct {
		assign  []int
		score   float64
		seed    bool
		k, tier int
	}
	var merged []scoredPlan
	for _, s := range seeds {
		merged = append(merged, scoredPlan{assign: s, score: model.Bottleneck(s), seed: true})
	}
	for _, c := range cands {
		if !seedPartition[assignString(c.Assign)] {
			merged = append(merged, scoredPlan{assign: c.Assign, score: c.Score})
		}
	}
	for i := range merged {
		merged[i].k = distinctSockets(merged[i].assign)
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].score != merged[j].score {
			return merged[i].score < merged[j].score
		}
		return place.Less(merged[i].assign, merged[j].assign)
	})
	// Tier the ranking: scores within the model's resolution of the tier's
	// best are one tier (exact at batch 1, batchedTierEps at S>1). Within a
	// tier the model cannot order, but the simulator is not indifferent:
	// systems that track progress with per-tuple acks (storm) route every
	// ack through the socket-0 acker and reward concentration, so their
	// ties prefer FEWER distinct sockets; barrier-based systems (flink)
	// are bound by aggregate LLC capacity and DRAM channels — which the
	// per-socket bounds do not price — and reward spread, so their ties
	// prefer MORE.
	spreadTies := !sys.AckEnabled
	eps := 0.0
	if batch > 1 {
		eps = batchedTierEps
	}
	tierBest := 0.0
	for i := range merged {
		if i == 0 || merged[i].score > tierBest*(1+eps) {
			tierBest = merged[i].score
			merged[i].tier = i
		} else {
			merged[i].tier = merged[i-1].tier
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].tier != merged[j].tier {
			return merged[i].tier < merged[j].tier
		}
		if merged[i].k != merged[j].k {
			if spreadTies {
				return merged[i].k > merged[j].k
			}
			return merged[i].k < merged[j].k
		}
		return place.Less(merged[i].assign, merged[j].assign)
	})

	// Verification set: the top-ranked plans, with the last slot reserved
	// for the best-ranked seed when none ranked on its own — the min-k-cut
	// comparison always has a measured anchor, and the winner can never be
	// worse than that seed's simulated throughput.
	top := verifyTop
	if batch > 1 {
		top = verifyTopBatched
	}
	if top > len(merged) {
		top = len(merged)
	}
	picked := append([]scoredPlan(nil), merged[:top]...)
	hasSeed := false
	for _, c := range picked {
		hasSeed = hasSeed || c.seed
	}
	if !hasSeed {
		for _, c := range merged[top:] {
			if c.seed {
				picked[len(picked)-1] = c
				break
			}
		}
	}
	if batch > 1 && len(seeds) >= extraSeedMinSeeds {
		// Extra slot: the most concentrated seed not already verified
		// (fewest distinct sockets, ranked order breaking ties).
		inPicked := make(map[string]bool, len(picked))
		for _, c := range picked {
			inPicked[assignString(c.assign)] = true
		}
		extra := -1
		for i, c := range merged {
			if !c.seed || inPicked[assignString(c.assign)] {
				continue
			}
			if extra < 0 || c.k < merged[extra].k {
				extra = i
			}
		}
		if extra >= 0 {
			picked = append(picked, merged[extra])
		}
	}

	out := &PlacementSearch{
		App: app, System: system, Batch: batch, Seeds: len(seeds),
		Verified: make([]Candidate, len(picked)),
		Validation: Validation{
			Decision: "placement", Name: app + "/" + system,
			Screened: len(merged), Probes: 1,
		},
	}
	for i, c := range picked {
		out.Verified[i] = Candidate{
			Cell: Cell{
				App: app, System: system, Sockets: 4, Scale: scale,
				BatchSize: batch, Placement: asPlacementMap(c.assign),
			},
			Key:       c.assign,
			Predicted: model.PredictThroughput(c.assign),
		}
	}
	if err := verify(out.Verified); err != nil {
		return nil, err
	}
	for i, c := range picked {
		if c.seed {
			out.SeedThroughput = max(out.SeedThroughput, out.Verified[i].Measured())
		}
	}
	out.Validation.score(out.Verified)
	best := out.Verified[measuredWinner(out.Verified, math.Inf(-1))]
	out.Winner = best.Key
	out.WinnerK = distinctSockets(out.Winner)
	out.Throughput = best.Measured()
	return out, nil
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
