package bench

import (
	"fmt"
	"strings"

	"streamscale/internal/place"
)

// JointSmoke is the CI gate for the joint search: for a few rows it
// simulates EVERY top-ranked joint configuration (not just the ones the
// production flow verifies) and checks that
//
//	(1) the screened (model) ranking agrees with the measured ranking at
//	    rank-tau >= 0.90 over decidable pairs, and
//	(2) the production winner never measures below the placement-only
//	    winner (the zero-regression invariant).
//
// It runs only when selected explicitly: the exhaustive simulation pass
// is exactly the cost the joint flow exists to avoid. The second return
// value holds the production searches' records.
func JointSmoke() (string, []Validation, error) {
	const tauGate = 0.90
	rows := []struct {
		app, sys string
	}{{"wc", "storm"}, {"sd", "flink"}}

	var b strings.Builder
	var groups [][]Candidate
	var vals []Validation
	for _, row := range rows {
		w, err := Calibrate(row.app, row.sys, 1, 4)
		if err != nil {
			return "", nil, err
		}
		// The configurations the production search RETURNS are all
		// near-optimal under the model — their predictions agree to within
		// rankEps by construction, so ranking them against each other
		// tests nothing. The ranking question that matters is across
		// deliberately DIFFERENT vectors: the default, everything halved,
		// and everything doubled span under- and over-provisioning, where
		// the model's predictions differ by tens of percent. Each vector
		// gets its best assignment from the inner search.
		def := w.DefaultPar()
		vectors := [][]int{def}
		for _, scale := range []int{-2, 2} {
			v := append([]int(nil), def...)
			changed := false
			for _, i := range w.Searchable() {
				n := def[i] * scale
				if scale < 0 {
					n = def[i] / -scale
				}
				if n < 1 {
					n = 1
				}
				if n != def[i] {
					v[i] = n
					changed = true
				}
			}
			if changed {
				vectors = append(vectors, v)
			}
		}

		// Simulate each vector's best configuration; the row is one group
		// of the model-vs-measured ranking.
		names := opNames(w)
		var cands []Candidate
		for _, v := range vectors {
			m, err := w.Reparallelize(v)
			if err != nil {
				return "", nil, err
			}
			best := m.Search(place.SearchOptions{TopM: 1, Workers: Jobs()})
			if len(best) == 0 {
				return "", nil, fmt.Errorf("joint-smoke: no assignment for vector %v", v)
			}
			cands = append(cands, Candidate{
				Cell: Cell{
					App: row.app, System: row.sys, Sockets: 4, Scale: 4, BatchSize: 1,
					Placement:           asPlacementMap(best[0].Assign),
					ParallelismOverride: jointOverride(names, v, def),
				},
				Predicted: m.PredictThroughput(best[0].Assign),
			})
		}
		if err := verify(cands); err != nil {
			return "", nil, err
		}
		groups = append(groups, cands)

		// Zero-regression invariant on the production flow.
		js, err := SearchJoint(row.app, row.sys, 1, 4)
		if err != nil {
			return "", nil, err
		}
		vals = append(vals, js.Validation)
		if js.Throughput < js.FixedThroughput {
			return "", nil, fmt.Errorf("joint-smoke: %s/%s joint winner %.0f ev/s below placement-only %.0f ev/s",
				row.app, row.sys, js.Throughput, js.FixedThroughput)
		}
		fmt.Fprintf(&b, "joint-smoke: %s/%s: %d candidate(s) simulated, winner %s (%+.1f%% vs fixed)\n",
			row.app, row.sys, len(cands), js.ParString(), (js.Throughput/js.FixedThroughput-1)*100)
	}

	var gate Validation
	gate.score(groups...)
	fmt.Fprintf(&b, "joint-smoke: screened-vs-measured rank-tau %.2f over %d pair(s) (gate >= %.2f, %d simulated)\n",
		gate.RankTau, gate.Pairs, tauGate, gate.Verified)
	if gate.Pairs > 0 && gate.RankTau < tauGate {
		return b.String(), vals, fmt.Errorf("joint-smoke: rank-tau %.2f below gate %.2f", gate.RankTau, tauGate)
	}
	return b.String(), vals, nil
}
