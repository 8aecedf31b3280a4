package bench

import (
	"math"
	"slices"
	"testing"

	"streamscale/internal/engine"
)

// Unit tests for the shared screen-then-verify rules, on literal
// candidates: no simulation runs.

// measured returns a verified candidate that measured events/s.
func measured(key []int, pred float64, events int64) Candidate {
	return Candidate{Key: key, Predicted: pred, Res: &engine.Result{SourceEvents: events, ElapsedSeconds: 1}}
}

func TestValidationScore(t *testing.T) {
	cases := []struct {
		name    string
		groups  [][]Candidate
		tau     float64
		pairs   int
		meanErr float64
	}{
		{"concordant", [][]Candidate{{measured(nil, 100, 100), measured(nil, 200, 300)}}, 1, 1, (0 + 1.0/3) / 2},
		{"discordant", [][]Candidate{{measured(nil, 100, 300), measured(nil, 200, 100)}}, -1, 1, (2.0/3 + 1) / 2},
		{"mixed", [][]Candidate{{measured(nil, 100, 100), measured(nil, 200, 200), measured(nil, 300, 150)}},
			1.0 / 3, 3, (0 + 0 + 1) / 3.0},
		// 100 vs 100.4 is within rankEps: the model claims no order.
		{"predictions within eps", [][]Candidate{{measured(nil, 100, 100), measured(nil, 100.4, 50)}}, 0, 0, (0 + 1.008) / 2},
		{"equal measurements", [][]Candidate{{measured(nil, 100, 100), measured(nil, 200, 100)}}, 0, 0, (0 + 1) / 2.0},
		{"unverified ignored", [][]Candidate{{measured(nil, 100, 100), {Predicted: 50}, measured(nil, 200, 200)}}, 1, 1, 0},
		// Across groups the pair would be discordant; it is never formed.
		{"pairs within a group", [][]Candidate{{measured(nil, 100, 300)}, {measured(nil, 200, 100)}}, 0, 0, (2.0/3 + 1) / 2},
		{"mean error over measured > 0", [][]Candidate{{measured(nil, 100, 0), measured(nil, 150, 100)}}, 1, 1, 0.5},
		{"no pairs", [][]Candidate{{measured(nil, 100, 100)}}, 0, 0, 0},
		{"nothing verified", [][]Candidate{{{Predicted: 100}, {Predicted: 200}}}, 0, 0, 0},
	}
	for _, tc := range cases {
		v := Validation{Screened: 9, Probes: 1}
		v.score(tc.groups...)
		verified := 0
		for _, g := range tc.groups {
			for _, c := range g {
				if c.Res != nil {
					verified++
				}
			}
		}
		if v.Verified != verified || v.Pairs != tc.pairs ||
			math.Abs(v.RankTau-tc.tau) > 1e-12 || math.Abs(v.MeanErr-tc.meanErr) > 1e-12 {
			t.Errorf("%s: got verified %d tau %v pairs %d mean-err %v, want %d %v %d %v",
				tc.name, v.Verified, v.RankTau, v.Pairs, v.MeanErr, verified, tc.tau, tc.pairs, tc.meanErr)
		}
		if v.Screened != 9 || v.Probes != 1 {
			t.Errorf("%s: score changed the flow's counts: %+v", tc.name, v)
		}
	}
}

// The measured-winner rule is part of the determinism contract: equal
// measurements resolve to the lexicographically smallest key regardless of
// verification order, and a candidate must measure strictly better than
// the incumbent to replace it.
func TestMeasuredWinner(t *testing.T) {
	noInc := math.Inf(-1)
	cases := []struct {
		name      string
		cands     []Candidate
		incumbent float64
		want      int
	}{
		{"tie breaks to the smallest key", []Candidate{
			measured([]int{0, 1, 1, 2}, 0, 500), measured([]int{0, 0, 1, 2}, 0, 500), measured([]int{0, 1, 2, 3}, 0, 400),
		}, noInc, 1},
		{"tie order independent", []Candidate{
			measured([]int{0, 0, 1, 2}, 0, 500), measured([]int{0, 1, 1, 2}, 0, 500), measured([]int{0, 1, 2, 3}, 0, 400),
		}, noInc, 0},
		{"highest measured wins", []Candidate{
			measured([]int{0, 0, 1, 2}, 0, 500), measured([]int{0, 1, 1, 2}, 0, 500), measured([]int{0, 1, 2, 3}, 0, 600),
		}, noInc, 2},
		{"tie with incumbent keeps it", []Candidate{
			measured([]int{2, 4}, 0, 500),
		}, 500, -1},
		{"strictly better replaces incumbent", []Candidate{
			measured([]int{2, 4}, 0, 400), measured([]int{4, 4}, 0, 501),
		}, 500, 1},
		{"tied challengers take the smaller key", []Candidate{
			measured([]int{4, 2}, 0, 600), measured([]int{2, 4}, 0, 600),
		}, 500, 1},
		{"unverified never wins", []Candidate{
			{Key: []int{0}}, measured([]int{1}, 0, 0),
		}, noInc, 1},
	}
	for _, tc := range cases {
		if got := measuredWinner(tc.cands, tc.incumbent); got != tc.want {
			t.Errorf("%s: measuredWinner = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// A placement decision's incumbent is the unplaced run at the row's
// batch: it stands unless a verified plan measures strictly faster.
func TestPlacementKeepsUnplacedIncumbent(t *testing.T) {
	cases := []struct {
		name     string
		verified []Candidate
		unplaced float64
		winner   []int
		tp       float64
	}{
		{"every plan slower", []Candidate{
			measured([]int{0, 0, 1}, 900, 480), measured([]int{0, 1, 2}, 800, 450),
		}, 500, nil, 500},
		{"tie keeps the unplaced run", []Candidate{
			measured([]int{0, 1, 1}, 900, 500), measured([]int{0, 0, 1}, 800, 500),
		}, 500, nil, 500},
		{"strictly faster plan wins", []Candidate{
			measured([]int{0, 1, 1}, 900, 500), measured([]int{0, 0, 1}, 800, 501),
		}, 500, []int{0, 0, 1}, 501},
	}
	for _, tc := range cases {
		ps := &PlacementSearch{Verified: tc.verified}
		ps.decide(tc.unplaced)
		kept := tc.winner == nil
		if !slices.Equal(ps.Winner, tc.winner) || ps.Throughput != tc.tp || ps.Kept != kept ||
			(ps.WinnerK == 0) != kept {
			t.Errorf("%s: winner %v (k=%d) at %v kept=%v, want %v at %v kept=%v",
				tc.name, ps.Winner, ps.WinnerK, ps.Throughput, ps.Kept, tc.winner, tc.tp, kept)
		}
	}
}

func TestValidationTableGolden(t *testing.T) {
	vals := []Validation{
		{Decision: "tier", Name: "fig12-wide", Screened: 168, Verified: 42, Probes: 14, RankTau: 1, Pairs: 36, MeanErr: 0.439},
		{Decision: "joint", Name: "wc/storm", Screened: 9, Verified: 2, Probes: 1, RankTau: -1, Pairs: 1, MeanErr: 0.12},
		{Decision: "placement", Name: "wc/storm", Screened: 28, Verified: 6, Probes: 1, RankTau: 0.5, Pairs: 4, MeanErr: 0.262},
		{Decision: "joint", Name: "spec-shift", Screened: 504, Probes: 14},
		{Decision: "placement", Name: "lr/flink", Screened: 18, Verified: 5, Probes: 1, MeanErr: 0.323},
	}
	want := "" +
		"Model vs measured — each model decision's predictions against full simulation of the candidates it verified\n" +
		"decision  row             screened  verified  probes  rank-tau   pairs  mean-err\n" +
		"placement wc/storm              28         6       1      0.50       4     26.2%\n" +
		"placement lr/flink              18         5       1         -       0     32.3%\n" +
		"joint     wc/storm               9         2       1     -1.00       1     12.0%\n" +
		"joint     spec-shift           504         0      14         -       0         -\n" +
		"tier      fig12-wide           168        42      14      1.00      36     43.9%\n"
	if got := ValidationTable(vals); got != want {
		t.Errorf("ValidationTable drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
