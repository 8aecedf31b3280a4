package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"streamscale/internal/engine"
	"streamscale/internal/hw"
	"streamscale/internal/place"
)

// The screen-then-verify core shared by every model decision in this
// package: the placement search (placement.go), the joint search
// (joint.go) and the tiered sweeps (tier.go). Each flow generates its own
// candidates and decides which of them to simulate; the candidate record,
// the verification run, the measured-winner rule and the model-vs-measured
// record live here, so every decision is verified and reported one way.

// Candidate is one option a model decision screened: the cell that runs
// it, the model's throughput prediction and, once verified, the simulated
// result.
type Candidate struct {
	Cell Cell
	// Key breaks measured ties in measuredWinner: the per-executor socket
	// assignment of a placement plan, the parallelism vector of a joint
	// configuration.
	Key []int
	// Predicted is the model's throughput estimate (events/s).
	Predicted float64
	// Res is non-nil iff the candidate was verified; it is the memoized
	// Result of Cell, the same one the untiered path returns.
	Res *engine.Result
}

// Measured returns the verified throughput (events/s), 0 when unverified.
func (c *Candidate) Measured() float64 {
	if c.Res == nil {
		return 0
	}
	return c.Res.Throughput().PerSecond()
}

// verify simulates the candidates through the memoized pool and stores
// each result in its candidate.
func verify(cands []Candidate) error {
	cells := make([]Cell, len(cands))
	for i := range cands {
		cells[i] = cands[i].Cell
	}
	results, err := runCells(cells)
	if err != nil {
		return err
	}
	for i := range cands {
		cands[i].Res = results[i].Res
	}
	return nil
}

// measuredWinner returns the index of the verified candidate with the
// highest measured throughput, or -1 when none measures strictly above the
// incumbent's throughput: a tie with the incumbent keeps the incumbent,
// and a tie between candidates goes to the smaller Key (slices.Compare), so
// the order candidates were generated in never decides. Every decision has
// an incumbent: the unplaced run for placement, the placement result for
// joint search.
func measuredWinner(cands []Candidate, incumbent float64) int {
	best, bestM := -1, incumbent
	for i := range cands {
		if cands[i].Res == nil {
			continue
		}
		m := cands[i].Measured()
		if m > bestM || (best >= 0 && m == bestM && slices.Compare(cands[i].Key, cands[best].Key) < 0) {
			best, bestM = i, m
		}
	}
	return best
}

// rankEps is the model's ranking resolution: predicted throughputs within
// 0.5% of each other assert no order, so rank-tau skips such a pair.
const rankEps = 0.005

// Validation is the model-vs-measured record of one model decision: how
// many candidates the model screened, how many full simulation verified,
// how many probe simulations calibrated the model, and how well the
// predictions ranked and matched the verified measurements.
type Validation struct {
	// Decision is the flow ("placement", "joint" or "tier"); Name is the
	// row ("wc/storm") or the sweep ("fig12-wide").
	Decision, Name string
	// Screened counts candidates the model evaluated; Verified those also
	// simulated; Probes the distinct calibration simulations requested
	// (the memo layer shares them across decisions).
	Screened, Verified, Probes int
	// RankTau is the Kendall rank correlation between predicted and
	// measured throughput over Pairs: the pairs of verified candidates in
	// one group whose predictions differ by more than rankEps and whose
	// measurements differ.
	RankTau float64
	Pairs   int
	// MeanErr is the mean relative error of predicted vs measured
	// throughput over the verified candidates measured above zero.
	MeanErr float64
}

// score fills Verified, RankTau, Pairs and MeanErr from the decision's
// candidates. Pairs are formed only within a group, and unverified
// candidates are skipped.
func (v *Validation) score(groups ...[]Candidate) {
	conc, disc := 0, 0
	var errSum float64
	var errN int
	v.Verified = 0
	for _, g := range groups {
		for i := range g {
			if g[i].Res == nil {
				continue
			}
			v.Verified++
			pi, mi := g[i].Predicted, g[i].Measured()
			if mi > 0 {
				errSum += math.Abs(pi-mi) / mi
				errN++
			}
			for j := i + 1; j < len(g); j++ {
				if g[j].Res == nil {
					continue
				}
				pj, mj := g[j].Predicted, g[j].Measured()
				if math.Abs(pi-pj) <= rankEps*math.Max(pi, pj) || mi == mj {
					continue
				}
				if (pi > pj) == (mi > mj) {
					conc++
				} else {
					disc++
				}
			}
		}
	}
	v.Pairs = conc + disc
	v.RankTau, v.MeanErr = 0, 0
	if v.Pairs > 0 {
		v.RankTau = float64(conc-disc) / float64(v.Pairs)
	}
	if errN > 0 {
		v.MeanErr = errSum / float64(errN)
	}
}

// ValidationTable renders the report's model-vs-measured section: the
// placement rows, then the joint rows, then the tiered sweeps, each in
// the order given. A row without pairs prints no rank-tau, and a row
// without verified candidates no mean error.
func ValidationTable(vals []Validation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Model vs measured — each model decision's predictions against full simulation of the candidates it verified\n")
	fmt.Fprintf(&b, "%-9s %-14s %9s %9s %7s %9s %7s %9s\n",
		"decision", "row", "screened", "verified", "probes", "rank-tau", "pairs", "mean-err")
	for _, decision := range []string{"placement", "joint", "tier"} {
		for _, v := range vals {
			if v.Decision != decision {
				continue
			}
			tau, meanErr := "-", "-"
			if v.Pairs > 0 {
				tau = fmt.Sprintf("%.2f", v.RankTau)
			}
			if v.Verified > 0 {
				meanErr = fmt.Sprintf("%.1f%%", v.MeanErr*100)
			}
			fmt.Fprintf(&b, "%-9s %-14s %9d %9d %7d %9s %7d %9s\n",
				v.Decision, v.Name, v.Screened, v.Verified, v.Probes, tau, v.Pairs, meanErr)
		}
	}
	return b.String()
}

// Calibrate runs — or recalls from the memo — the calibration probe of a
// four-socket (app, system, scale) row: the unplaced batch-1 run on the
// full baseline machine, which is also the Fig 14 normalization cell. It
// calibrates the placement cost model on the probe, adjusts it
// analytically to batch (no second probe), and binds it to the topology's
// operator structure for joint search; Workload.Model is the placement
// model.
func Calibrate(app, system string, batch, scale int) (*place.Workload, error) {
	probe := Cell{App: app, System: system, Sockets: 4, Scale: scale, BatchSize: 1}
	topo, err := probe.Topology()
	if err != nil {
		return nil, err
	}
	sys, err := SystemProfile(system)
	if err != nil {
		return nil, err
	}
	res, err := Run(probe)
	if err != nil {
		return nil, err
	}
	model, err := place.Calibrate(res, hw.TableIII(), sys, 1)
	if err != nil {
		return nil, fmt.Errorf("calibrate %s/%s: %w", app, system, err)
	}
	if batch > 1 {
		model = model.WithBatch(batch)
	}
	w, err := place.NewWorkload(model, topo, sys)
	if err != nil {
		return nil, fmt.Errorf("workload %s/%s: %w", app, system, err)
	}
	return w, nil
}
