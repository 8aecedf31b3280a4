package bench

import (
	"fmt"
	"strings"

	"streamscale/internal/sim"
	"streamscale/internal/trace"
)

// --- Extension: tail latency at the 99.99th percentile --------------------
//
// The Jet paper (PAPERS.md) argues engines must be judged at p99.99, where
// coordinated omission and sampling loss dominate what gets reported. This
// experiment family measures honest open-loop tails: every sink tuple is
// observed (LatencySampleEvery=1) into the HDR histogram (no decimation,
// bounded relative error < 0.79%), latency is recorded against the
// *intended* arrival schedule, and the worst tuple of each cell is traced
// to name the stall that put it in the tail.

// TailLoad is the offered open-loop load, as a fraction of each
// configuration's own saturated throughput. 0.8 sits at the latency knee:
// enough queueing for real tails without tipping into saturation.
const TailLoad = 0.8

// TailRow is one (app, system, ack config) line of the tail table.
type TailRow struct {
	App    string
	System string
	Ack    bool // ack tracking active (storm ships acking; flink does not)

	RateKps float64 // offered open-loop rate, k events/s
	Samples int64   // latency observations (every sink tuple)

	P50, P99, P999, P9999, Max float64 // ms

	// Worst-tuple drill-down, from the cycle-exact trace of the same cell.
	WorstRoot int64
	WorstMs   float64 // wall-clock root-to-sink span
	Dominant  string  // stall bucket name ("queue-wait", "deliver", or a hw bucket)
	// DominantMs is the dominant component summed over the tuple's whole
	// causal tree (every descendant and ack tuple). Tree branches stall
	// concurrently on different executors, so this can exceed WorstMs.
	DominantMs float64
}

// tailConfigs enumerates the engine configurations per app: Storm with its
// ack tracking (the shipped profile), Storm without acks (isolates the ack
// tree's tail contribution), and Flink (barrier-based, no acks).
type tailConfig struct {
	system string
	noAck  bool
}

var tailConfigs = []tailConfig{
	{"storm", false},
	{"storm", true},
	{"flink", false},
}

// tailCell builds the open-loop tail cell for one configuration at the
// given per-source rate (0 = closed-loop saturation probe).
func tailCell(app string, tc tailConfig, rate float64) Cell {
	c := Cell{App: app, System: tc.system, Sockets: 1, NoAck: tc.noAck}
	if rate > 0 {
		c.SourceRate = rate
		c.LatencySampleEvery = 1
	}
	return c
}

// TailStudy measures the tail table for the given apps: for each engine
// configuration it probes saturated throughput closed-loop (memo-shared
// with the single-socket study), offers TailLoad of it open-loop with
// every-tuple latency sampling, and traces the same cell (every tree
// sampled) to attribute the worst tuple's latency to its dominant stall.
func TailStudy(appNames []string) ([]TailRow, error) {
	var out []TailRow
	for _, app := range appNames {
		for _, tc := range tailConfigs {
			sat, err := Run(tailCell(app, tc, 0))
			if err != nil {
				return nil, err
			}
			rate := sat.Throughput().PerSecond() * TailLoad // per source executor; apps use one
			open := tailCell(app, tc, rate)
			res, err := Run(open)
			if err != nil {
				return nil, err
			}
			row := TailRow{
				App: app, System: tc.system, Ack: !tc.noAck && tc.system == "storm",
				RateKps: rate / 1e3,
				Samples: res.Latency.Count(),
				P50:     res.Latency.Quantile(0.5),
				P99:     res.Latency.Quantile(0.99),
				P999:    res.Latency.Quantile(0.999),
				P9999:   res.Latency.Quantile(0.9999),
				Max:     res.Latency.Max(),
			}
			if err := fillWorst(&row, open); err != nil {
				return nil, err
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// fillWorst traces the cell with every tuple tree sampled and fills the
// row's worst-tuple attribution from the per-root tail records.
func fillWorst(row *TailRow, c Cell) error {
	tr := trace.New(trace.Config{SampleEvery: 1, QueueCadence: -1})
	if _, err := RunTraced(c, tr); err != nil {
		return err
	}
	tails := tr.Tails(1)
	if len(tails) == 0 {
		return fmt.Errorf("bench: tail trace of %s/%s produced no sink-reaching trees", c.App, c.System)
	}
	clock := tr.ClockHz()
	rec := tails[0]
	dom, domCycles := rec.Dominant()
	row.WorstRoot = rec.Root
	row.WorstMs = sim.Cycles(rec.E2ECycles).Millis(clock)
	row.Dominant = dom
	row.DominantMs = sim.Cycles(domCycles).Millis(clock)
	return nil
}

// TailTable renders the tail-latency table.
func TailTable(rows []TailRow) string {
	var b strings.Builder
	b.WriteString("Extension — tail latency, open-loop at 80% load, every sink tuple observed (single socket)\n")
	b.WriteString("latency vs intended arrival (coordinated-omission corrected); worst tuple traced to its dominant stall\n")
	fmt.Fprintf(&b, "%-4s %-6s %-5s %10s %9s %9s %9s %9s %9s  %s\n",
		"app", "sys", "ack", "rate k/s", "p50 ms", "p99 ms", "p99.9", "p99.99", "max", "worst tuple: dominant stall")
	for _, r := range rows {
		ack := "on"
		if !r.Ack {
			ack = "off"
		}
		fmt.Fprintf(&b, "%-4s %-6s %-5s %10.1f %9.2f %9.2f %9.2f %9.2f %9.2f  e2e %.2f ms, %s %.2f ms over tree\n",
			r.App, r.System, ack, r.RateKps, r.P50, r.P99, r.P999, r.P9999, r.Max,
			r.WorstMs, r.Dominant, r.DominantMs)
	}
	return b.String()
}
