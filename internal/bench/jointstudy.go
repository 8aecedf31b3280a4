package bench

import (
	"fmt"
	"slices"
	"strings"

	"streamscale/internal/apps"
	"streamscale/internal/place"
)

// --- Joint optimization study: RLAS vs placement-only ---------------------

// JointRow compares the joint parallelism + placement winner against the
// placement-only winner for one (app, system, batch) row.
type JointRow struct {
	App, System string
	Batch       int
	// Fixed and Joint are measured throughputs (events/s); Joint equals
	// Fixed when no rescaled configuration measured strictly better.
	Fixed float64
	Joint float64
	// Gain is Joint/Fixed - 1.
	Gain float64
	// Par describes the winning parallelism ("default" or op=k pairs).
	Par string
	// Screened counts the parallelism vectors the joint search screened.
	Screened int
}

// JointStudy runs the joint search on every (app, system) row at the
// default batch size — the combined operating point where both the paper's
// optimizations are on and the parallelism axis matters most. The
// placement-only searches and probes are memo-shared with the Fig 14/15
// study, so the incremental cost is the joint verification simulations.
// The second return value carries one model-vs-measured record per row,
// system by system.
func JointStudy() ([]JointRow, []Validation, error) {
	var out []JointRow
	val := make([][]Validation, len(Systems))
	for _, app := range apps.BenchmarkNames() {
		for si, sys := range Systems {
			batch := place.DefaultBatchSize
			js, err := SearchJoint(app, sys, batch, 4)
			if err != nil {
				return nil, nil, fmt.Errorf("%s/%s joint (batch %d): %w", app, sys, batch, err)
			}
			out = append(out, JointRow{
				App: app, System: sys, Batch: batch,
				Fixed:    js.FixedThroughput,
				Joint:    js.Throughput,
				Gain:     js.Throughput/js.FixedThroughput - 1,
				Par:      js.ParString(),
				Screened: js.Validation.Screened,
			})
			val[si] = append(val[si], js.Validation)
		}
	}
	return out, slices.Concat(val...), nil
}

// JointTable renders the joint-vs-fixed comparison.
func JointTable(rows []JointRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Joint parallelism + placement (RLAS) vs placement-only search (4 sockets)\n")
	fmt.Fprintf(&b, "%-6s %-6s %5s %12s %12s %7s %9s  %s\n",
		"sys", "app", "batch", "fixed(ev/s)", "joint(ev/s)", "gain", "screened", "winner")
	for _, sys := range Systems {
		for _, r := range rows {
			if r.System != sys {
				continue
			}
			fmt.Fprintf(&b, "%-6s %-6s %5d %12.0f %12.0f %+6.1f%% %9d  %s\n",
				r.System, r.App, r.Batch, r.Fixed, r.Joint, r.Gain*100, r.Screened, r.Par)
		}
	}
	return b.String()
}
