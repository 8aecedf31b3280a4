package bench

import (
	"fmt"
	"slices"
	"strings"

	"streamscale/internal/apps"
	"streamscale/internal/hw"
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

// --- Joint optimum across machine shapes (predicted) ----------------------

// JointShiftRow tracks how the predicted joint optimum moves across
// machine-spec variants for one (app, system) row: per variant, the
// winning configuration's total executor count and distinct socket count.
type JointShiftRow struct {
	App, System string
	// Execs and K are indexed by hw.VariantNames() order.
	Execs []int
	K     []int
	// Shifts counts variants whose winning parallelism vector differs from
	// the Table III baseline's.
	Shifts int
}

// JointShift recalibrates each row's probe model onto every machine-spec
// variant (place.Workload.Retarget — no new simulations) and re-runs the
// joint search, showing where the parallelism/placement optimum moves when
// the machine shape changes. The second return value records the vectors
// the searches screened; nothing is verified.
func JointShift() ([]JointShiftRow, Validation, error) {
	variants := hw.VariantNames()
	val := Validation{Decision: "joint", Name: "spec-shift"}
	var out []JointShiftRow
	for _, app := range apps.BenchmarkNames() {
		for _, sys := range Systems {
			base, err := Calibrate(app, sys, 1, 4)
			if err != nil {
				return nil, Validation{}, err
			}
			val.Probes++
			row := JointShiftRow{App: app, System: sys}
			var basePar []int
			for vi, variant := range variants {
				w := base
				if vi > 0 {
					spec, _ := hw.Variant(variant)
					w = base.Retarget(spec)
				}
				res, err := w.SearchJoint(jointSearchOptions())
				if err != nil {
					return nil, Validation{}, fmt.Errorf("joint shift %s/%s/%s: %w", app, sys, variant, err)
				}
				val.Screened += res.VectorsScreened
				if len(res.Candidates) == 0 {
					return nil, Validation{}, fmt.Errorf("joint shift %s/%s/%s: no candidates", app, sys, variant)
				}
				win := res.Candidates[0]
				execs := 0
				for _, p := range win.Par {
					execs += p
				}
				row.Execs = append(row.Execs, execs)
				row.K = append(row.K, distinctSockets(win.Assign))
				if vi == 0 {
					basePar = win.Par
				} else if !slices.Equal(win.Par, basePar) {
					row.Shifts++
				}
			}
			out = append(out, row)
		}
	}
	return out, val, nil
}

// JointShiftTable renders the optimum-shift-across-specs comparison. Each
// cell is execs@k: the predicted winner's total executor count and how
// many sockets it spans.
func JointShiftTable(rows []JointShiftRow) string {
	variants := hw.VariantNames()
	var b strings.Builder
	fmt.Fprintf(&b, "Joint optimum across machine shapes (predicted, batch 1) — winner total executors @ sockets used\n")
	fmt.Fprintf(&b, "%-6s %-6s", "sys", "app")
	for _, v := range variants {
		name := v
		if name == "" {
			name = "base"
		}
		fmt.Fprintf(&b, " %8s", name)
	}
	fmt.Fprintf(&b, " %7s\n", "shifts")
	for _, sys := range Systems {
		for _, r := range rows {
			if r.System != sys {
				continue
			}
			fmt.Fprintf(&b, "%-6s %-6s", r.System, r.App)
			for i := range variants {
				fmt.Fprintf(&b, " %8s", fmt.Sprintf("%d@%d", r.Execs[i], r.K[i]))
			}
			fmt.Fprintf(&b, " %7d\n", r.Shifts)
		}
	}
	return b.String()
}
