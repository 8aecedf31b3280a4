package bench

import (
	"fmt"
	"strings"

	"streamscale/internal/engine"
)

// Native validation loop: the simulator predicts how much an optimization
// (tuple batching, ack tracking, operator chaining) changes throughput;
// the native runtime measures the same effect as a real wall-clock ratio
// on this host. Absolute numbers are incomparable — the simulator models
// the paper's four-socket server, the native runtime runs on whatever this
// machine is — but effect *ratios* should agree if the simulator captures
// the mechanisms. ValidateNative computes both sides of that comparison.

// NativeEffectRow is one (cell, effect) comparison.
type NativeEffectRow struct {
	App    string
	System string
	// Effect names the toggled optimization: "batching" (S=4 vs S=1),
	// "ack" (tracking off vs on), or "chaining" (fused vs not).
	Effect string
	// SimRatio and NativeRatio are throughput ratios optimized/baseline
	// (for "ack": untracked/tracked, i.e. the speedup from turning the
	// mechanism off).
	SimRatio    float64
	NativeRatio float64
	// RelErr is |native-sim|/sim.
	RelErr float64
}

// NativeValidation is the full validation table.
type NativeValidation struct {
	Rows []NativeEffectRow
	// Reps is the best-of repetition count used for native measurements.
	Reps int
}

// MeanErr returns the mean relative error for one effect (or over all
// rows when effect is empty).
func (v *NativeValidation) MeanErr(effect string) float64 {
	var sum float64
	n := 0
	for _, r := range v.Rows {
		if effect == "" || r.Effect == effect {
			sum += r.RelErr
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (v *NativeValidation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-6s %-9s %10s %10s %8s\n", "app", "system", "effect", "sim", "native", "rel.err")
	for _, r := range v.Rows {
		fmt.Fprintf(&b, "%-4s %-6s %-9s %9.2fx %9.2fx %7.1f%%\n",
			r.App, r.System, r.Effect, r.SimRatio, r.NativeRatio, r.RelErr*100)
	}
	for _, eff := range []string{"batching", "ack", "chaining"} {
		if err := v.MeanErr(eff); err > 0 || hasEffect(v.Rows, eff) {
			fmt.Fprintf(&b, "mean error %-9s %6.1f%%\n", eff, err*100)
		}
	}
	return b.String()
}

func hasEffect(rows []NativeEffectRow, effect string) bool {
	for _, r := range rows {
		if r.Effect == effect {
			return true
		}
	}
	return false
}

// DefaultValidationCells is the (app, system) grid dspbench -validate
// runs: one stateless-heavy and one window-heavy application under both
// system profiles.
func DefaultValidationCells() []Cell {
	return []Cell{
		{App: "wc", System: "storm"},
		{App: "wc", System: "flink"},
		{App: "sd", System: "storm"},
		{App: "sd", System: "flink"},
	}
}

// ValidateNative measures the throughput effect of batching, ack tracking,
// and operator chaining on both runtimes for every cell, taking the best
// of reps native runs per configuration (wall-clock measurements are
// noisy; the simulator side is deterministic and runs once). EventScale on
// a cell scales the workload for both runtimes.
func ValidateNative(cells []Cell, reps int) (*NativeValidation, error) {
	if reps <= 0 {
		reps = 3
	}
	v := &NativeValidation{Reps: reps}
	for _, c := range cells {
		sys, err := SystemProfile(c.System)
		if err != nil {
			return nil, err
		}
		seed := c.Seed
		if seed == 0 {
			seed = 1
		}

		type variant struct {
			sys   engine.SystemProfile
			batch int
			chain bool
		}
		// simT and natT run one variant on each runtime. Topologies are
		// rebuilt per run: operator factories are stateful.
		simT := func(vt variant) (float64, error) {
			topo, err := c.topoChained(vt.chain)
			if err != nil {
				return 0, err
			}
			res, err := engine.RunSim(topo, engine.SimConfig{
				System: vt.sys, BatchSize: vt.batch, Sockets: 1, Seed: seed,
			})
			if err != nil {
				return 0, err
			}
			return float64(res.SourceEvents) / res.ElapsedSeconds, nil
		}
		natT := func(vt variant) (float64, error) {
			var best float64
			for i := 0; i < reps; i++ {
				topo, err := c.topoChained(false)
				if err != nil {
					return 0, err
				}
				res, err := engine.RunNative(topo, engine.NativeConfig{
					System: vt.sys, BatchSize: vt.batch, Seed: seed, Chaining: vt.chain,
				})
				if err != nil {
					return 0, err
				}
				if eps := float64(res.SourceEvents) / res.ElapsedSeconds; eps > best {
					best = eps
				}
			}
			return best, nil
		}
		addRow := func(effect string, base, opt variant) error {
			sb, err := simT(base)
			if err != nil {
				return err
			}
			so, err := simT(opt)
			if err != nil {
				return err
			}
			nb, err := natT(base)
			if err != nil {
				return err
			}
			no, err := natT(opt)
			if err != nil {
				return err
			}
			simR, natR := so/sb, no/nb
			v.Rows = append(v.Rows, NativeEffectRow{
				App: c.App, System: c.System, Effect: effect,
				SimRatio: simR, NativeRatio: natR,
				RelErr: abs(natR-simR) / simR,
			})
			return nil
		}

		// Batching: S=4 over S=1 on the cell's own profile.
		if err := addRow("batching", variant{sys: sys, batch: 1}, variant{sys: sys, batch: 4}); err != nil {
			return nil, err
		}
		// Ack tracking: off over on (the cost of Storm-style tuple
		// tracking), measured at S=4 where transfer cost doesn't dominate.
		sysOn, sysOff := sys, sys
		sysOn.AckEnabled = true
		if sysOn.AckerExecutors <= 0 {
			sysOn.AckerExecutors = 1
		}
		sysOff.AckEnabled = false
		if err := addRow("ack", variant{sys: sysOn, batch: 4}, variant{sys: sysOff, batch: 4}); err != nil {
			return nil, err
		}
		// Chaining: fused over unfused, only when the topology has a
		// chainable pair (otherwise the ratio is trivially 1).
		topo, err := c.topoChained(false)
		if err != nil {
			return nil, err
		}
		if _, fused, err := engine.ChainTopology(topo); err != nil {
			return nil, err
		} else if len(fused) > 0 {
			if err := addRow("chaining",
				variant{sys: sys, batch: 4},
				variant{sys: sys, batch: 4, chain: true}); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

// topoChained builds the cell's topology, optionally chained, ignoring the
// cell's own Chaining flag (the validation loop toggles it per variant).
func (c Cell) topoChained(chain bool) (*engine.Topology, error) {
	cc := c
	cc.Chaining = chain
	return cc.Topology()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
