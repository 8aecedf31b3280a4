// Package bench is the experiment harness: it runs (application x system x
// machine-configuration x optimization) cells on the simulated Table III
// server and regenerates every table and figure of the paper's evaluation
// (the per-experiment index lives in DESIGN.md; measured-vs-paper results
// in EXPERIMENTS.md).
package bench

import (
	"fmt"

	"streamscale/internal/apps"
	"streamscale/internal/engine"
	"streamscale/internal/hw"
	"streamscale/internal/jvm"
	"streamscale/internal/trace"
)

// defaultEvents is the per-application source event count for one
// simulation cell — enough to reach steady state (caches warmed, young
// generation wrapped, cold paths touched) while keeping a full sweep fast.
var defaultEvents = map[string]int{
	"wc":   3000,
	"fd":   10000,
	"lg":   4000,
	"sd":   10000,
	"vs":   4000,
	"tm":   150,
	"lr":   6000,
	"null": 20000,
}

// Cell describes one experiment cell.
type Cell struct {
	App    string
	System string // "storm" or "flink"

	// Sockets/Cores select the machine slice (0 = all four sockets).
	Sockets int
	Cores   int

	// BatchSize is the tuple-batching S (0/1 = off).
	BatchSize int
	// Placement pins executors to sockets (nil = OS-spread).
	Placement map[int]int

	// EventScale scales the app's default event count.
	EventScale float64
	// Scale multiplies every operator's tuned parallelism (the paper
	// re-tunes thread counts per machine configuration).
	Scale int
	// Seed defaults to 1.
	Seed int64
	// GC overrides the collector model.
	GC jvm.Config
	// HugePages enables 2 MB pages.
	HugePages bool
	// Chaining applies Flink-style operator chaining before running.
	Chaining bool
	// ParallelismOverride adjusts named operators' executor counts after
	// the app is built (e.g. the Fig 10 Map-Match sweep).
	ParallelismOverride map[string]int
	// Spec selects a named machine-spec variant (hw.Variant; "" = the
	// Table III baseline). HugePages composes on top of it.
	Spec string

	// SourceRate throttles each source executor to the given event rate
	// (events per simulated second); 0 runs closed-loop. Open-loop cells
	// measure latency against the intended arrival schedule
	// (coordinated-omission corrected) unless COUncorrected is set.
	SourceRate float64
	// LatencySampleEvery overrides the sink latency sampling period
	// (0 = runtime default of 8; tail cells use 1 for every-tuple tails).
	LatencySampleEvery int
	// NoAck disables the system profile's ack tracking (e.g. "storm
	// without acks" — the tail experiment's third engine configuration).
	NoAck bool
	// COUncorrected re-enables coordinated omission on open-loop cells
	// (latency against actual emission instants) for ablation tables.
	// Ignored when SourceRate is 0.
	COUncorrected bool
}

// MachineSpec resolves the cell's machine: the named variant with the
// HugePages ablation applied on top.
func (c Cell) MachineSpec() (hw.MachineSpec, error) {
	spec, ok := hw.Variant(c.Spec)
	if !ok {
		return hw.MachineSpec{}, fmt.Errorf("bench: unknown machine spec variant %q (have %v; empty = Table III baseline)", c.Spec, hw.VariantNames()[1:])
	}
	if c.HugePages {
		spec = spec.WithHugePages()
	}
	return spec, nil
}

// SystemProfile returns the engine profile a cell's System names: "storm"
// or "flink". Any other name is an error.
func SystemProfile(name string) (engine.SystemProfile, error) {
	switch name {
	case "storm":
		return engine.Storm(), nil
	case "flink":
		return engine.Flink(), nil
	}
	return engine.SystemProfile{}, fmt.Errorf("bench: unknown system %q", name)
}

// Events returns the cell's event count: the app default scaled by
// EventScale (0 means unscaled), clamped to at least one event so that a
// tiny or negative scale can never feed a non-positive count into
// apps.Build.
func (c Cell) Events() int {
	ev := defaultEvents[c.App]
	if ev == 0 {
		ev = 5000
	}
	if c.EventScale != 0 {
		ev = int(float64(ev) * c.EventScale)
	}
	if ev < 1 {
		ev = 1
	}
	return ev
}

// seed returns the cell's seed: 0 means 1.
func (c Cell) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// appConfig returns the resolved apps.Config the cell builds its app with.
func (c Cell) appConfig() apps.Config {
	return apps.Config{Events: c.Events(), Seed: c.seed(), Scale: c.Scale}.Resolve()
}

// overrides returns the cell's parallelism overrides, each clamped to at
// least 1 (the topology builder panics on a non-positive parallelism), or
// nil when there are none.
func (c Cell) overrides() map[string]int {
	if len(c.ParallelismOverride) == 0 {
		return nil
	}
	out := make(map[string]int, len(c.ParallelismOverride))
	for op, p := range c.ParallelismOverride {
		out[op] = max(p, 1)
	}
	return out
}

// simConfig returns the resolved engine.SimConfig the cell runs under,
// without a tracer. It fails on an unknown system or spec variant, and on
// nothing else.
func (c Cell) simConfig() (engine.SimConfig, error) {
	sys, err := SystemProfile(c.System)
	if err != nil {
		return engine.SimConfig{}, err
	}
	if c.NoAck {
		sys.AckEnabled = false
	}
	spec, err := c.MachineSpec()
	if err != nil {
		return engine.SimConfig{}, err
	}
	return engine.SimConfig{
		System:              sys,
		BatchSize:           c.BatchSize,
		Spec:                spec,
		Sockets:             c.Sockets,
		Cores:               c.Cores,
		Placement:           c.Placement,
		Seed:                c.seed(),
		GC:                  c.GC,
		SourceRate:          c.SourceRate,
		LatencySampleEvery:  c.LatencySampleEvery,
		CoordinatedOmission: c.COUncorrected,
	}.Resolve(), nil
}

// Topology builds the cell's application topology with overrides applied.
func (c Cell) Topology() (*engine.Topology, error) {
	topo, err := apps.Build(c.App, c.appConfig())
	if err != nil {
		return nil, err
	}
	for op, p := range c.overrides() {
		n := topo.Node(op)
		if n == nil {
			return nil, fmt.Errorf("bench: override for unknown operator %q in %s", op, c.App)
		}
		n.Parallelism = p
	}
	if c.Chaining {
		chained, _, err := engine.ChainTopology(topo)
		if err != nil {
			return nil, err
		}
		topo = chained
	}
	return topo, nil
}

// runDirect executes the cell on the simulated machine unconditionally,
// bypassing the memo layer. Run is the memoized entry point (memoize.go);
// the determinism test uses runDirect to prove repeat simulations are
// bit-identical rather than merely pointer-identical.
func runDirect(c Cell) (*engine.Result, error) { return runCell(c, nil) }

// RunTraced executes the cell with the given tracer attached, always
// simulating afresh: a memoized or disk-cached Result carries no trace, so
// traced runs bypass the memo layer entirely (and never pollute it — the
// Result is returned to the caller only). After it returns, the tracer
// holds the run's complete span/timeline/folded streams, ready for Write.
func RunTraced(c Cell, tr *trace.Tracer) (*engine.Result, error) {
	return runCell(c, tr)
}

func runCell(c Cell, tr *trace.Tracer) (*engine.Result, error) {
	cfg, err := c.simConfig()
	if err != nil {
		return nil, err
	}
	topo, err := c.Topology()
	if err != nil {
		return nil, err
	}
	cfg.Trace = tr
	return engine.RunSim(topo, cfg)
}
