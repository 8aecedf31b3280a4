package engine

import (
	"fmt"

	"streamscale/internal/hw"
	"streamscale/internal/metrics"
	"streamscale/internal/profiler"
	"streamscale/internal/sim"
)

// ExecStat summarizes one executor's run.
type ExecStat struct {
	Op     string
	Index  int
	Socket int // -1 when unplaced / native
	// Tuples is the number of input tuples processed (zero for sources).
	Tuples int64
	// MeanTupleMs is the mean processing time charged per tuple
	// (simulated runtime only) — the paper's Fig 10 "process latency".
	MeanTupleMs float64
	// Invocations counts executor invocations (framework dispatches).
	Invocations int64
	// Barriers counts checkpoint barriers: injected by a source, aligned
	// (snapshotted and forwarded) by any other executor.
	Barriers int64
	// Costs is this executor's share of the run's Table II cycle account
	// (sim only). Summing Costs over Executors reproduces Profile.Costs;
	// the placement cost model calibrates per-executor compute demand and
	// memory-stall composition from it.
	Costs hw.CostVec
}

// Profile returns the executor's cycle account as a profiler.Profile, so
// per-executor breakdowns render exactly like the global ones.
func (e *ExecStat) Profile() *profiler.Profile { return profiler.FromCosts(e.Costs) }

// EdgeStat aggregates the traffic one producer executor delivered to one
// consumer executor's input queue (sim only). Executors are identified by
// global index (see ExecGraph); Bytes counts tuple payload. The placement
// cost model calibrates per-edge communication volumes from these.
type EdgeStat struct {
	From, To int
	// Msgs is delivered messages (batches; EOS and barriers included).
	Msgs int64
	// Tuples is delivered data tuples.
	Tuples int64
	// Bytes is delivered tuple payload bytes.
	Bytes int64
}

// Result is the outcome of one topology run on either runtime.
type Result struct {
	App    string
	System string

	// SourceEvents is the number of events emitted by data sources; the
	// paper's throughput metric counts these.
	SourceEvents int64
	// SinkEvents is the number of tuples received at sink operators.
	SinkEvents int64
	// ElapsedSeconds is wall (native) or simulated (sim) run duration.
	ElapsedSeconds float64
	// WallSeconds is the host wall-clock time the run took to compute.
	// Unlike everything else in Result it is not deterministic; it exists
	// so the harness can report how fast the simulator itself is.
	WallSeconds float64

	// Latency is the end-to-end tuple latency distribution in ms.
	Latency *metrics.Histogram

	// Profile is the processor-time account (simulated runtime only).
	Profile *profiler.Profile
	// ChargedCycles is the hardware model's cycle-conservation ledger:
	// the total cycles its charging methods returned during the run (sim
	// only). It must equal Profile.Costs.Total(); package profiler's
	// conservation test enforces the invariant.
	ChargedCycles sim.Cycles
	// OperatorProfiles breaks the account down per operator (sim only).
	OperatorProfiles map[string]*profiler.Profile
	// CPUUtil is mean core utilization over enabled cores (sim only).
	CPUUtil float64
	// MemUtil is mean DRAM bandwidth utilization over enabled sockets.
	MemUtil float64
	// QPIBytes is total cross-socket traffic (sim only).
	QPIBytes uint64

	// AckerCompleted counts fully XOR-acked tuple trees (Storm profile).
	AckerCompleted int64
	// MinorGCs and GCShare report the collector's activity (sim only).
	MinorGCs int64
	GCShare  float64

	Executors []ExecStat
	// Edges is the per-edge delivered-traffic account (sim only), sorted
	// by (From, To). Together with Executors' Costs it is the calibration
	// input for the placement cost model (internal/place).
	Edges []EdgeStat
}

// Throughput returns source events per second.
func (r *Result) Throughput() metrics.Throughput {
	return metrics.Throughput{Events: r.SourceEvents, Seconds: r.ElapsedSeconds}
}

// ExecStatsFor returns the stats of all executors of one operator.
func (r *Result) ExecStatsFor(op string) []ExecStat {
	var out []ExecStat
	for _, e := range r.Executors {
		if e.Op == op {
			out = append(out, e)
		}
	}
	return out
}

// MeanExecLatencyMs returns the mean and population standard deviation of
// per-executor mean tuple processing latencies for one operator — the two
// series of the paper's Figure 10a.
func (r *Result) MeanExecLatencyMs(op string) (mean, stddev float64) {
	h := metrics.NewHistogram(0)
	for _, e := range r.ExecStatsFor(op) {
		h.Observe(e.MeanTupleMs)
	}
	return h.Mean(), h.Stddev()
}

func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: %s, %d sink events, p50 %.2f ms",
		r.App, r.System, r.Throughput(), r.SinkEvents, r.Latency.Quantile(0.5))
}
