package engine

import "streamscale/internal/sim"

// CodeRegion is a chunk of JIT-compiled framework code executed on the hot
// path of every executor invocation. Regions are materialized into the
// simulated code address space at runtime-build time.
type CodeRegion struct {
	Name  string
	Bytes int
}

// ColdRegion is framework code executed only periodically — metrics
// flushing, reconnect paths, JIT recompilation, safepoint cleanup. Cold
// regions produce the multi-megabyte tail of the paper's Figure 9
// instruction-footprint CDF and pollute the instruction caches when they
// run.
type ColdRegion struct {
	Name string
	// Bytes of code touched per occurrence.
	Bytes int
	// Every is the period in invocations between occurrences (per executor).
	Every int
}

// SystemProfile captures the engine-level design differences between the
// two studied systems. Both share the three common design aspects; they
// differ in platform code footprint, reliability mechanism (tuple acking
// vs. checkpoint barriers), and framework overhead per message.
type SystemProfile struct {
	Name string

	// HotRegions is the framework code executed on every invocation
	// (dispatch loop, queue operations, serialization, routing).
	HotRegions []CodeRegion
	// ColdRegions is periodically executed framework code.
	ColdRegions []ColdRegion

	// UopsPerInvoke is framework computation per executor invocation
	// (dequeue, dispatch, context bookkeeping).
	UopsPerInvoke int
	// UopsPerTuple is framework computation per tuple moved (routing,
	// field access, ack bookkeeping).
	UopsPerTuple int
	// BranchesPerTuple is framework branch pressure per tuple.
	BranchesPerTuple int
	// MispredictRate is the misprediction probability per counted branch.
	MispredictRate float64

	// QueueCap is the bounded executor input queue capacity, in messages
	// (0 = 1024). The native runtime splits it across a consumer's
	// producer rings.
	QueueCap int

	// AckEnabled adds Storm-style XOR tuple-tracking acker executors and
	// per-tuple ack messages.
	AckEnabled bool
	// AckerExecutors is the acker parallelism when acking is enabled.
	AckerExecutors int

	// DeliveryUops is framework computation per delivered batch (network
	// buffer claim/publish, channel selection). Batching amortizes it.
	DeliveryUops int
	// DeliveryUopsPerByte is the per-byte (de)serialization cost of moving
	// a batch between executors. Flink 1.0 serializes records into network
	// buffers even locally; Storm passes references within a worker.
	DeliveryUopsPerByte float64

	// CheckpointInterval injects Flink-style checkpoint barriers from the
	// sources every interval of simulated time (0 disables); the native
	// runtime reads it at the Table III clock.
	CheckpointInterval sim.Cycles
	// SnapshotUopsPerStateByte is the cost of snapshotting operator state
	// at a barrier.
	SnapshotUopsPerStateByte float64

	// MetadataAccessesPerTuple models invokevirtual method-table lookups
	// per tuple processed (the paper's §V-D pointer-referencing source of
	// DTLB pressure).
	MetadataAccessesPerTuple int
}

// Storm returns the profile modelled on Apache Storm 1.0.0 with
// acknowledgements enabled, as in the paper's Table III setup. Storm's
// platform instruction footprint is larger (Fig 9 shows its CDF turning
// point near 10 MB and platform-dominated footprints independent of the
// user application).
func Storm() SystemProfile {
	return SystemProfile{
		Name: "storm",
		HotRegions: []CodeRegion{
			{Name: "executor-loop", Bytes: 13 << 10},
			{Name: "disruptor-queue", Bytes: 11 << 10},
			{Name: "tuple-serde", Bytes: 12 << 10},
			{Name: "routing-ack", Bytes: 11 << 10},
		},
		ColdRegions: []ColdRegion{
			{Name: "metrics", Bytes: 160 << 10, Every: 1_500},
			{Name: "heartbeat-zk", Bytes: 900 << 10, Every: 20_000},
			{Name: "jit-deopt-sweep", Bytes: 9 << 20, Every: 250_000},
		},
		UopsPerInvoke:            900,
		UopsPerTuple:             700,
		BranchesPerTuple:         30,
		MispredictRate:           0.04,
		QueueCap:                 1024,
		DeliveryUops:             250,
		DeliveryUopsPerByte:      0.2,
		AckEnabled:               true,
		AckerExecutors:           1,
		MetadataAccessesPerTuple: 3,
	}
}

// Flink returns the profile modelled on Apache Flink 1.0.2 with
// checkpointing enabled, as in the paper's Table III setup. Flink's
// platform footprint is smaller (Fig 9 turning point near 1 MB) and it
// tracks progress with checkpoint barriers instead of per-tuple acks.
func Flink() SystemProfile {
	return SystemProfile{
		Name: "flink",
		HotRegions: []CodeRegion{
			{Name: "task-loop", Bytes: 11 << 10},
			{Name: "network-buffers", Bytes: 10 << 10},
			{Name: "record-serde", Bytes: 10 << 10},
			{Name: "channel-selector", Bytes: 7 << 10},
		},
		ColdRegions: []ColdRegion{
			{Name: "metrics", Bytes: 90 << 10, Every: 1_500},
			{Name: "checkpoint-coordinator", Bytes: 300 << 10, Every: 20_000},
			{Name: "jit-deopt-sweep", Bytes: 1 << 20, Every: 250_000},
		},
		UopsPerInvoke:       700,
		UopsPerTuple:        500,
		BranchesPerTuple:    22,
		MispredictRate:      0.04,
		QueueCap:            1024,
		DeliveryUops:        900,
		DeliveryUopsPerByte: 1.4,
		AckEnabled:          false,
		// The real deployment checkpoints every 500 ms over hour-long
		// runs; simulation cells run tens of simulated milliseconds, so
		// the interval is scaled to keep checkpoints-per-event realistic.
		CheckpointInterval:       48_000_000, // 20 ms at 2.4 GHz
		SnapshotUopsPerStateByte: 1.2,
		MetadataAccessesPerTuple: 2,
	}
}

// HotBytes returns the total hot platform code size.
func (p SystemProfile) HotBytes() int {
	n := 0
	for _, r := range p.HotRegions {
		n += r.Bytes
	}
	return n
}
