// Package place implements model-guided NUMA placement search: a
// calibrated analytical cost model over per-executor compute demand,
// remote-memory penalties, and interconnect bandwidth, and a deterministic
// branch-and-bound search over full per-executor socket assignments
// (BriskStream's relative-rate approach, built on this repo's cycle-exact
// probe simulations instead of hardware profiling runs).
//
// The model is calibrated from ONE profiled probe simulation per
// (app, system, batch): engine.Result's per-executor Table II cost vectors
// give each executor's cycle demand (with the probe's incidental
// remote-DRAM stalls converted to their local-equivalent), and the
// per-edge traffic account gives the bytes that cross sockets under any
// candidate assignment. Predicting a plan then costs microseconds instead
// of a full simulation; only the top-ranked plans are verified exactly.
package place

import (
	"fmt"
	"math"

	"streamscale/internal/engine"
	"streamscale/internal/hw"
)

// Edge is one producer→consumer executor edge's delivered traffic over
// the probe run (executors by global index, bytes of tuple payload).
type Edge struct {
	From, To int
	Bytes    float64
	Msgs     float64
}

// Model is the calibrated analytical cost model of one workload. All
// cycle quantities are totals over the probe run, so predicted bottleneck
// cycles are directly comparable to the probe's elapsed cycles and convert
// to predicted throughput via SourceEvents and ClockHz.
type Model struct {
	Sockets        int
	CoresPerSocket int
	ClockHz        int64

	// LocalBW and QPIBW are bytes per cycle (per socket / per link
	// direction); RemotePenalty is the extra consumer-side stall cycles
	// per byte when a tuple dereference crosses sockets.
	LocalBW       float64
	QPIBW         float64
	RemotePenalty float64
	// CrossMsgCycles is an optional consumer-side fixed cost per CROSSING
	// message (the queue-slot and header line transfers a crossing
	// delivery pays regardless of payload size — what makes small control
	// messages like acks expensive across sockets). Calibrate leaves it
	// zero: with it set, the joint search, which reads the same model,
	// loses measured wins (DESIGN.md §12). The fast-evaluation tier sets
	// it to two remote DRAM latencies (queue slot line + index line each
	// round-trip), where per-byte pricing alone underprices ack-heavy
	// cross-socket traffic.
	// WithBatch scales it with 1/S (batching coalesces messages);
	// Retarget re-prices it by the remote-latency ratio.
	CrossMsgCycles float64

	// Compute is each executor's local-equivalent cycle demand: its probe
	// cost total with remote LLC-miss stalls re-priced at local latency.
	Compute []float64
	// MemBytes is each executor's DRAM traffic (LLC-miss line transfers).
	MemBytes []float64
	// Invocations and OutMsgs drive the analytical batch-size adjustment.
	Invocations []float64
	OutMsgs     []float64

	Edges []Edge

	// SourceEvents and Batch identify what the probe measured.
	SourceEvents int64
	Batch        int

	// invokeCycles and deliveryCycles are the per-invocation and
	// per-message framework costs used by WithBatch.
	invokeCycles   float64
	deliveryCycles float64
	// interferenceCycles is the per-invocation scheduling delay an
	// executor suffers when its socket runs more executors than cores.
	interferenceCycles float64
	// lineBytes, localLat, and cyclesPerUop record the calibration spec's
	// scalars so Retarget can re-price the model onto a different machine
	// without a second probe.
	lineBytes    float64
	localLat     float64
	cyclesPerUop float64
}

// oversubInterferenceCycles is the modeled per-invocation cost of running
// on a socket with more executors than hardware cores: under the
// simulator's CFS-style scheduler (context switch 7,200 cycles, wake-time
// placement), a hot executor on an oversubscribed socket loses wake-to-run
// delays amortizing to ~200 cycles per invocation. Calibrated against
// probe simulations; without this term every assignment of a workload with
// one dominant executor scores identically and the ranking degenerates.
//
// oversubInterferenceCap bounds the term at a fraction of the executor's
// own compute: a saturated executor drains many queued tuples per wakeup,
// so its loss is preemption-rate bound (~8% of its runtime), not
// per-invocation. The cap keeps aggregate-bound crowding plans — whose
// score is the socket compute-over-cores bound, which interference never
// touches — competitive, matching the simulator, while still breaking the
// serial-bottleneck tie the term exists for. At the fd calibration point
// the two expressions cross (200 cyc x 10,000 invocations vs 8% of 2.5e7
// compute cycles), so the cap is inert exactly where the per-invocation
// slope was measured.
const (
	oversubInterferenceCycles = 200.0
	oversubInterferenceCap    = 0.08
)

// N returns the executor count.
func (m *Model) N() int { return len(m.Compute) }

// Calibrate builds the cost model from a probe simulation's result.
// res.Executors must be in global-index order (engine.RunSim emits them
// that way) and res must carry the per-executor cost vectors and edge
// traffic of a simulated run.
func Calibrate(res *engine.Result, spec hw.MachineSpec, sys engine.SystemProfile, batch int) (*Model, error) {
	n := len(res.Executors)
	if n == 0 {
		return nil, fmt.Errorf("place: probe result has no executor stats")
	}
	if len(res.Edges) == 0 && n > 1 {
		return nil, fmt.Errorf("place: probe result has no edge traffic account")
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("place: calibration spec: %w", err)
	}
	if batch <= 0 {
		batch = 1
	}
	local := float64(spec.Latency.LocalDRAM)
	remote := float64(spec.Latency.RemoteDRAM)
	line := float64(spec.LLC.BlockBytes)
	m := &Model{
		Sockets:            spec.Sockets,
		CoresPerSocket:     spec.CoresPerSocket,
		ClockHz:            spec.ClockHz,
		LocalBW:            spec.LocalBWBytesPerCycle,
		QPIBW:              spec.QPIBWBytesPerCycle,
		RemotePenalty:      (remote - local) / line,
		Compute:            make([]float64, n),
		MemBytes:           make([]float64, n),
		Invocations:        make([]float64, n),
		OutMsgs:            make([]float64, n),
		SourceEvents:       res.SourceEvents,
		Batch:              batch,
		invokeCycles:       float64(sys.UopsPerInvoke) * spec.CyclesPerUop,
		deliveryCycles:     float64(sys.DeliveryUops) * spec.CyclesPerUop,
		interferenceCycles: oversubInterferenceCycles,
		lineBytes:          line,
		localLat:           local,
		cyclesPerUop:       spec.CyclesPerUop,
	}
	for i := range res.Executors {
		e := &res.Executors[i]
		total := float64(e.Costs.Total())
		rem := float64(e.Costs[hw.BeLLCRemote])
		loc := float64(e.Costs[hw.BeLLCLocal])
		// Local-equivalent demand: the probe's incidental cross-socket
		// stalls re-priced as if served locally. Candidate assignments add
		// their own remote penalties back per crossing edge.
		m.Compute[i] = total - rem + rem*(local/remote)
		m.MemBytes[i] = (loc/local + rem/remote) * line
		m.Invocations[i] = float64(e.Invocations)
	}
	m.Edges = make([]Edge, 0, len(res.Edges))
	for _, ed := range res.Edges {
		if ed.From < 0 || ed.From >= n || ed.To < 0 || ed.To >= n {
			return nil, fmt.Errorf("place: edge %d->%d outside executor range %d", ed.From, ed.To, n)
		}
		m.Edges = append(m.Edges, Edge{
			From: ed.From, To: ed.To,
			Bytes: float64(ed.Bytes), Msgs: float64(ed.Msgs),
		})
		m.OutMsgs[ed.From] += float64(ed.Msgs)
	}
	return m, nil
}

// WithBatch returns a model adjusted to predict the workload at a new
// batch size without a second probe: invocation and per-message delivery
// overheads scale with 1/batch (Algorithm 1 batching amortizes the
// framework's per-dispatch work), while per-byte and per-tuple costs are
// unchanged. Calibrated from a batch-1 probe this reproduces the batching
// gain analytically; the verified plans are still simulated at the real
// batch size, so model error here only affects ranking.
func (m *Model) WithBatch(batch int) *Model {
	if batch <= 0 {
		batch = 1
	}
	if batch == m.Batch {
		return m
	}
	out := *m
	out.Batch = batch
	out.Compute = make([]float64, m.N())
	ratio := 1 - float64(m.Batch)/float64(batch)
	if ratio < 0 {
		ratio = 0 // coarser probe than target: no savings modeled
	}
	for i, c := range m.Compute {
		saved := m.Invocations[i]*ratio*m.invokeCycles + m.OutMsgs[i]*ratio*m.deliveryCycles
		if saved > 0.9*c {
			saved = 0.9 * c // overheads never exceed the executor's total
		}
		out.Compute[i] = c - saved
	}
	// Batching coalesces deliveries, so the probe's per-message crossing
	// cost amortizes the same way the delivery overhead does.
	out.CrossMsgCycles = m.CrossMsgCycles * float64(m.Batch) / float64(batch)
	return &out
}

// Retarget returns a model re-priced for a different machine spec without
// a second probe. Per-executor µop work is clock-rate invariant (cycles
// per µop comes from the spec), so only the memory-stall component moves:
// each DRAM line the probe observed is re-priced at the new local latency,
// and the framework per-invocation/per-message costs rescale with the new
// retirement rate. Bandwidths, socket shape, and the remote penalty come
// from the new spec. The probe's traffic volumes (lines, edge bytes,
// invocation counts) are workload properties and carry over unchanged;
// capacity effects the probe never observed (a smaller LLC missing more)
// are NOT modeled, which is why retargeted estimates carry extra
// uncertainty in the fast tier.
func (m *Model) Retarget(spec hw.MachineSpec) *Model {
	local := float64(spec.Latency.LocalDRAM)
	remote := float64(spec.Latency.RemoteDRAM)
	line := float64(spec.LLC.BlockBytes)
	out := *m
	out.Sockets = spec.Sockets
	out.CoresPerSocket = spec.CoresPerSocket
	out.ClockHz = spec.ClockHz
	out.LocalBW = spec.LocalBWBytesPerCycle
	out.QPIBW = spec.QPIBWBytesPerCycle
	out.RemotePenalty = (remote - local) / line
	if oldRemote := m.localLat + m.RemotePenalty*m.lineBytes; m.CrossMsgCycles != 0 && oldRemote > 0 {
		out.CrossMsgCycles = m.CrossMsgCycles * remote / oldRemote
	}
	if m.cyclesPerUop > 0 {
		r := spec.CyclesPerUop / m.cyclesPerUop
		out.invokeCycles = m.invokeCycles * r
		out.deliveryCycles = m.deliveryCycles * r
	}
	out.Compute = make([]float64, m.N())
	out.MemBytes = make([]float64, m.N())
	dLat := local - m.localLat
	for i := range m.Compute {
		var lines float64
		if m.lineBytes > 0 {
			lines = m.MemBytes[i] / m.lineBytes
		}
		c := m.Compute[i] + lines*dLat
		// A latency drop can never erase an executor's non-memory work:
		// keep at least the compute that was not stall-priced.
		if floor := 0.1 * m.Compute[i]; c < floor {
			c = floor
		}
		out.Compute[i] = c
		out.MemBytes[i] = lines * line
	}
	out.lineBytes = line
	out.localLat = local
	out.cyclesPerUop = spec.CyclesPerUop
	return &out
}

// Bottleneck returns the predicted bottleneck cycles of one full
// assignment (executor global index -> socket) on the whole machine:
// BottleneckOn with no slice restriction.
func (m *Model) Bottleneck(assign []int) float64 { return m.BottleneckOn(assign, 0, 0) }

// crossing returns the consumer-side stall cycles edge e costs when its
// endpoints sit on different sockets: the per-byte remote penalty plus the
// fixed per-message cost.
func (m *Model) crossing(e Edge) float64 {
	return m.RemotePenalty*e.Bytes + m.CrossMsgCycles*e.Msgs
}

// interference returns executor i's total scheduling-delay cycles when
// its socket is oversubscribed. Batching reduces invocation counts, so the
// probe's batch-1 invocation total scales down with the model's batch; the
// cap (a fraction of the executor's own compute) is batch-independent.
func (m *Model) interference(i int) float64 {
	d := m.interferenceCycles * m.Invocations[i] / float64(m.Batch)
	if lim := oversubInterferenceCap * m.Compute[i]; d > lim {
		return lim
	}
	return d
}

// BottleneckOn returns the predicted bottleneck cycles of one full
// assignment (executor global index -> socket) on a machine slice: the
// max over every executor's serial demand (one thread cannot split across
// cores), every socket's compute demand spread over its enabled cores,
// every socket's DRAM traffic against local bandwidth, and every directed
// socket pair's crossing traffic against one QPI link. Lower is better;
// the minimum over assignments is the model's choice.
//
// The first `sockets` sockets are enabled (0 or out of range = all), and a
// nonzero `cores` further restricts the slice to the machine's first n
// cores, so the last covered socket may run only a few (exactly the
// simulator's SimConfig.Sockets/Cores semantics). The oversubscription
// interference term triggers against the enabled core count; DRAM
// bandwidth is per socket and does not shrink with disabled cores. An
// executor assigned to a socket with no enabled cores is infeasible and
// scores +Inf.
func (m *Model) BottleneckOn(assign []int, sockets, cores int) float64 {
	n := m.N()
	if len(assign) != n {
		panic(fmt.Sprintf("place: assignment length %d != %d executors", len(assign), n))
	}
	if sockets <= 0 || sockets > m.Sockets {
		sockets = m.Sockets
	}
	enabled := sockets * m.CoresPerSocket
	if cores > 0 && cores < enabled {
		enabled = cores
	}
	coresOn := func(s int) int {
		c := enabled - s*m.CoresPerSocket
		if c > m.CoresPerSocket {
			c = m.CoresPerSocket
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	perExec := make([]float64, n)
	copy(perExec, m.Compute)
	sockCompute := make([]float64, m.Sockets)
	sockMem := make([]float64, m.Sockets)
	sockCount := make([]int, m.Sockets)
	qpi := make([]float64, m.Sockets*m.Sockets)
	for _, s := range assign {
		if s < 0 || s >= m.Sockets || coresOn(s) == 0 {
			return math.Inf(1)
		}
	}
	for _, e := range m.Edges {
		if assign[e.From] != assign[e.To] {
			perExec[e.To] += m.crossing(e)
			qpi[assign[e.From]*m.Sockets+assign[e.To]] += e.Bytes
		}
	}
	for i, s := range assign {
		sockCompute[s] += perExec[i]
		sockMem[s] += m.MemBytes[i]
		sockCount[s]++
	}
	// Oversubscription interference: a socket with more executors than
	// cores time-shares, and every resident pays scheduling delays on each
	// invocation (kept out of the socket compute aggregate: switch costs
	// delay the executor, they do not add throughput-relevant core work).
	for i, s := range assign {
		if sockCount[s] > coresOn(s) {
			perExec[i] += m.interference(i)
		}
	}
	var b float64
	for _, c := range perExec {
		b = maxf(b, c)
	}
	for s := 0; s < m.Sockets; s++ {
		if c := coresOn(s); c > 0 {
			b = maxf(b, sockCompute[s]/float64(c))
		}
		b = maxf(b, sockMem[s]/m.LocalBW)
	}
	for _, bytes := range qpi {
		b = maxf(b, bytes/m.QPIBW)
	}
	return b
}

// PredictThroughputOn converts a slice-aware predicted bottleneck to
// events per second.
func (m *Model) PredictThroughputOn(assign []int, sockets, cores int) float64 {
	b := m.BottleneckOn(assign, sockets, cores)
	if b <= 0 || math.IsInf(b, 1) {
		return 0
	}
	return float64(m.SourceEvents) * float64(m.ClockHz) / b
}

// PredictThroughput converts a predicted bottleneck on the whole machine
// to events per second.
func (m *Model) PredictThroughput(assign []int) float64 { return m.PredictThroughputOn(assign, 0, 0) }

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
