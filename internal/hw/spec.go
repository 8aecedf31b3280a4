package hw

import (
	"fmt"

	"streamscale/internal/sim"
)

// CacheSpec sizes one cache level.
type CacheSpec struct {
	CapacityBytes int
	BlockBytes    int
	Assoc         int
}

// TLBSpec sizes one TLB.
type TLBSpec struct {
	Entries int
	Assoc   int
}

// LatencySpec holds load-to-use latencies in cycles for each level of the
// memory hierarchy (uncontended; DRAM adds queueing under load).
type LatencySpec struct {
	L2         sim.Cycles // L1 miss served by L2
	LLC        sim.Cycles // L2 miss served by LLC
	LocalDRAM  sim.Cycles // LLC miss served by local memory
	RemoteDRAM sim.Cycles // LLC miss served by a remote socket's memory
	STLBHit    sim.Cycles // first-level TLB miss that hits the STLB
	PageWalk   sim.Cycles // STLB miss page walk
}

// DecodeSpec holds front-end decode-path costs. Every fetched block pays
// legacy decode: the model has no decoded-µop cache (D-ICache), which DSP
// hot paths never hit (DESIGN.md §6).
type DecodeSpec struct {
	// ILDPerBlock is the instruction-length-decode (and IQ pressure) cost
	// of legacy-decoding one instruction block.
	ILDPerBlock sim.Cycles
	// IDQPerBlock is the decode-queue cost of the same event.
	IDQPerBlock sim.Cycles
	// SwitchPenalty is charged on each L1I miss, when the front-end
	// switches between the µop-cache and legacy decode pipelines.
	SwitchPenalty sim.Cycles
}

// MachineSpec describes a simulated machine. The default corresponds to
// Table III of the paper: a 4-socket Intel Xeon E5-4640 (Sandy Bridge EP).
type MachineSpec struct {
	Sockets        int
	CoresPerSocket int
	ClockHz        int64

	L1I CacheSpec
	L1D CacheSpec
	L2  CacheSpec
	LLC CacheSpec // per socket

	ITLB TLBSpec
	DTLB TLBSpec
	STLB TLBSpec

	PageBytes int // 4096, or 2 MB with huge pages enabled

	Latency LatencySpec
	Decode  DecodeSpec

	// LocalBWBytesPerCycle is the per-socket DRAM bandwidth
	// (51.2 GB/s at 2.4 GHz = 21.33 B/cycle).
	LocalBWBytesPerCycle float64
	// QPIBWBytesPerCycle is the bandwidth of one QPI link direction
	// (8 GB/s of the 16 GB/s bidirectional pair = 3.33 B/cycle).
	QPIBWBytesPerCycle float64

	// MispredictPenalty is the pipeline flush cost of one branch
	// misprediction.
	MispredictPenalty sim.Cycles
	// CyclesPerUop is the retirement-limited cost of one µop on an
	// otherwise unstalled out-of-order core (issue width 4, sustained
	// IPC ~2.9 for this class of code).
	CyclesPerUop float64
}

// TableIII returns the machine from the paper's Table III.
func TableIII() MachineSpec {
	return MachineSpec{
		Sockets:        4,
		CoresPerSocket: 8,
		ClockHz:        2_400_000_000,

		// Instruction-side state is tracked at 512 B block granularity: the
		// model charges fetch/decode per block, trading tag-level fidelity
		// for simulation speed while preserving capacity behaviour.
		L1I: CacheSpec{CapacityBytes: 32 << 10, BlockBytes: 512, Assoc: 8},
		L1D: CacheSpec{CapacityBytes: 32 << 10, BlockBytes: 64, Assoc: 8},
		L2:  CacheSpec{CapacityBytes: 256 << 10, BlockBytes: 64, Assoc: 8},
		LLC: CacheSpec{CapacityBytes: 20 << 20, BlockBytes: 64, Assoc: 20},

		ITLB: TLBSpec{Entries: 128, Assoc: 4},
		DTLB: TLBSpec{Entries: 64, Assoc: 4},
		STLB: TLBSpec{Entries: 512, Assoc: 4},

		PageBytes: 4096,

		Latency: LatencySpec{
			L2:         12,
			LLC:        40,
			LocalDRAM:  180,
			RemoteDRAM: 310,
			STLBHit:    7,
			PageWalk:   45,
		},
		Decode: DecodeSpec{
			ILDPerBlock:   5,
			IDQPerBlock:   4,
			SwitchPenalty: 7,
		},

		LocalBWBytesPerCycle: 51.2e9 / 2.4e9,
		QPIBWBytesPerCycle:   8.0e9 / 2.4e9,

		MispredictPenalty: 17,
		CyclesPerUop:      0.34,
	}
}

// TotalCores returns the machine's core count.
func (s MachineSpec) TotalCores() int { return s.Sockets * s.CoresPerSocket }

// Slice resolves the part of a machine with the given shape that a run
// enables: the first sockets sockets, then the first cores cores of those
// (the paper's 1–8-core sweep within one socket). A sockets value that is
// not positive or exceeds the machine's means every socket; a cores value
// that is not positive or reaches those sockets' core count means all of
// them. It returns the socket count and the enabled core count n; the
// enabled cores are 0 to n-1, so the last socket they cover may be partial.
func Slice(machineSockets, coresPerSocket, sockets, cores int) (int, int) {
	if sockets <= 0 || sockets > machineSockets {
		sockets = machineSockets
	}
	n := sockets * coresPerSocket
	if cores > 0 && cores < n {
		n = cores
	}
	return sockets, n
}

// Validate rejects machine shapes the models downstream would turn into
// +Inf or NaN bottlenecks (zero sockets make every per-socket bound divide
// by zero; zero link bandwidth prices any crossing byte as infinite). It
// checks only the fields the analytical cost models consume, so a spec
// carved from TableIII by a variant always passes; anything constructed by
// hand is caught at calibration time with a descriptive error instead of a
// poisoned ranking.
func (s MachineSpec) Validate() error {
	checks := []struct {
		name string
		bad  bool
	}{
		{"sockets", s.Sockets <= 0},
		{"cores per socket", s.CoresPerSocket <= 0},
		{"clock rate", s.ClockHz <= 0},
		{"local DRAM bandwidth", s.LocalBWBytesPerCycle <= 0},
		{"QPI link bandwidth", s.QPIBWBytesPerCycle <= 0},
		{"local DRAM latency", s.Latency.LocalDRAM <= 0},
		{"remote DRAM latency", s.Latency.RemoteDRAM <= 0},
		{"LLC block size", s.LLC.BlockBytes <= 0},
	}
	for _, c := range checks {
		if c.bad {
			return fmt.Errorf("hw: machine spec has zero or negative %s", c.name)
		}
	}
	if s.Latency.RemoteDRAM < s.Latency.LocalDRAM {
		return fmt.Errorf("hw: machine spec has remote DRAM latency %d below local %d",
			s.Latency.RemoteDRAM, s.Latency.LocalDRAM)
	}
	return nil
}

// Variant returns a named machine-spec variant. The empty name is the
// Table III baseline; the others reshape it along one axis at a time so
// sweeps can attribute differences to a single hardware parameter. Core
// count, aggregate LLC, and aggregate DRAM bandwidth are conserved where
// the shape allows it (a socket carries its proportional share), so
// "2x16" vs "8x4" isolates NUMA topology rather than total capacity.
// The bool reports whether the name is known.
func Variant(name string) (MachineSpec, bool) {
	s := TableIII()
	switch name {
	case "":
		// Table III as-is.
	case "2x16":
		// Two fat sockets: same 32 cores, LLC and DRAM channels
		// consolidated pairwise, half as many QPI crossings possible.
		s.Sockets, s.CoresPerSocket = 2, 16
		s.LLC.CapacityBytes *= 2
		s.LocalBWBytesPerCycle *= 2
	case "8x4":
		// Eight thin sockets: same 32 cores spread over twice the NUMA
		// domains, each with half the cache and memory bandwidth.
		s.Sockets, s.CoresPerSocket = 8, 4
		s.LLC.CapacityBytes /= 2
		s.LocalBWBytesPerCycle /= 2
	case "turbo":
		// Same machine at 3.2 GHz: absolute DRAM/QPI bandwidth is
		// unchanged, so the per-cycle figures shrink and memory-bound
		// workloads gain nothing.
		s.ClockHz = 3_200_000_000
		s.LocalBWBytesPerCycle = 51.2e9 / 3.2e9
		s.QPIBWBytesPerCycle = 8.0e9 / 3.2e9
	case "slowmem":
		// Higher-latency, lower-bandwidth DRAM (cheap DIMM population).
		s.Latency.LocalDRAM = 280
		s.Latency.RemoteDRAM = 480
		s.LocalBWBytesPerCycle *= 0.75
	case "fatlink":
		// Doubled interconnect bandwidth per link direction.
		s.QPIBWBytesPerCycle *= 2
	default:
		return MachineSpec{}, false
	}
	return s, true
}

// VariantNames lists the spec-variant names Variant accepts, baseline
// first, in the fixed order sweeps iterate them.
func VariantNames() []string {
	return []string{"", "2x16", "8x4", "turbo", "slowmem", "fatlink"}
}

// WithHugePages returns the spec with 2 MB pages.
func (s MachineSpec) WithHugePages() MachineSpec {
	s.PageBytes = 2 << 20
	return s
}
