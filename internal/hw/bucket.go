// Package hw models the processor and memory system of a multi-socket
// multi-core machine: per-core L1I/L1D/L2 caches and TLBs, per-socket
// last-level caches, per-socket DRAM channels, and QPI links between
// sockets. Every cycle the model charges is attributed to one of the
// measurement components of Table II in the paper, so an execution can be
// broken down exactly the way the paper's VTune methodology does.
package hw

import "streamscale/internal/sim"

// Bucket identifies one measurement component from Table II of the paper.
type Bucket int

const (
	// TC is effective computation time (issued µops that retire).
	TC Bucket = iota
	// TBr is branch misprediction stall time.
	TBr
	// FeITLB is front-end stall time due to ITLB misses.
	FeITLB
	// FeL1I is front-end stall time due to L1 instruction cache misses.
	FeL1I
	// FeILD is instruction length decoder (and IQ-full) stall time.
	FeILD
	// FeIDQ is instruction decode queue stall time (legacy decode of
	// every fetched block, plus the pipeline switch penalty of L1I
	// misses).
	FeIDQ
	// BeDTLB is back-end stall time due to DTLB misses.
	BeDTLB
	// BeL1D is stall time due to L1 data cache misses that hit L2.
	BeL1D
	// BeL2 is stall time due to L2 misses that hit the LLC.
	BeL2
	// BeLLCLocal is stall time due to LLC misses served by local memory.
	BeLLCLocal
	// BeLLCRemote is stall time due to LLC misses served by another
	// socket's memory across QPI.
	BeLLCRemote

	// NumBuckets is the number of measurement components.
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"computation", "branch-misprediction",
	"itlb", "l1i-miss", "ild", "idq",
	"dtlb", "l1d-miss", "l2-miss", "llc-miss-local", "llc-miss-remote",
}

func (b Bucket) String() string {
	if b >= 0 && b < NumBuckets {
		return bucketNames[b]
	}
	return "bucket(?)"
}

// CostVec accumulates cycles per measurement component.
type CostVec [NumBuckets]sim.Cycles

// Add charges c cycles to bucket b.
func (v *CostVec) Add(b Bucket, c sim.Cycles) { v[b] += c }

// AddVec accumulates another cost vector into v.
func (v *CostVec) AddVec(o *CostVec) {
	for i := range v {
		v[i] += o[i]
	}
}

// Total returns the sum over all buckets.
func (v *CostVec) Total() sim.Cycles {
	var t sim.Cycles
	for _, c := range v {
		t += c
	}
	return t
}

// FrontEnd returns total front-end stall time (TFe).
func (v *CostVec) FrontEnd() sim.Cycles { return v.GroupTotal(GroupFrontEnd) }

// BackEnd returns total back-end stall time (TBe).
func (v *CostVec) BackEnd() sim.Cycles { return v.GroupTotal(GroupBackEnd) }

// GroupTotal returns the sum over the buckets belonging to group g.
func (v *CostVec) GroupTotal(g BucketGroup) sim.Cycles {
	var t sim.Cycles
	for b := Bucket(0); b < NumBuckets; b++ {
		if b.Group() == g {
			t += v[b]
		}
	}
	return t
}

// BucketGroup is one of the paper's four top-level execution-time
// components (Figure 7): effective computation, bad speculation, and
// front-end and back-end stalls.
type BucketGroup int

const (
	GroupComputation BucketGroup = iota
	GroupBadSpec
	GroupFrontEnd
	GroupBackEnd
	// NumGroups is the number of top-level components.
	NumGroups
)

var groupNames = [NumGroups]string{"computation", "bad-speculation", "front-end", "back-end"}

func (g BucketGroup) String() string {
	if g >= 0 && g < NumGroups {
		return groupNames[g]
	}
	return "group(?)"
}

// Group returns the top-level component b belongs to. Every bucket belongs
// to exactly one group, so the groups partition total accounted time; the
// switch must stay exhaustive (dsplint's bucketswitch analyzer rejects a
// new bucket that is not classified here), and an out-of-range value is a
// caller bug worth a panic rather than a silent misattribution.
func (b Bucket) Group() BucketGroup {
	switch b {
	case TC:
		return GroupComputation
	case TBr:
		return GroupBadSpec
	case FeITLB, FeL1I, FeILD, FeIDQ:
		return GroupFrontEnd
	case BeDTLB, BeL1D, BeL2, BeLLCLocal, BeLLCRemote:
		return GroupBackEnd
	default:
		panic("hw: Group of out-of-range bucket " + b.String())
	}
}
