// Package engine implements a data stream processing engine organized
// around the three design aspects the paper studies: pipelined processing
// with pass-by-reference message passing, on-demand data parallelism
// (per-operator executor counts with grouping strategies), and a JVM-style
// runtime (garbage-collected tuple allocation, pointer-chasing data access).
//
// A Topology is a graph of operators built with NewTopology. One executor
// core (executor.go) runs it on two runtimes: RunNative uses real
// goroutines and lock-free rings and measures wall-clock performance;
// RunSim executes the same operators on a simulated multi-socket machine
// (internal/sim + internal/hw) and produces the cycle-accurate breakdowns
// of the paper's methodology.
package engine

import (
	"fmt"
)

// Value is one tuple field. Supported dynamic types for fields-grouping
// hashing are string, int, int32, int64, uint64, float64 and bool; any
// other type may be carried but not used as a grouping key.
type Value = any

// Tuple is one unit of data flowing between operators. Tuples are passed by
// reference: Addr/Size locate the simulated payload the receiving operator
// dereferences (zero under the native runtime).
type Tuple struct {
	Values []Value

	// Addr is the simulated address of the payload (sim runtime only).
	Addr uint64
	// Size is the estimated payload size in bytes.
	Size int32
	// Born is the tuple tree's birth time: cycles (sim) or ns (native).
	Born int64
	// Root identifies the source tuple this descends from (acking).
	Root int64
	// Edge is this tuple's random edge ID for XOR ack tracking.
	Edge int64
	// EmitAt is the simulated instant this tuple was emitted into its
	// producer's output buffer (sim runtime only) — the start of its
	// batch/delivery residency in the trace's deliver spans.
	EmitAt int64
}

// String renders a tuple for debugging.
func (t Tuple) String() string { return fmt.Sprintf("Tuple%v", t.Values) }

// ValueBytes estimates the serialized/heap size of one field value,
// mirroring Java object sizes (8-byte primitives, strings with headers).
func ValueBytes(v Value) int {
	switch x := v.(type) {
	case nil:
		return 8
	case bool, int8, uint8:
		return 8
	case int, int32, int64, uint32, uint64, float32, float64:
		return 8
	case string:
		return 24 + len(x) // String header + char data (compact strings)
	case []byte:
		return 24 + len(x)
	case []Value:
		n := 24
		for _, e := range x {
			n += ValueBytes(e)
		}
		return n
	default:
		return 16
	}
}

// TupleBytes estimates a tuple's payload size: a fields array plus each
// boxed value.
func TupleBytes(values []Value) int {
	n := 24 + 8*len(values) // Object[] header + references
	for _, v := range values {
		n += ValueBytes(v)
	}
	return n
}
