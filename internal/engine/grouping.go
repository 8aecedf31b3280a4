package engine

import (
	"fmt"
	"math"
)

// GroupKind enumerates the stream partitioning strategies of §II-B.
type GroupKind int

const (
	// GroupShuffle distributes tuples uniformly (round-robin) across the
	// consumer's executors.
	GroupShuffle GroupKind = iota
	// GroupFields routes by the hash of selected key fields, so the same
	// key always reaches the same executor.
	GroupFields
	// GroupGlobal sends every tuple to executor 0 of the consumer.
	GroupGlobal
	// GroupAll replicates every tuple to all executors of the consumer.
	GroupAll
)

func (k GroupKind) String() string {
	switch k {
	case GroupShuffle:
		return "shuffle"
	case GroupFields:
		return "fields"
	case GroupGlobal:
		return "global"
	case GroupAll:
		return "all"
	}
	return fmt.Sprintf("grouping(%d)", int(k))
}

// Grouping selects how a subscription partitions a stream.
type Grouping struct {
	Kind   GroupKind
	Fields []string // key field names, for GroupFields
}

// Shuffle returns a shuffle grouping.
func Shuffle() Grouping { return Grouping{Kind: GroupShuffle} }

// Fields returns a fields (key) grouping on the named fields.
func Fields(fields ...string) Grouping {
	if len(fields) == 0 {
		panic("engine: fields grouping needs at least one field")
	}
	return Grouping{Kind: GroupFields, Fields: fields}
}

// Global returns a global grouping (everything to executor 0).
func Global() Grouping { return Grouping{Kind: GroupGlobal} }

// All returns an all grouping (replicate to every executor).
func All() Grouping { return Grouping{Kind: GroupAll} }

// FNV-1a parameters; the inlined loops below must stay bit-identical to
// hash/fnv's New64a over the same byte sequences (fnvEquivalence test),
// because fields-grouping distributions — and with them every simulated
// result — depend on these exact values.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvU64 is FNV-1a over x's eight little-endian bytes, allocation-free
// (hash/fnv's hasher object escapes; this runs per routed tuple).
func fnvU64(x uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(x >> (8 * i)))
		h *= fnvPrime64
	}
	return h
}

// fnvString is FNV-1a over the string's bytes.
func fnvString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// HashValue hashes one grouping key field. It is stable across runs and
// platforms (FNV-1a), which fields grouping correctness depends on.
func HashValue(v Value) uint64 {
	switch x := v.(type) {
	case string:
		return fnvString(x)
	case int:
		return fnvU64(uint64(x))
	case int32:
		return fnvU64(uint64(x))
	case int64:
		return fnvU64(uint64(x))
	case uint64:
		return fnvU64(x)
	case float64:
		return fnvU64(math.Float64bits(x))
	case bool:
		if x {
			return fnvU64(1)
		}
		return fnvU64(0)
	default:
		panic(fmt.Sprintf("engine: unhashable grouping key type %T", v))
	}
}

// HashFields combines the selected field indices of a tuple into one key
// hash, the paper's Algorithm 1 "Combine" step.
func HashFields(values []Value, idx []int) uint64 {
	var acc uint64 = 1469598103934665603 // FNV offset basis
	for _, i := range idx {
		acc = acc*1099511628211 ^ HashValue(values[i])
	}
	return acc
}

// hashAckRoot is HashFields for a Values-free ack tuple: identical to
// HashFields([]Value{root}, []int{0}) without boxing the root.
func hashAckRoot(root int64) uint64 {
	var acc uint64 = 1469598103934665603
	return acc*1099511628211 ^ fnvU64(uint64(root))
}
