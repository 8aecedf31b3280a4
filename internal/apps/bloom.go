package apps

import (
	"hash/fnv"
	"math"
)

// DecayingBloomFilter is an on-demand time-decaying Bloom filter (Bianchi
// et al., CCR 2011), the data structure the VoIP spam-detection modules
// keep their per-number history in. Cells hold real values that decay
// exponentially with stream time; Add refreshes a key's cells toward 1 and
// Estimate reads the minimum surviving cell value.
//
// Only written cells are stored: a VS filter has 2^17 cells, but an
// executor writes only its keys' cells. A missing cell reads as value 0
// stamped at time 0, which is what a dense filter holds there, so every
// estimate equals the dense one's.
type DecayingBloomFilter struct {
	written map[int]bloomCell
	cells   int
	hashes  int
	// beta is the per-time-unit decay factor.
	beta float64
	now  int64
}

type bloomCell struct {
	v     float64
	stamp int64
}

// NewDecayingBloomFilter creates a filter with the given cell count, hash
// count, and half-life in stream time units.
func NewDecayingBloomFilter(cells, hashes int, halfLife float64) *DecayingBloomFilter {
	if cells <= 0 || hashes <= 0 {
		panic("apps: bloom filter needs positive cells and hashes")
	}
	return &DecayingBloomFilter{
		written: make(map[int]bloomCell),
		cells:   cells,
		hashes:  hashes,
		beta:    math.Exp(-math.Ln2 / halfLife),
	}
}

func (f *DecayingBloomFilter) idx(key string, i int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{byte(i)})
	return int(h.Sum64() % uint64(f.cells))
}

// decayed returns cell c's value at the current time.
func (f *DecayingBloomFilter) decayed(c int) float64 {
	cell := f.written[c]
	dt := f.now - cell.stamp
	if dt <= 0 {
		return cell.v
	}
	return cell.v * math.Pow(f.beta, float64(dt))
}

// Advance moves the filter's clock forward (monotone).
func (f *DecayingBloomFilter) Advance(now int64) {
	if now > f.now {
		f.now = now
	}
}

// Add increments the key's cells by weight (decaying their prior content).
func (f *DecayingBloomFilter) Add(key string, weight float64) {
	for i := 0; i < f.hashes; i++ {
		c := f.idx(key, i)
		f.written[c] = bloomCell{v: f.decayed(c) + weight, stamp: f.now}
	}
}

// Estimate returns the decayed count estimate for the key (the minimum
// over its cells, as in a counting Bloom filter).
func (f *DecayingBloomFilter) Estimate(key string) float64 {
	min := math.Inf(1)
	for i := 0; i < f.hashes; i++ {
		if v := f.decayed(f.idx(key, i)); v < min {
			min = v
		}
	}
	return min
}
