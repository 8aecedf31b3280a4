package apps

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// denseBloom is the decaying Bloom filter with every cell allocated up
// front: the reference the chunked filter must match bit for bit.
type denseBloom struct {
	cells  []float64
	stamps []int64
	hashes int
	beta   float64
	now    int64
}

func (f *denseBloom) idx(key string, i int) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{byte(i)})
	return int(h.Sum64() % uint64(len(f.cells)))
}

func (f *denseBloom) decayed(c int) float64 {
	dt := f.now - f.stamps[c]
	if dt <= 0 {
		return f.cells[c]
	}
	return f.cells[c] * math.Pow(f.beta, float64(dt))
}

func (f *denseBloom) estimate(key string) float64 {
	min := math.Inf(1)
	for i := 0; i < f.hashes; i++ {
		if v := f.decayed(f.idx(key, i)); v < min {
			min = v
		}
	}
	return min
}

// TestBloomChunksMatchDense drives the chunked filter and the dense
// reference through the same random Advance/Add/Estimate sequences —
// including estimates of keys whose chunks were never added to, at clocks
// before and after zero — and requires bit-equal estimates.
func TestBloomChunksMatchDense(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cells, hashes := 1+rng.Intn(3*bloomChunk), 1+rng.Intn(4)
		halfLife := 1 + 100*rng.Float64()
		f := NewDecayingBloomFilter(cells, hashes, halfLife)
		ref := &denseBloom{cells: make([]float64, cells), stamps: make([]int64, cells),
			hashes: hashes, beta: math.Exp(-math.Ln2 / halfLife)}
		for op := 0; op < 300; op++ {
			key := fmt.Sprintf("k%d", rng.Intn(40))
			switch rng.Intn(3) {
			case 0:
				now := f.now + int64(rng.Intn(20)) - 3
				f.Advance(now)
				if now > ref.now {
					ref.now = now
				}
			case 1:
				w := rng.Float64() * 3
				f.Add(key, w)
				for i := 0; i < ref.hashes; i++ {
					c := ref.idx(key, i)
					ref.cells[c] = ref.decayed(c) + w
					ref.stamps[c] = ref.now
				}
			default:
				if got, want := f.Estimate(key), ref.estimate(key); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d op %d: Estimate(%q) = %v, dense filter %v", seed, op, key, got, want)
				}
			}
		}
	}
}
