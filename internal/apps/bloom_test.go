package apps

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// denseBloom is the decaying Bloom filter with every cell allocated up
// front: the reference the sparse filter must match bit for bit.
type denseBloom struct {
	cells  []float64
	stamps []int64
	hashes int
	beta   float64
	now    int64
}

func newDenseBloom(cells, hashes int, halfLife float64) *denseBloom {
	return &denseBloom{cells: make([]float64, cells), stamps: make([]int64, cells),
		hashes: hashes, beta: math.Exp(-math.Ln2 / halfLife)}
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

func (f *denseBloom) advance(now int64) {
	if now > f.now {
		f.now = now
	}
}

func (f *denseBloom) add(key string, weight float64) {
	for i := 0; i < f.hashes; i++ {
		c := f.idx(key, i)
		f.cells[c] = f.decayed(c) + weight
		f.stamps[c] = f.now
	}
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

// bloomMismatch decodes in as a filter shape and a sequence of
// operations, runs DecayingBloomFilter and denseBloom through it, and
// reports the first estimate that differs in its bits: after each Estimate,
// and in every cell at the end.
//
// Bytes 0-2 pick the shape: 1-4096 cells (bytes 0 and 1), 1-4 hashes and
// a half-life of 1-101 time units (byte 2). Each further 3-byte group
// [op, k, v] is one operation on key k%40: op%3 == 0 moves the clock by
// v%20-3 (a move backwards is ignored), 1 adds weight v/85, 2 estimates.
// Keys that were never added are estimated too, before and after the
// clock moves.
func bloomMismatch(in []byte) error {
	if len(in) < 3 {
		return nil
	}
	cells := 1 + (int(in[0]) | int(in[1]&15)<<8)
	hashes := 1 + int(in[2]&3)
	halfLife := 1 + float64(in[2]>>2)*100/63
	f, ref := NewDecayingBloomFilter(cells, hashes, halfLife), newDenseBloom(cells, hashes, halfLife)
	for p := 3; p+3 <= len(in); p += 3 {
		key, v := fmt.Sprintf("k%d", in[p+1]%40), in[p+2]
		switch in[p] % 3 {
		case 0:
			now := f.now + int64(v%20) - 3
			f.Advance(now)
			ref.advance(now)
		case 1:
			w := float64(v) / 85
			f.Add(key, w)
			ref.add(key, w)
		default:
			if got, want := f.Estimate(key), ref.estimate(key); math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("op %d: Estimate(%q) = %v, dense filter %v", p/3, key, got, want)
			}
		}
	}
	for c := 0; c < cells; c++ {
		if got, want := f.decayed(c), ref.decayed(c); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("cell %d of %d reads %v at the end, dense filter %v", c, cells, got, want)
		}
	}
	return nil
}

// TestBloomChunksMatchDense drives the sparse filter and the dense
// reference through 200 random sequences of 300 operations on 1-192 cells.
func TestBloomChunksMatchDense(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := make([]byte, 3+3*300)
		rng.Read(in)
		in[0], in[1] = byte(rng.Intn(192)), 0
		if err := bloomMismatch(in); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzBloomMatchesDense runs bloomMismatch on fuzzed inputs. Plain
// `go test` replays the committed corpus in
// testdata/fuzz/FuzzBloomMatchesDense.
func FuzzBloomMatchesDense(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := bloomMismatch(in); err != nil {
			t.Fatal(err)
		}
	})
}
