package metrics

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func roundTrip(t *testing.T, h *Histogram) *Histogram {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		t.Fatalf("encode: %v", err)
	}
	out := new(Histogram)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

// wireEqual compares the wire-relevant state (everything but the derived
// quantile cache, which is rebuilt on demand after decode).
func wireEqual(a, b *Histogram) bool {
	return a.bits == b.bits && a.base == b.base && a.zero == b.zero &&
		a.count == b.count && a.sum == b.sum && a.sumSq == b.sumSq &&
		(a.min == b.min || (math.IsInf(a.min, 1) && math.IsInf(b.min, 1))) &&
		(a.max == b.max || (math.IsInf(a.max, -1) && math.IsInf(b.max, -1))) &&
		reflect.DeepEqual(a.counts, b.counts)
}

func TestHistogramGobRoundTrip(t *testing.T) {
	cases := map[string]*Histogram{
		"empty": NewHistogram(0),
		"small": func() *Histogram {
			h := NewHistogram(16)
			for i := 0; i < 10; i++ {
				h.Observe(float64(i) * 1.5)
			}
			return h
		}(),
		"wide": func() *Histogram {
			// Span several orders of magnitude plus the zero bucket so the
			// dense window, base offset, and zero count all participate.
			h := NewHistogramPrecision(10)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 5000; i++ {
				h.Observe(math.Exp(rng.NormFloat64()*4) - 1)
			}
			return h
		}(),
	}
	for name, h := range cases {
		t.Run(name, func(t *testing.T) {
			got := roundTrip(t, h)
			if !wireEqual(h, got) {
				t.Fatalf("round trip not lossless:\n have %+v\n got  %+v", h, got)
			}
			// The decode must also leave the histogram usable: further
			// observations land in identical buckets with identical moments
			// — the mid-stream round-trip contract the memo cache needs.
			h.Observe(42)
			got.Observe(42)
			h.Observe(0.0001)
			got.Observe(0.0001)
			if !wireEqual(h, got) {
				t.Fatalf("post-decode Observe diverged:\n have %+v\n got  %+v", h, got)
			}
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				if a, b := h.Quantile(q), got.Quantile(q); a != b {
					t.Fatalf("post-decode Quantile(%v): %v vs %v", q, a, b)
				}
			}
		})
	}
}

// TestHistogramGobMidStreamInterleaved round-trips at several points of a
// single observation stream and checks the decoded copy tracks the
// original bit-for-bit to the end.
func TestHistogramGobMidStreamInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := NewHistogram(0)
	var snap *Histogram
	for i := 0; i < 20_000; i++ {
		v := rng.ExpFloat64() * 50
		h.Observe(v)
		if snap != nil {
			snap.Observe(v)
		}
		if i == 4999 {
			snap = roundTrip(t, h)
		}
		if i == 14_999 {
			snap = roundTrip(t, snap) // second hop: decode of a decode
		}
	}
	if !wireEqual(h, snap) {
		t.Fatalf("mid-stream round-trip diverged:\n have %+v\n got  %+v", h, snap)
	}
}

func TestHistogramGobPreservesStats(t *testing.T) {
	h := NewHistogram(64)
	for _, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		h.Observe(v)
	}
	got := roundTrip(t, h)
	if got.Count() != h.Count() || got.Mean() != h.Mean() ||
		got.Stddev() != h.Stddev() || got.Min() != h.Min() || got.Max() != h.Max() {
		t.Fatalf("summary stats changed: %+v vs %+v", got, h)
	}
	if got.Quantile(0.5) != h.Quantile(0.5) || got.CDFAt(4) != h.CDFAt(4) {
		t.Fatalf("sample-derived stats changed")
	}
}

// TestHistogramGobDecodeChecksState: GobDecode rejects every wire state no
// histogram reaches and accepts the edges of those it does.
func TestHistogramGobDecodeChecksState(t *testing.T) {
	top := (&Histogram{bits: maxBits}).bucketIndex(maxUnits)
	for _, c := range []struct {
		name string
		w    histogramWire
		ok   bool
	}{
		{"zero value", histogramWire{}, true},
		{"empty", histogramWire{Bits: defaultBits}, true},
		{"coarsest", histogramWire{Bits: minBits, Counts: []int64{1, 0, 7}, Zero: 3, Count: 11}, true},
		{"top bucket", histogramWire{Bits: maxBits, Base: top, Counts: []int64{3}, Zero: 2, Count: 5}, true},
		{"no precision", histogramWire{Counts: []int64{1}, Count: 1}, false},
		{"negative precision", histogramWire{Bits: -5, Counts: []int64{1}, Count: 1}, false},
		{"precision past maxBits", histogramWire{Bits: maxBits + 1, Counts: []int64{1}, Count: 1}, false},
		{"negative base", histogramWire{Bits: defaultBits, Base: -1 << 40, Counts: []int64{1}, Count: 1}, false},
		{"window past the top bucket", histogramWire{Bits: maxBits, Base: top, Counts: []int64{1, 1}, Count: 2}, false},
		{"negative bucket", histogramWire{Bits: defaultBits, Counts: []int64{2, -1}, Count: 1}, false},
		{"negative zero bucket", histogramWire{Bits: defaultBits, Counts: []int64{2}, Zero: -1, Count: 1}, false},
		{"buckets short of the count", histogramWire{Bits: defaultBits, Counts: []int64{1, 2}, Zero: 1, Count: 5}, false},
		{"buckets past the count", histogramWire{Bits: defaultBits, Counts: []int64{1, math.MaxInt64}, Count: 1}, false},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c.w); err != nil {
			t.Fatal(err)
		}
		h := NewHistogram(0)
		h.Observe(1)
		err := h.GobDecode(buf.Bytes())
		if (err == nil) != c.ok {
			t.Errorf("%s: GobDecode returned %v", c.name, err)
		}
		if err != nil && h.Count() != 1 {
			t.Errorf("%s: a rejected decode changed the histogram", c.name)
		}
	}
}

// FuzzHistogramGobDecode decodes the gob encoding of arbitrary wire states
// (the counts are signed bytes) and requires either an error or a
// histogram that Quantile, CDFAt, Samples and Merge, both ways, read
// without a panic, and whose Samples number its Count. Plain `go test`
// replays the committed corpus in testdata/fuzz/FuzzHistogramGobDecode,
// which holds the states that crashed readers before GobDecode checked
// them: precisions of -5 and 70 bits, and a window based at -2^40, which
// Merge grew toward 2^40 buckets.
func FuzzHistogramGobDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits, base int, counts []byte, zero, count int64) {
		w := histogramWire{Bits: bits, Base: base, Zero: zero, Count: count, Sum: 1, SumSq: 1, Min: 0, Max: 1}
		for _, c := range counts {
			w.Counts = append(w.Counts, int64(int8(c)))
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		var h Histogram
		if err := h.GobDecode(buf.Bytes()); err != nil {
			return
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			h.Quantile(q)
		}
		for _, x := range []float64{0, 1e-3, 1, 1e9} {
			h.CDFAt(x)
		}
		// Samples allocates one value per observation.
		if h.Count() <= 1<<16 {
			if n := len(h.Samples()); int64(n) != h.Count() {
				t.Fatalf("Samples returned %d values for %d observations", n, h.Count())
			}
		}
		other := NewHistogramPrecision(6)
		for _, v := range []float64{0, 1e-4, 2.5, 3e3} {
			other.Observe(v)
		}
		merged := NewHistogram(0)
		merged.Merge(&h)
		merged.Merge(other)
		h.Merge(other)
		if merged.Count() != h.Count() {
			t.Fatalf("merges counted %d and %d observations", merged.Count(), h.Count())
		}
		merged.Quantile(0.5)
		h.Quantile(0.5)
	})
}
