package metrics

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
)

// histogramWire mirrors Histogram's unexported state one-for-one so the
// persistent result cache can round-trip histograms losslessly. Every
// field participates: quantiles depend on the bucket counts and window
// offset, and resuming observation after a decode needs the precision and
// exact moments to continue exactly where the encode stopped. The cached
// cumulative view is derived state and is rebuilt on demand after decode.
type histogramWire struct {
	Bits   int
	Base   int
	Counts []int64
	Zero   int64
	Count  int64
	Sum    float64
	SumSq  float64
	Min    float64
	Max    float64
}

// GobEncode implements gob.GobEncoder, serializing the full histogram
// state including the ±Inf min/max sentinels of an empty histogram.
func (h *Histogram) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(histogramWire{
		Bits:   h.bits,
		Base:   h.base,
		Counts: h.counts,
		Zero:   h.zero,
		Count:  h.count,
		Sum:    h.sum,
		SumSq:  h.sumSq,
		Min:    h.min,
		Max:    h.max,
	})
	return buf.Bytes(), err
}

// GobDecode implements gob.GobDecoder, replacing the receiver's state. It
// returns an error, and leaves the receiver as it was, for a state no
// histogram reaches, so that a corrupt cache file reads as an error and not
// as a histogram whose Quantile panics or whose Merge grows without bound.
func (h *Histogram) GobDecode(data []byte) error {
	var w histogramWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	if err := w.check(); err != nil {
		return err
	}
	*h = Histogram{
		bits:   w.Bits,
		base:   w.Base,
		counts: w.Counts,
		zero:   w.Zero,
		count:  w.Count,
		sum:    w.Sum,
		sumSq:  w.SumSq,
		min:    w.Min,
		max:    w.Max,
	}
	return nil
}

// check reports whether w is a state a histogram can reach: a precision in
// [minBits, maxBits] (or none, for a zero value that observed nothing), a
// bucket window inside the precision's index range, no negative count, and
// a total that is the zero bucket plus the buckets.
func (w *histogramWire) check() error {
	if w.Bits == 0 {
		if w.Count != 0 || w.Zero != 0 || len(w.Counts) != 0 {
			return errors.New("metrics: histogram has observations but no precision")
		}
		return nil
	}
	if w.Bits < minBits || w.Bits > maxBits {
		return fmt.Errorf("metrics: histogram precision of %d bits is outside [%d, %d]", w.Bits, minBits, maxBits)
	}
	top := (&Histogram{bits: w.Bits}).bucketIndex(maxUnits)
	if w.Base < 0 || w.Base > top+1-len(w.Counts) {
		return fmt.Errorf("metrics: histogram of %d buckets from %d leaves the bucket range [0, %d]", len(w.Counts), w.Base, top)
	}
	if w.Zero < 0 || w.Zero > w.Count {
		return fmt.Errorf("metrics: histogram has %d zero observations of %d", w.Zero, w.Count)
	}
	sum := w.Zero
	for i, c := range w.Counts {
		if c < 0 || c > w.Count-sum {
			return fmt.Errorf("metrics: histogram bucket %d counts %d after %d of %d observations", w.Base+i, c, sum, w.Count)
		}
		sum += c
	}
	if sum != w.Count {
		return fmt.Errorf("metrics: histogram buckets hold %d of its %d observations", sum, w.Count)
	}
	return nil
}
