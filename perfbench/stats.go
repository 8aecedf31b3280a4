package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "type 7" definition), or 0 for an empty slice.
// Being continuous in the data, it never jumps between two distinct
// samples when their order swaps.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// iqm is the interquartile mean: the mean of the values between the first
// and third quartile. Over a run's passes it is as robust as the median to
// a stray slow pass, but it averages the middle half, so it also smooths
// the bucket granularity of histogram quantiles.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, v := range s[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// tailLadder is the set of percentiles a tail metric may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie beyond a percentile for
// it to count as measured.
const minBeyond = 10

// beyond is how many of n samples lie above the p-th percentile. The small
// allowance absorbs rounding in 100-p, so that exactly ten counts as ten.
func beyond(n int64, p float64) float64 {
	return float64(n)*(100-p)/100 + 1e-9
}

// tailChoice is the percentile the tail rule picked and the sample count it
// rests on.
type tailChoice struct {
	Pct     float64
	Samples int64
}

// pickTail applies the tail rule: the highest percentile on the ladder, no
// higher than limit, that has at least minBeyond of n samples beyond it.
// limit is the workload's percentile that repeats from run to run. ok is
// false when even the median lacks minBeyond samples beyond it.
func pickTail(n int64, limit float64) (tailChoice, bool) {
	for _, p := range tailLadder {
		if p > limit {
			continue
		}
		if beyond(n, p) >= minBeyond {
			return tailChoice{Pct: p, Samples: n}, true
		}
	}
	return tailChoice{Samples: n}, false
}
