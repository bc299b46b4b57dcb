package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"superglue/internal/webserver"
)

// minBeyond is the number of samples a reported percentile must have above
// it: a tail figure resting on fewer samples is an anecdote, not a
// measurement.
const minBeyond = 10

// rank returns the 1-based nearest rank of the p-th percentile of n
// samples. The epsilon keeps p/100*n from rounding up past an exact rank
// (0.999*10000 is 9990.000000000002 in floating point).
func rank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be in ascending order and non-empty.
func percentile(sorted []float64, p float64) float64 {
	idx := rank(len(sorted), p) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// beyond reports how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// ladder is the set of tail percentiles a timing may be reported at.
var ladder = []float64{50, 90, 99, 99.9, 99.99}

// highestPercentile returns the highest ladder percentile of n samples that
// still has at least minBeyond samples above it, or 0 when even the median
// has fewer.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range ladder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// tail returns the p-th percentile of xs (sorting a copy) and an error when
// fewer than minBeyond samples lie above it.
func tail(xs []float64, p float64) (float64, error) {
	if n := len(xs); n == 0 || beyond(n, p) < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", p, len(xs), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p), nil
}

// median returns the median of xs (the mean of the middle pair for even
// counts); xs must be non-empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gapsAndStalls splits a per-completion timeline (BucketSize 1) into two
// populations, in microseconds. Completions are grouped into windows of
// `window` consecutive completions, window k covering completions
// k*window+1 .. (k+1)*window for k >= 1 — on web-faults, the requests
// served right after the k-th correlated burst. The longest gap of each
// complete window is that window's stall; every other gap of a window goes
// to the gap population. Keeping the two apart matters: burst stalls are
// about fifty times a plain gap, and a percentile taken over the mixture
// lands on whichever population happens to straddle it.
func gapsAndStalls(tl []webserver.BucketPoint, window int) (gaps, stalls []float64) {
	for k := 1; (k+1)*window <= len(tl); k++ {
		first := k * window // timeline index of completion k*window+1
		longest, at := -1.0, -1
		for i := first; i < first+window; i++ {
			g := float64(tl[i].Elapsed-tl[i-1].Elapsed) / float64(time.Microsecond)
			if g > longest {
				longest, at = g, i
			}
		}
		for i := first; i < first+window; i++ {
			if i != at {
				gaps = append(gaps, float64(tl[i].Elapsed-tl[i-1].Elapsed)/float64(time.Microsecond))
			}
		}
		stalls = append(stalls, longest)
	}
	return gaps, stalls
}
