package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a percentile
// before the benchmark reports it: a tail read off fewer than ten samples is
// one scheduler hiccup, not a property of the system.
const minBeyond = 10

// tailPercentiles are the tails the benchmark knows how to name, ascending.
var tailPercentiles = []float64{90, 95, 99, 99.9}

// sortedDurations returns a sorted copy of d.
func sortedDurations(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// percentile reads the p-th percentile (nearest rank) off sorted samples. ok
// is false when fewer than minBeyond samples lie beyond the rank — the caller
// reports null rather than a number the sample cannot support. The median is
// exempt from the rule and only needs one sample.
func percentile(sorted []time.Duration, p float64) (v time.Duration, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps 99.9% of 10000 at rank 9990, not the 9991 that
	// 9990.000000000002 would round up to.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if p > 50 && n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// highestSupported returns the highest tail percentile with at least
// minBeyond samples beyond it, or ok=false when even the lowest tail is
// unsupported.
func highestSupported(sorted []time.Duration) (p float64, v time.Duration, ok bool) {
	for i := len(tailPercentiles) - 1; i >= 0; i-- {
		if v, ok := percentile(sorted, tailPercentiles[i]); ok {
			return tailPercentiles[i], v, true
		}
	}
	return 0, 0, false
}

// timing is how every latency is reported: a median, the highest tail the
// sample supports (null otherwise), and the sample count.
type timing struct {
	N        int      `json:"n"`
	MedianUs *float64 `json:"median_us"`
	TailPct  *float64 `json:"tail_pct"`
	TailUs   *float64 `json:"tail_us"`
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func summarize(d []time.Duration) timing {
	s := sortedDurations(d)
	t := timing{N: len(s)}
	if med, ok := percentile(s, 50); ok {
		m := micros(med)
		t.MedianUs = &m
	}
	if p, v, ok := highestSupported(s); ok {
		u := micros(v)
		t.TailPct, t.TailUs = &p, &u
	}
	return t
}

// medianFloat is the median of xs (mean of the middle pair when even); NaN
// for an empty slice.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the acceptance check uses for run-to-run spread. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
