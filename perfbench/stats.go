package main

import (
	"math"
	"sort"
)

// failedMS is the latency a failed operation is reported at: it misses
// every latency limit, so percentiles treat it as +Inf, and a
// percentile that lands on one reads as this sentinel (1000 s).
const failedMS = 1e6

// latency summarises one operation type's latencies.
type latency struct {
	N      int     `json:"n"`
	Failed int     `json:"failed"`
	P50    float64 `json:"p50_ms"`
	Tail   float64 `json:"tail_ms"`
	// TailPct is the percentile Tail reports: the highest whole
	// percentile with at least ten samples beyond it. Below 20 samples
	// no percentile above the median has that, and Tail reads the
	// median (TailPct 50).
	TailPct int `json:"tail_pct"`
}

func summarise(samples []sample) latency {
	var v []float64
	l := latency{N: len(samples)}
	for _, s := range samples {
		if s.err != "" {
			l.Failed++
			v = append(v, math.Inf(1))
		} else {
			v = append(v, s.ms)
		}
	}
	if len(v) == 0 {
		return l
	}
	sort.Float64s(v)
	l.P50 = finite(median(v))
	l.TailPct, l.Tail = tail(v)
	l.Tail = finite(l.Tail)
	return l
}

func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return failedMS
	}
	return x
}

// median of sorted values (mean of the middle two for even counts).
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// tail returns the highest whole percentile q with at least ten of the
// sorted samples strictly above its nearest-rank position, and the
// value there; the median when that percentile is below the median.
func tail(v []float64) (int, float64) {
	n := len(v)
	for q := 99; q > 50; q-- {
		rank := int(math.Ceil(float64(q) / 100 * float64(n)))
		if n-rank >= 10 {
			return q, v[rank-1]
		}
	}
	return 50, median(v)
}

// medianOf returns the median of unsorted values.
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return median(s)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
