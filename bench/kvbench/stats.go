package main

import (
	"math"
	"sort"
)

// quantileSorted returns the q-quantile (0..1) of an ascending slice by
// linear interpolation between the two closest ranks.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the
// spreads -compare prints are the ones the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// Interference from the host — a neighbour's burst, a descheduled vCPU —
// only ever makes a window slower, so the windows least disturbed are at the
// good end of a phase's distribution. best is the metric over a phase's
// windows: the 90th percentile for a rate, the 10th for a time. A change to
// the program moves every window and so moves this; a disturbed half-minute
// moves the median as well but leaves this nearly where it was (README,
// "Windows").
func best(perWindow []float64, better string) float64 {
	s := append([]float64(nil), perWindow...)
	sort.Float64s(s)
	if better == higher {
		return quantileSorted(s, 0.9)
	}
	return quantileSorted(s, 0.1)
}

// windowQuantile is the latency estimator: the q-quantile of every window
// that holds enough samples for it (at least ten beyond it, twenty for a
// median), then the best of those (see best). When no window is large
// enough all samples are pooled. It also returns the number of samples seen.
func windowQuantile(windows [][]uint32, q float64) (value float64, samples int) {
	need := int(math.Ceil(10 / (1 - q)))
	if q <= 0.5 {
		need = 20
	}
	var per, pool []float64
	for _, w := range windows {
		samples += len(w)
		f := make([]float64, len(w))
		for i, v := range w {
			f[i] = float64(v)
		}
		if len(f) >= need {
			sort.Float64s(f)
			per = append(per, quantileSorted(f, q))
		} else {
			pool = append(pool, f...)
		}
	}
	if len(per) > 0 {
		return best(per, lower), samples
	}
	sort.Float64s(pool)
	return quantileSorted(pool, q), samples
}
