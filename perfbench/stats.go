package main

import (
	"math"
	"sort"

	"repro/internal/bench"
)

// medianOf returns the median of vals (the mean of the middle two for an
// even count); 0 for no samples.
func medianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return bench.Summarize(vals).Median
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of vals: the
// smallest sample with at least ⌈q·n⌉ samples at or below it. Nearest rank
// never interpolates, so every reported latency is one that was measured.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	return s[nearestRank(len(s), q)-1]
}

// nearestRank is the 1-based rank percentile picks out of n samples.
func nearestRank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond counts the samples strictly above the nearest-rank
// q-quantile of n samples. A tail percentile is only reported as such when
// at least minBeyond samples lie beyond it; p90 needs 100 samples.
func samplesBeyond(n int, q float64) int {
	return n - nearestRank(n, q)
}

const minBeyond = 10

// pairedRatio returns the median over pairs of num[i]/den[i]. Both arms of a
// pair run back to back on the same inputs, so host drift slower than one
// pair cancels inside the ratio.
func pairedRatio(num, den []float64) float64 {
	r := make([]float64, 0, len(num))
	for i := range num {
		if den[i] > 0 {
			r = append(r, num[i]/den[i])
		}
	}
	return medianOf(r)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func sum(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
