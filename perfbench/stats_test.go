package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(vals, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// Nearest rank never interpolates: every answer is a sample.
	if got := percentile([]float64{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("percentile({1,2,3,4}, 0.5) = %g, want 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
	if vals[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		q       float64
		beyond  int
		enough  bool
		comment string
	}{
		{100, 0.9, 10, true, "p90 is supported from 100 samples on"},
		{99, 0.9, 9, false, "one sample short"},
		{150, 0.9, 15, true, ""},
		{999, 0.99, 9, false, "p99 needs 1000"},
		{1000, 0.99, 10, true, ""},
	} {
		b := samplesBeyond(tc.n, tc.q)
		if b != tc.beyond || (b >= minBeyond) != tc.enough {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d (%s)", tc.n, tc.q, b, tc.beyond, tc.comment)
		}
	}
}

func TestSetWallNotesUnsupportedTail(t *testing.T) {
	r := newReport("")
	setWall(r, 1, make([]float64, 99))
	if len(r.notes) != 1 {
		t.Errorf("99 samples: notes = %q, want one note about p90", r.notes)
	}
	r = newReport("")
	setWall(r, 1, make([]float64, 100))
	if len(r.notes) != 0 {
		t.Errorf("100 samples: notes = %q, want none", r.notes)
	}
}

func TestPairedRatioIsMedianOfPerPairRatios(t *testing.T) {
	// A slow pair (host noise hitting both arms) moves the ratio of sums
	// but not the median of per-pair ratios.
	num := []float64{2, 4, 200, 3}
	den := []float64{1, 2, 100, 3}
	if got := pairedRatio(num, den); got != 2 {
		t.Errorf("pairedRatio = %g, want 2", got)
	}
	if got := pairedRatio([]float64{1}, []float64{0}); got != 0 {
		t.Errorf("pairedRatio with a zero-time arm = %g, want 0 (pair dropped)", got)
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := medianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	if got := medianOf(nil); got != 0 || math.IsNaN(got) {
		t.Errorf("median empty = %g", got)
	}
}
