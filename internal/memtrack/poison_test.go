//go:build poison

package memtrack

import (
	"math"
	"testing"
)

// TestAllocUninitPoisons: under the poison tag AllocUninit hands out NaN
// whether the slice is fresh, recycled or drawn without a tracker, while
// Alloc still zeroes a recycled slice.
func TestAllocUninitPoisons(t *testing.T) {
	allNaN := func(what string, s []float64) {
		t.Helper()
		for i, v := range s {
			if !math.IsNaN(v) {
				t.Fatalf("%s: word %d is %g, want NaN", what, i, v)
			}
		}
	}
	var none *Tracker
	allNaN("nil tracker", none.AllocUninit(5))
	tr := New()
	s := tr.AllocUninit(7)
	allNaN("fresh", s)
	for i := range s {
		s[i] = float64(i)
	}
	tr.Free(s)
	r := tr.AllocUninit(7)
	allNaN("recycled", r)
	tr.Free(r)
	z := tr.Alloc(7)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("Alloc word %d is %g after a poisoned draw, want 0", i, v)
		}
	}
}
