//go:build poison

package memtrack

import "math"

// Poison fills s with NaN and returns it. Under the poison build tag every
// AllocUninit slice starts as NaN, so a workspace word read before its
// first write turns the result into NaN instead of silently reusing stale
// values. Other pools of uninitialized memory call it on every draw too.
func Poison(s []float64) []float64 {
	nan := math.NaN()
	for i := range s {
		s[i] = nan
	}
	return s
}
