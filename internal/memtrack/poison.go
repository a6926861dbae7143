//go:build poison

package memtrack

import "math"

// poison fills s with NaN: under the poison build tag every AllocUninit
// slice starts as NaN, so a workspace word read before its first write
// turns the result into NaN instead of silently reusing stale values.
func poison(s []float64) []float64 {
	nan := math.NaN()
	for i := range s {
		s[i] = nan
	}
	return s
}
