//go:build !unix

package serve

// mapFrame allocates a frame on the Go heap where anonymous mappings are
// not available; the free list still reuses it.
func mapFrame(words int) ([]float64, error) { return make([]float64, words), nil }

// unmapFrame drops a heap frame; the garbage collector reclaims it.
func unmapFrame([]float64) {}
