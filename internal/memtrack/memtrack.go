// Package memtrack provides an accounting allocator for float64 workspace.
// The paper's Table 1 compares implementations by the amount of temporary
// memory they need; this package lets the reproduction *measure* live and
// peak temporary words rather than merely trusting the analytic bounds, and
// the tests in internal/strassen assert measured peaks against the paper's
// formulas.
package memtrack

import (
	"fmt"
	"sync"

	"repro/internal/phase"
)

// Tracker hands out float64 scratch slices and records the high-water mark
// of simultaneously live words. A Tracker additionally acts as a simple
// stack allocator with free-list reuse so that the Strassen recursion's
// temporaries are recycled rather than reallocated at every level.
//
// A nil *Tracker is valid and degrades to plain make() with no accounting.
// All methods are safe for concurrent use (the parallel Strassen schedule
// allocates from several product goroutines at once).
type Tracker struct {
	mu       sync.Mutex
	live     int64
	peak     int64
	allocs   int64
	reused   int64
	freelist map[int][][]float64
}

// New returns an empty tracker.
func New() *Tracker {
	return &Tracker{freelist: make(map[int][][]float64)}
}

// Alloc returns a zeroed slice of n float64s, preferring a recycled slice of
// the exact size. The returned slice counts as live until Free is called.
func (t *Tracker) Alloc(n int) []float64 {
	if n < 0 {
		panic(fmt.Sprintf("memtrack: Alloc(%d)", n))
	}
	if t == nil {
		return make([]float64, n)
	}
	if prof := phase.Active(); prof != nil {
		t0 := phase.Now()
		s := t.alloc(n, true)
		prof.Add(phase.ArenaDraw, phase.Now()-t0, 0, int64(n)*8)
		return s
	}
	return t.alloc(n, true)
}

// AllocUninit is Alloc without the zeroing guarantee: a recycled slice is
// returned with its previous contents intact. It exists for workspace the
// caller fully overwrites before reading — the packed GEMM kernel's panel
// buffers and the Strassen level temporaries — where zeroing would cost a
// full memory sweep per draw. Under the poison build tag every slice it
// returns, fresh or recycled, is filled with NaN, so a read before the
// first write shows up in the result. The returned slice counts as live
// until Free is called.
func (t *Tracker) AllocUninit(n int) []float64 {
	if n < 0 {
		panic(fmt.Sprintf("memtrack: AllocUninit(%d)", n))
	}
	if t == nil {
		return Poison(make([]float64, n))
	}
	if prof := phase.Active(); prof != nil {
		t0 := phase.Now()
		s := t.alloc(n, false)
		prof.Add(phase.ArenaDraw, phase.Now()-t0, 0, int64(n)*8)
		return s
	}
	return t.alloc(n, false)
}

// alloc is the shared draw path; zero selects Alloc's zeroing guarantee.
// Only the accounting and the free-list pop hold the lock: a fresh slice
// is made and a recycled one cleared after unlocking, so concurrent draws
// do not wait out each other's memory sweeps. The bytes a draw accounts
// to phase.ArenaDraw are the words handed out (n·8), whether fresh or
// recycled — the phase exists to show how much workspace traffic the
// schedules induce, and zeroing/recycling cost shows up in the phase's
// wall time, not its byte count.
func (t *Tracker) alloc(n int, zero bool) []float64 {
	var s []float64
	t.mu.Lock()
	t.live += int64(n)
	if t.live > t.peak {
		t.peak = t.live
	}
	if list := t.freelist[n]; len(list) > 0 {
		s = list[len(list)-1]
		t.freelist[n] = list[:len(list)-1]
		t.reused++
	} else {
		t.allocs++
	}
	t.mu.Unlock()
	switch {
	case s == nil:
		s = make([]float64, n)
		if !zero {
			Poison(s)
		}
	case zero:
		clear(s)
	default:
		Poison(s)
	}
	return s
}

// Free returns a slice obtained from Alloc to the tracker. The slice must
// not be used afterwards.
func (t *Tracker) Free(s []float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(s)
	t.live -= int64(n)
	if t.live < 0 {
		panic("memtrack: Free without matching Alloc (live count negative)")
	}
	t.freelist[n] = append(t.freelist[n], s)
}

// Live returns the number of currently live words.
func (t *Tracker) Live() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live
}

// Peak returns the high-water mark of live words since creation (or the
// last ResetPeak).
func (t *Tracker) Peak() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// Allocs returns how many fresh allocations were made (excludes reuse).
func (t *Tracker) Allocs() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.allocs
}

// Reused returns how many Alloc calls were satisfied from the free list.
func (t *Tracker) Reused() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reused
}

// Stats is an immutable snapshot of a Tracker's accounting, taken
// atomically with respect to concurrent Alloc/Free calls.
type Stats struct {
	// Live is the number of currently live words.
	Live int64 `json:"live_words"`
	// Peak is the high-water mark of live words.
	Peak int64 `json:"peak_words"`
	// Allocs counts fresh allocations (excludes free-list reuse).
	Allocs int64 `json:"allocs"`
	// Reused counts Alloc calls satisfied from the free list.
	Reused int64 `json:"reused"`
}

// Stats returns a consistent snapshot of all counters. A nil Tracker
// reports zeros.
func (t *Tracker) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{Live: t.live, Peak: t.peak, Allocs: t.allocs, Reused: t.reused}
}

// ResetPeak sets the peak to the current live count, so a fresh measurement
// can be taken without discarding the free list.
func (t *Tracker) ResetPeak() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peak = t.live
}
