package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/memtrack"
	"repro/internal/sched"
)

// TestMulAddTasksBitIdentical pins the threading contract of MulAddTasks:
// band boundaries fall on register-tile edges and KC panels retire in
// order, so the result is bit-for-bit MulAdd's — for every transpose case,
// across shapes that exercise edge blocks, bands spanning several Ã
// slices, and a single MC block split into bands.
func TestMulAddTasksBitIdentical(t *testing.T) {
	rt := sched.New(4, 1)
	defer rt.Close()
	rng := rand.New(rand.NewSource(501))
	shapes := [][3]int{{96, 80, 64}, {33, 47, 29}, {130, 24, 70}, {16, 16, 16}, {12, 9, 30}}
	for _, mode := range []Mode{ModeAuto, ModeScalar} {
		for _, dims := range shapes {
			m, n, kk := dims[0], dims[1], dims[2]
			for _, ta := range []blas.Transpose{blas.NoTrans, blas.Trans} {
				for _, tb := range []blas.Transpose{blas.NoTrans, blas.Trans} {
					rowsA, colsA := m, kk
					if ta.IsTrans() {
						rowsA, colsA = kk, m
					}
					rowsB, colsB := kk, n
					if tb.IsTrans() {
						rowsB, colsB = n, kk
					}
					a := randSlice(rng, rowsA*colsA)
					b := randSlice(rng, rowsB*colsB)
					c1 := randSlice(rng, m*n)
					c2 := append([]float64(nil), c1...)

					// Small blocks force several Ã slices per band even at these sizes.
					k1 := &Packed{MC: 16, KC: 12, NC: 20, Mode: mode}
					k2 := &Packed{MC: 16, KC: 12, NC: 20, Mode: mode}
					k1.MulAdd(ta, tb, m, n, kk, 1.25, a, rowsA, b, rowsB, c1, m)
					k2.MulAddTasks(rt, 4, ta, tb, m, n, kk, 1.25, a, rowsA, b, rowsB, c2, m)
					for i := range c1 {
						if c1[i] != c2[i] {
							t.Fatalf("mode=%v dims=%v ta=%v tb=%v: c[%d] = %v (tasks) vs %v (sequential)",
								mode, dims, ta, tb, i, c2[i], c1[i])
						}
					}
				}
			}
		}
	}
}

// TestMulAddTasksDegradesToMulAdd pins the fallback cases: a nil
// submitter and a leaf of one register panel run the plain nest (still
// correct); one MC block splits into bands and matches bit for bit.
func TestMulAddTasksDegradesToMulAdd(t *testing.T) {
	rt := sched.New(2, 3)
	defer rt.Close()
	rng := rand.New(rand.NewSource(502))
	cases := []struct {
		name    string
		m, mc   int
		sub     sched.Submitter
		threads bool
	}{
		{"nil submitter", 24, 16, nil, false},
		// m ≤ MR leaves one register panel: nothing to split.
		{"one panel", 3, 64, rt, false},
		// MC ≥ m is one MC block, which splits into MR-aligned bands.
		{"one MC block", 24, 64, rt, true},
	}
	n, kk := 20, 16
	for _, tc := range cases {
		m := tc.m
		a := randSlice(rng, m*kk)
		b := randSlice(rng, kk*n)
		want := randSlice(rng, m*n)
		got := append([]float64(nil), want...)
		seq := &Packed{MC: tc.mc, KC: 12, NC: 20}
		seq.MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, want, m)
		tk := &Packed{MC: tc.mc, KC: 12, NC: 20}
		if threads := tk.bands(tk.impl(), tc.sub, 8, m, n, kk) != nil; threads != tc.threads {
			t.Fatalf("%s: threaded = %v, want %v", tc.name, threads, tc.threads)
		}
		tk.MulAddTasks(tc.sub, 8, blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, got, m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: diverged at %d", tc.name, i)
			}
		}
	}
}

// TestRowBands: bands are MR-aligned, cover the rows in order without
// overlap, and their Ã slices are disjoint parts of the mcE-row buffer,
// each at least one register panel tall and no taller than its band.
func TestRowBands(t *testing.T) {
	for _, mr := range []int{4, 8} {
		for _, mcE := range []int{mr, 2 * mr, 3 * mr, 16 * mr, 32 * mr} {
			for m := 1; m <= 5*mcE; m += 3 {
				for threads := 1; threads <= 6; threads++ {
					bands := rowBands(m, mcE, mr, threads)
					if bands == nil {
						if min(threads, (m+mr-1)/mr, mcE/mr) >= 2 {
							t.Fatalf("mr=%d mcE=%d m=%d threads=%d: no bands", mr, mcE, m, threads)
						}
						continue
					}
					lo, off := 0, 0
					for i, b := range bands {
						if b.lo != lo || b.lo%mr != 0 || b.hi <= b.lo || b.off < off ||
							b.h < mr || b.h%mr != 0 || b.h > (b.hi-b.lo+mr-1)/mr*mr {
							t.Fatalf("mr=%d mcE=%d m=%d threads=%d: band %d = %+v after row %d, slice %d",
								mr, mcE, m, threads, i, b, lo, off)
						}
						lo, off = b.hi, b.off+b.h
					}
					if lo != m || off > mcE || len(bands) > threads {
						t.Fatalf("mr=%d mcE=%d m=%d threads=%d: %d bands end at row %d, slice %d",
							mr, mcE, m, threads, len(bands), lo, off)
					}
				}
			}
		}
	}
}

// TestMulAddTasksWorkspaceExact: the bands share the sequential nest's Ã
// buffer, so a threaded call's arena peak is exactly LeafWorkspace, for
// plain and fused leaves, whether the rows fill one MC block or several.
func TestMulAddTasksWorkspaceExact(t *testing.T) {
	rt := sched.New(4, 9)
	defer rt.Close()
	rng := rand.New(rand.NewSource(503))
	for _, dims := range [][3]int{{96, 64, 48}, {40, 30, 20}, {130, 70, 90}} {
		m, n, kk := dims[0], dims[1], dims[2]
		for _, fused := range []bool{false, true} {
			k := &Packed{MC: 48, KC: 12, NC: 20}
			arena := memtrack.New()
			k.SetArena(arena)
			a := randSlice(rng, m*kk)
			b := randSlice(rng, kk*n)
			c := make([]float64, m*n)
			if fused {
				aOp := Operand{Ld: m, Terms: []Term{{Data: a, Coeff: 1, Rows: m, Cols: kk}}}
				bOp := Operand{Ld: kk, Terms: []Term{{Data: b, Coeff: -1, Rows: kk, Cols: n}}}
				k.FusedMulAddTasks(rt, m, n, kk, 1, aOp, bOp, []Dest{{Data: c, Ld: m, Coeff: 1, Rows: m, Cols: n}})
			} else {
				k.MulAddTasks(rt, 4, blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, c, m)
			}
			if peak, want := arena.Peak(), k.LeafWorkspace(m, n, kk); peak != want {
				t.Errorf("%v fused=%v: arena peak %d, LeafWorkspace %d", dims, fused, peak, want)
			}
			if live := arena.Live(); live != 0 {
				t.Fatalf("%v fused=%v: %d arena words leaked", dims, fused, live)
			}
		}
	}
}

// TestFusedMulAddTasksBitIdentical: the threaded fused leaf writes every
// destination bit for bit as FusedMulAdd does — one to four destinations,
// every transpose case, both tiles, and clipped extents (a virtually
// padded block whose terms and destinations stop short of its last rows
// and columns).
func TestFusedMulAddTasksBitIdentical(t *testing.T) {
	rt := sched.New(3, 5)
	defer rt.Close()
	rng := rand.New(rand.NewSource(504))
	for _, mode := range []Mode{ModeScalar, ModeSIMD} {
		for _, dims := range [][3]int{{64, 40, 36}, {37, 21, 19}, {130, 24, 70}} {
			m, n, kk := dims[0], dims[1], dims[2]
			for _, ta := range []bool{false, true} {
				for _, tb := range []bool{false, true} {
					for nd := 1; nd <= 4; nd++ {
						for _, clip := range []int{0, 1, 3} {
							ar, ac := opDims(ta, m, kk)
							br, bc := opDims(tb, kk, n)
							aOp := Operand{Ld: ar, Trans: ta}
							for i, g := range []float64{1, -1} {
								aOp.Terms = append(aOp.Terms, Term{Data: fill(rng, ar, ac, ar), Coeff: g, Rows: m - i*clip, Cols: kk})
							}
							bOp := Operand{Ld: br, Trans: tb}
							for i, g := range []float64{-1, 1} {
								bOp.Terms = append(bOp.Terms, Term{Data: fill(rng, br, bc, br), Coeff: g, Rows: kk - i*clip, Cols: n})
							}
							var want, got []Dest
							for d := 0; d < nd; d++ {
								c := fill(rng, m, n, m)
								g := float64(1 - 2*(d%2))
								want = append(want, Dest{Data: c, Ld: m, Coeff: g, Rows: m - d*clip, Cols: n - clip})
								got = append(got, Dest{Data: append([]float64(nil), c...), Ld: m, Coeff: g, Rows: m - d*clip, Cols: n - clip})
							}
							seq := &Packed{Mode: mode, MC: 32, KC: 24, NC: 40}
							seq.FusedMulAdd(m, n, kk, 0.75, aOp, bOp, want)
							tk := &Packed{Mode: mode, MC: 32, KC: 24, NC: 40}
							tk.FusedMulAddTasks(rt, m, n, kk, 0.75, aOp, bOp, got)
							for d := range want {
								for i, w := range want[d].Data {
									if math.Float64bits(got[d].Data[i]) != math.Float64bits(w) {
										t.Fatalf("mode=%v %v ta=%v tb=%v dests=%d clip=%d: dest %d word %d = %v (tasks) vs %v",
											mode, dims, ta, tb, nd, clip, d, i, got[d].Data[i], w)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}
