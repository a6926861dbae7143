package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/blas"
	"repro/internal/memtrack"
	"repro/internal/sched"
)

// TestMulAddTasksBitIdentical pins the threading contract of MulAddTasks:
// column bands and Ã shares fall on register-tile edges and KC panels
// retire in order, so the result is bit-for-bit MulAdd's — for every
// transpose case, across shapes that exercise edge blocks, bands sharing
// the B̃ panel of several MC blocks, a single MC block, and steps of fewer
// slivers than the 4-worker runtime has workers.
func TestMulAddTasksBitIdentical(t *testing.T) {
	rt2, rt4 := sched.New(2, 1), sched.New(4, 1)
	defer rt2.Close()
	defer rt4.Close()
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
					c0 := randSlice(rng, m*n)
					c1 := append([]float64(nil), c0...)

					// Small blocks force several MC blocks and KC and NC panels
					// even at these sizes.
					k1 := &Packed{MC: 16, KC: 12, NC: 20, Mode: mode}
					k2 := &Packed{MC: 16, KC: 12, NC: 20, Mode: mode}
					k1.MulAdd(ta, tb, m, n, kk, 1.25, a, rowsA, b, rowsB, c1, m)
					for _, rt := range []*sched.Runtime{rt2, rt4} {
						c2 := append([]float64(nil), c0...)
						k2.MulAddTasks(rt, ta, tb, m, n, kk, 1.25, a, rowsA, b, rowsB, c2, m)
						for i := range c1 {
							if c1[i] != c2[i] {
								t.Fatalf("mode=%v dims=%v ta=%v tb=%v workers=%d: c[%d] = %v (tasks) vs %v (sequential)",
									mode, dims, ta, tb, rt.Workers(), i, c2[i], c1[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestMulAddTasksDegradesToMulAdd pins the fallback cases: a nil
// submitter, a single-worker runtime, a call of one NR-column sliver and
// one of one register panel of rows run the plain nest (still correct);
// one MC block splits into column bands and matches bit for bit.
func TestMulAddTasksDegradesToMulAdd(t *testing.T) {
	rt, rt1 := sched.New(2, 3), sched.New(1, 3)
	defer rt.Close()
	defer rt1.Close()
	rng := rand.New(rand.NewSource(502))
	cases := []struct {
		name     string
		m, n, mc int
		sub      sched.Submitter
		threads  bool
	}{
		{"nil submitter", 24, 20, 16, nil, false},
		{"one worker", 24, 20, 16, rt1, false},
		// n ≤ NR leaves one sliver: nothing to split.
		{"one sliver", 24, NR, 16, rt, false},
		// m ≤ MR is one register panel: each band would sweep one strip.
		{"one panel", 3, 20, 64, rt, false},
		{"one MC block", 24, 20, 64, rt, true},
	}
	kk := 16
	for _, tc := range cases {
		m, n := tc.m, tc.n
		a := randSlice(rng, m*kk)
		b := randSlice(rng, kk*n)
		want := randSlice(rng, m*n)
		got := append([]float64(nil), want...)
		seq := &Packed{MC: tc.mc, KC: 12, NC: 20}
		seq.MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, want, m)
		tk := &Packed{MC: tc.mc, KC: 12, NC: 20}
		l := tk.newLeaf(m, n, kk, 1, 1)
		if threads := l.bands(tc.sub) > 1; threads != tc.threads {
			t.Fatalf("%s: threaded = %v, want %v", tc.name, threads, tc.threads)
		}
		tk.MulAddTasks(tc.sub, blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, got, m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: diverged at %d", tc.name, i)
			}
		}
	}
}

// TestColumnBands: a threaded call deals every NR-column sliver of every
// step to exactly one of at most workers bands, none empty and each a
// contiguous run of whole slivers; every Ã block's register panels go to
// share tasks on MR edges, each panel to exactly one share; and the row
// partition over which the first block's shares apply β covers every row
// once. Steps are ragged (a last sliver narrower than NR, a last NC panel
// narrower than the rest) and some have fewer slivers than workers.
func TestColumnBands(t *testing.T) {
	for _, tile := range [][2]int{{4, 4}, {8, 4}} {
		mr, nr := tile[0], tile[1]
		for _, mcE := range []int{mr, 3 * mr, 16 * mr} {
			for _, nc := range []int{nr, 2 * nr, 5 * nr, 64 * nr} {
				for _, n := range []int{1, nr - 1, nr + 1, 3*nr + 2, nc, nc + 1, 2*nc + nr - 1} {
					for _, m := range []int{1, mr - 1, mr + 1, mcE, mcE + 1, 3*mcE + 2} {
						for workers := 1; workers <= 6; workers++ {
							checkSplit(t, m, n, mr, nr, mcE, min(nc, (n+nr-1)/nr*nr), workers)
						}
					}
				}
			}
		}
	}
}

// checkSplit checks the column bands, Ã shares and β partition of an
// m×n call at the effective blocking mcE×ncE on workers workers.
func checkSplit(t *testing.T, m, n, mr, nr, mcE, ncE, workers int) {
	t.Helper()
	what := fmt.Sprintf("m=%d n=%d mr=%d nr=%d mcE=%d ncE=%d workers=%d", m, n, mr, nr, mcE, ncE, workers)
	bands := bandCount(m, ncE, mr, nr, workers)
	if bands < 1 || bands > workers || bands > ncE/nr || (m <= mr && bands > 1) {
		t.Fatalf("%s: %d bands", what, bands)
	}
	if bands < 2 {
		return
	}
	// Each step covers ncE columns but the last, whose may be ragged.
	for jc := 0; jc < n; jc += ncE {
		nb := min(n-jc, ncE)
		cover(t, fmt.Sprintf("%s step at %d", what, jc), nb, nr, parts(bands, nb, nr))
	}
	for ic := 0; ic < m; ic += mcE {
		mb := min(m-ic, mcE)
		na := parts(bands, mb, mr)
		if na > bands {
			t.Fatalf("%s: block at %d packed by %d shares", what, ic, na)
		}
		cover(t, fmt.Sprintf("%s Ã block at %d", what, ic), mb, mr, na)
		if ic == 0 {
			cover(t, what+" β", m, mr, na)
		}
	}
}

// cover fails t unless the na shares of n items in units of unit cover
// each item once, each share a non-empty run of whole units.
func cover(t *testing.T, what string, n, unit, na int) {
	t.Helper()
	seen := make([]int, n)
	for j := range na {
		lo, hi := share(j, na, n, unit)
		if lo >= hi || lo%unit != 0 || (hi%unit != 0 && hi != n) {
			t.Fatalf("%s: share %d = [%d, %d)", what, j, lo, hi)
		}
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("%s: item %d covered %d times", what, i, c)
		}
	}
}

// TestMulAddTasksWorkspaceExact: a threaded call's arena peak is exactly
// CallWorkspace, for plain and fused leaves on 2–4 workers: two Ã buffers,
// or one for a call of a single block, and when the rows fit one MC block
// one KC×NR sliver per column band, when they span several the one KC×NC
// panel the bands share. A call of one register panel of rows runs
// sequentially and draws LeafWorkspace.
func TestMulAddTasksWorkspaceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	for _, workers := range []int{2, 3, 4} {
		rt := sched.New(workers, 9)
		defer rt.Close()
		for _, dims := range [][3]int{{96, 64, 48}, {40, 30, 20}, {130, 70, 90}, {40, 20, 12}, {3, 9, 7}} {
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
					k.FusedMulAddTasks(rt, m, n, kk, 1, 1, []Product{{A: aOp, B: bOp, Dests: []Dest{{Data: c, Ld: m, Coeff: 1, Rows: m, Cols: n}}}})
				} else {
					k.MulAddTasks(rt, blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, c, m)
				}
				mi := k.impl()
				mcE, kcE, ncE := k.effBlocks(mi, m, n, kk)
				blocks := (m + mcE - 1) / mcE * ((n + ncE - 1) / ncE) * ((kk + kcE - 1) / kcE)
				want := int64(min(blocks, 2)*mcE*kcE + kcE*ncE)
				switch {
				case m <= mi.mr:
					want = k.LeafWorkspace(m, n, kk)
				case m <= mcE:
					want = int64(min(blocks, 2)*mcE*kcE + min(workers, ncE/mi.nr)*kcE*mi.nr)
				}
				if got := k.CallWorkspace(workers, 1, m, n, kk); got != want {
					t.Errorf("workers=%d %v: CallWorkspace %d, want %d", workers, dims, got, want)
				}
				if peak := arena.Peak(); peak != want {
					t.Errorf("workers=%d %v fused=%v: arena peak %d, CallWorkspace %d", workers, dims, fused, peak, want)
				}
				if live := arena.Live(); live != 0 {
					t.Fatalf("workers=%d %v fused=%v: %d arena words leaked", workers, dims, fused, live)
				}
			}
		}
	}
}

// TestBitsIndependentOfBLayout: the sequential nest keeps one B̃ sliver
// when a call's rows fit one MC block and the whole KC×NC panel
// otherwise, and either way every C element sees the same packed words,
// tiles and summation order. Each call runs with MC below m and with
// MC ≥ m (onLayouts) and must give the same bits, each arena peaking at
// LeafWorkspace: plain calls in all four transposes, and fused calls of
// 1–4-term operands into 1–4 destinations, transposed or not, with whole
// extents and with terms and destinations clipped short of the block, as
// a virtually padded level's are — on the scalar and the SIMD tiles, over
// several KC and NC panels.
func TestBitsIndependentOfBLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(506))
	for _, mode := range []Mode{ModeScalar, ModeSIMD} {
		k := &Packed{Mode: mode, KC: 12, NC: 16}
		for _, dims := range [][3]int{{37, 45, 29}, {64, 33, 40}, {9, 70, 13}} {
			m, n, kk := dims[0], dims[1], dims[2]
			for _, ta := range transposes {
				for _, tb := range transposes {
					ar, ac := opDims(ta.IsTrans(), m, kk)
					br, bc := opDims(tb.IsTrans(), kk, n)
					a, b, c0 := fill(rng, ar, ac, ar), fill(rng, br, bc, br), fill(rng, m, n, m)
					want := append([]float64(nil), c0...)
					k.MulAdd(ta, tb, m, n, kk, 1.5, a, ar, b, br, want, m)
					onLayouts(t, fmt.Sprintf("mode=%v %v ta=%v tb=%v plain", mode, dims, ta, tb), k, m, n, kk, [][]float64{want}, func(tk *Packed) [][]float64 {
						c := append([]float64(nil), c0...)
						tk.MulAdd(ta, tb, m, n, kk, 1.5, a, ar, b, br, c, m)
						return [][]float64{c}
					})
				}
			}
			for _, trans := range []bool{false, true} {
				for _, clip := range []int{0, 1, 3} {
					for terms := 1; terms <= 4; terms++ {
						ar, ac := opDims(trans, m, kk)
						br, bc := opDims(trans, kk, n)
						p := Product{A: Operand{Ld: ar, Trans: trans}, B: Operand{Ld: br, Trans: trans}}
						for i := range terms {
							p.A.Terms = append(p.A.Terms, Term{Data: fill(rng, ar, ac, ar), Coeff: float64(1 - 2*(i%2)), Rows: m - i*clip, Cols: kk - i*clip})
							p.B.Terms = append(p.B.Terms, Term{Data: fill(rng, br, bc, br), Coeff: float64(2*(i%2) - 1), Rows: kk - i*clip, Cols: n - i*clip})
						}
						c0 := make([][]float64, 5-terms)
						for d := range c0 {
							c0[d] = fill(rng, m, n, m)
						}
						run := func(tk *Packed) [][]float64 {
							out := make([][]float64, len(c0))
							ds := make([]Dest, len(c0))
							for d := range c0 {
								out[d] = append([]float64(nil), c0[d]...)
								ds[d] = Dest{Data: out[d], Ld: m, Coeff: float64(1 - 2*(d%2)), Rows: m - d*clip, Cols: n - d*clip}
							}
							tk.FusedMulAdd(m, n, kk, -0.5, p.A, p.B, ds)
							return out
						}
						what := fmt.Sprintf("mode=%v %v trans=%v clip=%d terms=%d fused", mode, dims, trans, clip, terms)
						onLayouts(t, what, k, m, n, kk, run(k), run)
					}
				}
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
							tk.FusedMulAddTasks(rt, m, n, kk, 0.75, 1, []Product{{A: aOp, B: bOp, Dests: got}})
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

// TestFusedMulAddTasksPipeline: a record list whose steps outnumber its
// records — small blocks, so every record crosses several KC and NC
// panels and the rows span several MC blocks — runs sequentially and
// through the pipeline on 2- and 3-worker runtimes and writes every
// destination bit for bit as β applied once to each destination and then
// per-record FusedMulAdd calls in order do. Records take 1–4 terms per
// operand and 1–4 of a shared pool of destinations (so several records
// accumulate into each, and each is first written by a different record),
// with clipped terms and clipped, ragged destinations, both transposes and
// β ∈ {0, ¼, 1}; at β = 0 every destination starts as NaN. The arena
// peak is CallWorkspace: on a runtime two Ã buffers and the one KC×NC
// panel the column bands share. A call with α = 0 and one with k = 0 only
// scale. A plain multi-panel MulAddTasks call runs through the same DAG
// and matches MulAdd.
func TestFusedMulAddTasksPipeline(t *testing.T) {
	rt2, rt3 := sched.New(2, 11), sched.New(3, 12)
	defer rt2.Close()
	defer rt3.Close()
	rng := rand.New(rand.NewSource(505))
	const records, pool = 5, 4
	for _, mode := range []Mode{ModeScalar, ModeSIMD} {
		for _, dims := range [][3]int{{37, 45, 29}, {64, 33, 40}} {
			m, n, kk := dims[0], dims[1], dims[2]
			for _, trans := range []bool{false, true} {
				for _, clip := range []int{0, 3} {
					for _, beta := range []float64{0, 0.25, 1} {
						ar, ac := opDims(trans, m, kk)
						br, bc := opDims(trans, kk, n)
						dests := make([][]float64, pool)
						for d := range dests {
							dests[d] = fill(rng, m, n, m+2)
							if beta == 0 {
								dests[d] = nanSlice(len(dests[d]))
							}
						}
						prods := make([]Product, records)
						for r := range prods {
							p := Product{A: Operand{Ld: ar, Trans: trans}, B: Operand{Ld: br, Trans: trans}}
							for i := range r%4 + 1 {
								p.A.Terms = append(p.A.Terms, Term{Data: fill(rng, ar, ac, ar), Coeff: float64(1 - 2*(i%2)), Rows: m - i*clip, Cols: kk})
							}
							for i := range (r+1)%4 + 1 {
								p.B.Terms = append(p.B.Terms, Term{Data: fill(rng, br, bc, br), Coeff: float64(2*(i%2) - 1), Rows: kk - i*clip, Cols: n})
							}
							for i := range (r+2)%4 + 1 {
								d := (r + i) % pool
								p.Dests = append(p.Dests, Dest{Ld: m + 2, Coeff: float64(1 - 2*((r+i)%2)), Rows: m - d*clip, Cols: n - d*clip})
							}
							prods[r] = p
						}
						bind := func(c [][]float64) []Product {
							out := make([]Product, len(prods))
							for r, p := range prods {
								ds := append([]Dest(nil), p.Dests...)
								for i := range ds {
									ds[i].Data = c[(r+i)%pool]
								}
								out[r] = Product{A: p.A, B: p.B, Dests: ds}
							}
							return out
						}
						start := func() [][]float64 {
							c := make([][]float64, pool)
							for d := range c {
								c[d] = append([]float64(nil), dests[d]...)
							}
							return c
						}
						// β once per destination, as the kernel applies it.
						scaled := start()
						for d, x := range scaled {
							scaleRef(x, m+2, m-d*clip, n-d*clip, beta)
						}
						want := start()
						for d := range want {
							copy(want[d], scaled[d])
						}
						seq := &Packed{Mode: mode, MC: 16, KC: 12, NC: 16}
						for _, p := range bind(want) {
							seq.FusedMulAdd(m, n, kk, -0.5, p.A, p.B, p.Dests)
						}
						for _, rt := range []*sched.Runtime{nil, rt2, rt3} {
							var sub sched.Submitter
							workers := 0
							if rt != nil {
								sub, workers = rt, rt.Workers()
							}
							what := fmt.Sprintf("mode=%v %v trans=%v clip=%d β=%g workers=%d", mode, dims, trans, clip, beta, workers)
							got := start()
							tk := &Packed{Mode: mode, MC: 16, KC: 12, NC: 16}
							arena := memtrack.New()
							tk.SetArena(arena)
							tk.FusedMulAddTasks(sub, m, n, kk, -0.5, beta, bind(got))
							sameBits(t, what, got, want)
							mcE, kcE, ncE := tk.effBlocks(tk.impl(), m, n, kk)
							w := tk.CallWorkspace(workers, records, m, n, kk)
							if peak := arena.Peak(); peak != w || workers > 1 && w != int64(2*mcE*kcE+kcE*ncE) {
								t.Fatalf("%s: arena peak %d, CallWorkspace %d, want two Ã buffers and a panel on a runtime", what, peak, w)
							}
							if fc, _, _ := tk.Counters(); fc != records {
								t.Fatalf("%s: %d fused products counted, want %d", what, fc, records)
							}
							// Nothing to multiply: the call only scales.
							for _, call := range []struct {
								name  string
								alpha float64
								kk    int
							}{{"α=0", 0, kk}, {"k=0", -0.5, 0}} {
								got := start()
								tk.FusedMulAddTasks(sub, m, n, call.kk, call.alpha, beta, bind(got))
								sameBits(t, what+" "+call.name, got, scaled)
							}
						}
					}
				}
			}
			// The plain nest: one product, several panels.
			a, b, c0 := fill(rng, m, kk, m), fill(rng, kk, n, kk), fill(rng, m, n, m)
			want := append([]float64(nil), c0...)
			(&Packed{Mode: mode, MC: 16, KC: 12, NC: 16}).MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, 1.5, a, m, b, kk, want, m)
			for _, rt := range []*sched.Runtime{rt2, rt3} {
				got := append([]float64(nil), c0...)
				(&Packed{Mode: mode, MC: 16, KC: 12, NC: 16}).MulAddTasks(rt, blas.NoTrans, blas.NoTrans, m, n, kk, 1.5, a, m, b, kk, got, m)
				for i, w := range want {
					if math.Float64bits(got[i]) != math.Float64bits(w) {
						t.Fatalf("mode=%v %v workers=%d: plain c[%d] = %v (pipeline) vs %v (MulAdd)", mode, dims, rt.Workers(), i, got[i], w)
					}
				}
			}
		}
	}
}

// TestScaleStacked: scale applies β once to each distinct destination
// and to nothing else, whether a pass over all rows runs a column of
// stacked destinations as one block or a pass over rows [lo, hi) runs
// each alone. The destinations are a 2×3 grid of 8×5 blocks of one C,
// each block's Data ending at its last element as matrix.Dense.Slice's
// does: the lower block row clipped to 7 rows, one block listed twice,
// the last block column 3 columns wide above and 2 below (so the two do
// not merge), and one block's capacity ending with its Data (so the
// block under it is not merged into it).
func TestScaleStacked(t *testing.T) {
	const m, n, ld = 8, 5, 17
	rng := rand.New(rand.NewSource(509))
	c0 := fill(rng, ld, 13, ld)
	block := func(c []float64, bi, bj int) Dest {
		d := Dest{Ld: ld, Coeff: 1, Rows: m - bi, Cols: n}
		if bj == 2 {
			d.Cols = 3 - bi
		}
		off, end := bj*n*ld+bi*m, bj*n*ld+bi*m+(d.Cols-1)*ld+d.Rows
		d.Data = c[off:end]
		if bi == 0 && bj == 1 {
			d.Data = c[off:end:end]
		}
		return d
	}
	for _, beta := range []float64{0, 0.25} {
		want := append([]float64(nil), c0...)
		for bi := range 2 {
			for bj := range 3 {
				d := block(want, bi, bj)
				scaleRef(d.Data, ld, d.Rows, d.Cols, beta)
			}
		}
		for _, split := range []int{m, 3} {
			c := append([]float64(nil), c0...)
			prods := []Product{
				{Dests: []Dest{block(c, 0, 0), block(c, 1, 1)}},
				{Dests: []Dest{block(c, 1, 0), block(c, 0, 0)}},
				{Dests: []Dest{block(c, 0, 1), block(c, 0, 2), block(c, 1, 2)}},
			}
			scale(nil, prods, 0, split, n, beta)
			scale(nil, prods, split, m, n, beta)
			sameBits(t, fmt.Sprintf("β=%g rows split at %d", beta, split), [][]float64{c}, [][]float64{want})
		}
	}
}

// scaleRef applies beta to the rows×cols block of c (leading dimension
// ld) as the kernel does: +0.0 at beta = 0, over NaN too.
func scaleRef(c []float64, ld, rows, cols int, beta float64) {
	for j := range cols {
		for i := range rows {
			if beta == 0 {
				c[j*ld+i] = 0
			} else {
				c[j*ld+i] *= beta
			}
		}
	}
}

// nanSlice is n NaN words.
func nanSlice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// sameBits fails t unless every word of got equals want's bit for bit.
func sameBits(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	for d := range want {
		for i, w := range want[d] {
			if math.Float64bits(got[d][i]) != math.Float64bits(w) {
				t.Fatalf("%s: dest %d word %d = %v, want %v", what, d, i, got[d][i], w)
			}
		}
	}
}

// TestTasksPanicReachesCaller: a panic inside a threaded FusedMulAddTasks
// call — in an Ã share task (an A term one column short) or in a column
// band's sweep (a destination one column short) — reaches the caller once
// the DAG has drained, on 2- and 4-worker runtimes, and leaves no arena
// words live; the runtime then runs a fresh call to the sequential bits.
// The short A term panics with the packer's own bounds error: only Ã
// packing reads A.
func TestTasksPanicReachesCaller(t *testing.T) {
	rng := rand.New(rand.NewSource(507))
	const m, n, kk, records = 40, 36, 30, 3
	a, b := fill(rng, m, kk, m), fill(rng, kk, n, kk)
	c0 := fill(rng, m, n, m)
	// prods is the call into c; record short, when not negative, has its
	// A term (shortA) or its destination one column short.
	prods := func(c []float64, short int, shortA bool) []Product {
		out := make([]Product, records)
		for r := range out {
			out[r] = Product{
				A:     Operand{Ld: m, Terms: []Term{{Data: a, Coeff: float64(r + 1), Rows: m, Cols: kk}}},
				B:     Operand{Ld: kk, Terms: []Term{{Data: b, Coeff: -1, Rows: kk, Cols: n}}},
				Dests: []Dest{{Data: c, Ld: m, Coeff: 1, Rows: m, Cols: n}},
			}
		}
		switch {
		case short < 0:
		case shortA:
			out[short].A.Terms = []Term{{Data: a[: m*(kk-1) : m*(kk-1)], Coeff: 1, Rows: m, Cols: kk}}
		default:
			out[short].Dests[0].Data = c[: m*(n-1) : m*(n-1)]
		}
		return out
	}
	want := append([]float64(nil), c0...)
	seq := &Packed{Mode: ModeScalar, MC: 16, KC: 12, NC: 16}
	for _, p := range prods(want, -1, false) {
		seq.FusedMulAdd(m, n, kk, 0.5, p.A, p.B, p.Dests)
	}
	for _, workers := range []int{2, 4} {
		rt := sched.New(workers, 13)
		defer rt.Close()
		cases := []struct {
			name   string
			short  int
			shortA bool
		}{
			{"Ã share", 1, true},
			{"sweep", 1, false},
		}
		for _, tc := range cases {
			what := fmt.Sprintf("workers=%d %s", workers, tc.name)
			tk := &Packed{Mode: ModeScalar, MC: 16, KC: 12, NC: 16}
			arena := memtrack.New()
			tk.SetArena(arena)
			got := func() (v any) {
				defer func() { v = recover() }()
				tk.FusedMulAddTasks(rt, m, n, kk, 0.5, 1, prods(append([]float64(nil), c0...), tc.short, tc.shortA))
				return nil
			}()
			if got == nil {
				t.Fatalf("%s: the panic did not reach the caller", what)
			}
			if _, ok := got.(runtime.Error); tc.shortA && !ok {
				t.Fatalf("%s: recovered %v, want the packer's runtime.Error", what, got)
			}
			if live := arena.Live(); live != 0 {
				t.Fatalf("%s: %d arena words live after the panic", what, live)
			}
			c := append([]float64(nil), c0...)
			tk.FusedMulAddTasks(rt, m, n, kk, 0.5, 1, prods(c, -1, false))
			for i, w := range want {
				if math.Float64bits(c[i]) != math.Float64bits(w) {
					t.Fatalf("%s: after the panic c[%d] = %v, want %v", what, i, c[i], w)
				}
			}
		}
	}
}
