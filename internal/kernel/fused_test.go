package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/memtrack"
	"repro/internal/sched"
)

// The fused differential contract (fused.go): FusedMulAdd must equal
// "materialize the operand combinations with one rounding per added term in
// term order, then MulAdd once per destination at alpha·coeff" — bit for bit
// on either tile (TestFusedScalarBlockCrossing checks both); the looser
// checks (TestFusedSIMDHigham, FuzzFused) hold it to a widened Higham
// bound instead. The widening: the unfused SIMD-vs-scalar bound is
// 2·γ_{k+2}
// (simd_test.go); each fused operand adds (terms−1) pre-roundings per
// element, so two 2-term operands give 2·γ_{k+4} — in general
// 2·γ_{k+2+(tA−1)+(tB−1)}.

// combineTerms materializes Σ γᵢ·termᵢ elementwise over the shared storage
// layout, rounding every product and every added term in term order —
// exactly the order packAFused/packBFused (and their assembly forms) round
// in, so a fused call must match a reference built from this bit for bit. The conversion keeps the compiler from contracting the product and
// sum into one FMA on targets that would.
func combineTerms(terms []Term, n int) []float64 {
	out := make([]float64, n)
	t0 := terms[0]
	for i := range out {
		out[i] = t0.Coeff * t0.Data[i]
	}
	for _, t := range terms[1:] {
		for i := range out {
			out[i] += float64(t.Coeff * t.Data[i])
		}
	}
	return out
}

func boolTrans(tr bool) blas.Transpose {
	if tr {
		return blas.Trans
	}
	return blas.NoTrans
}

// fusedCase is one fused-vs-unfused differential: operand term coefficients,
// destination coefficients, shape, transposes and alpha.
type fusedCase struct {
	m, n, kk  int
	ta, tb    bool
	alpha     float64
	aCoeffs   []float64
	bCoeffs   []float64
	dstCoeffs []float64
}

// runFusedCase drives FusedMulAdd on k and the materialized reference
// (unfused MulAdd on the same kernel, once per destination) on identical
// inputs. exact demands bitwise equality; otherwise the widened Higham
// bound applies. NaN canaries guard every destination's ldc padding.
func runFusedCase(t *testing.T, k *Packed, tc fusedCase, rng *rand.Rand, exact bool) {
	t.Helper()
	m, n, kk := tc.m, tc.n, tc.kk
	ar, ac := opDims(tc.ta, m, kk)
	br, bc := opDims(tc.tb, kk, n)
	lda, ldb, ldc := ar+1, br+2, m+2

	aOp := Operand{Ld: lda, Trans: tc.ta}
	for _, g := range tc.aCoeffs {
		aOp.Terms = append(aOp.Terms, Term{Data: fill(rng, ar, ac, lda), Coeff: g, Rows: m, Cols: kk})
	}
	bOp := Operand{Ld: ldb, Trans: tc.tb}
	for _, g := range tc.bCoeffs {
		bOp.Terms = append(bOp.Terms, Term{Data: fill(rng, br, bc, ldb), Coeff: g, Rows: kk, Cols: n})
	}

	c0s := make([][]float64, len(tc.dstCoeffs))
	got := make([]Dest, len(tc.dstCoeffs))
	for i, g := range tc.dstCoeffs {
		c0s[i] = fill(rng, m, n, ldc)
		got[i] = Dest{Data: append([]float64(nil), c0s[i]...), Ld: ldc, Coeff: g, Rows: m, Cols: n}
	}
	k.FusedMulAdd(m, n, kk, tc.alpha, aOp, bOp, got)
	outs := make([][]float64, len(got))
	for i := range got {
		outs[i] = got[i].Data
	}
	what := fmt.Sprintf("ta=%v tb=%v m=%d n=%d k=%d aT=%v bT=%v", tc.ta, tc.tb, m, n, kk, tc.aCoeffs, tc.bCoeffs)
	onLayouts(t, what, k, m, n, kk, outs, func(tk *Packed) [][]float64 {
		ds := make([]Dest, len(got))
		out := make([][]float64, len(got))
		for i, d := range got {
			out[i] = append([]float64(nil), c0s[i]...)
			ds[i] = Dest{Data: out[i], Ld: d.Ld, Coeff: d.Coeff, Rows: d.Rows, Cols: d.Cols}
		}
		tk.FusedMulAdd(m, n, kk, tc.alpha, aOp, bOp, ds)
		return out
	})

	refA := combineTerms(aOp.Terms, lda*ac)
	refB := combineTerms(bOp.Terms, ldb*bc)
	ta, tb := boolTrans(tc.ta), boolTrans(tc.tb)
	var absProd []float64
	if !exact {
		absProd = absMulOracle(ta, tb, m, n, kk, refA, lda, refB, ldb)
	}
	for di, g := range tc.dstCoeffs {
		want := append([]float64(nil), c0s[di]...)
		k.MulAdd(ta, tb, m, n, kk, tc.alpha*g, refA, lda, refB, ldb, want, ldc)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				gv, wv := got[di].Data[j*ldc+i], want[j*ldc+i]
				if exact {
					if math.Float64bits(gv) != math.Float64bits(wv) {
						t.Fatalf("ta=%v tb=%v m=%d n=%d k=%d aT=%v bT=%v dst=%d coeff=%g: bitwise mismatch at (%d,%d): %x vs %x",
							tc.ta, tc.tb, m, n, kk, tc.aCoeffs, tc.bCoeffs, di, g, i, j,
							math.Float64bits(gv), math.Float64bits(wv))
					}
					continue
				}
				// The widened bound: 2·γ_{k+2+(tA−1)+(tB−1)}·|α·coeff|·(|Ã|·|B̃|)_{ij}
				// plus a few ulps for the C₀ accumulate (absProd is m×n dense,
				// the destinations use ldc).
				gHi := 2 * gammaN(kk+2+(len(tc.aCoeffs)-1)+(len(tc.bCoeffs)-1))
				bound := gHi*math.Abs(tc.alpha*g)*absProd[j*m+i] + 4*0x1p-53*math.Abs(c0s[di][j*ldc+i]) + 1e-300
				if d := math.Abs(gv - wv); d > bound {
					t.Fatalf("ta=%v tb=%v m=%d n=%d k=%d dst=%d: |fused-ref|=%g > tol %g at (%d,%d)",
						tc.ta, tc.tb, m, n, kk, di, d, bound, i, j)
				}
			}
		}
		checkPadding(t, got[di].Data, m, n, ldc)
	}
}

var fusedSigns = [][2]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}}

// TestFusedCompatBitwiseExhaustive is the satellite's exhaustive sweep on
// the Compat (legacy-blocked, scalar) kernel: every (m mod 8, n mod 4)
// fringe class × all four transpose combinations × all four sign patterns
// per operand, two destinations with opposite signs. Bit-for-bit.
func TestFusedCompatBitwiseExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	k := &Packed{Compat: true}
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			for dm := 0; dm < SIMDTileMR; dm++ {
				for dn := 0; dn < SIMDTileNR; dn++ {
					for _, sa := range fusedSigns {
						for _, sb := range fusedSigns {
							runFusedCase(t, k, fusedCase{
								m: SIMDTileMR + dm, n: SIMDTileNR + dn, kk: 19,
								ta: ta, tb: tb, alpha: 1.5,
								aCoeffs:   sa[:],
								bCoeffs:   sb[:],
								dstCoeffs: []float64{1, -1},
							}, rng, true)
						}
					}
				}
			}
		}
	}
}

// TestFusedScalarBlockCrossing drives tiny-block kernels so every fused
// call crosses jc/pc/ic block boundaries, with 4-term / 4-destination
// records. Still bit-for-bit against the unfused kernel of the same tile:
// the tile-buffer capture preserves single-destination rounding per
// destination no matter how many destinations share the sweep, because
// the buffered scatter rounds like the tile's own write-out — c + α·acc
// rounded twice on the scalar tile, once (FMA) on the SIMD tile. The
// SIMD-moded kernel runs the scalar tile off-host; the check holds either
// way.
func TestFusedScalarBlockCrossing(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, k := range []*Packed{
		{Mode: ModeScalar, MC: 2 * MR, KC: 3, NC: 2 * NR},
		{Mode: ModeSIMD, MC: 2 * SIMDTileMR, KC: 3, NC: 2 * SIMDTileNR},
	} {
		fusedBlockCrossing(t, k, rng)
	}
}

func fusedBlockCrossing(t *testing.T, k *Packed, rng *rand.Rand) {
	t.Helper()
	shapes := [][3]int{{1, 1, 1}, {5, 3, 7}, {9, 7, 13}, {13, 11, 8}, {17, 9, 19}}
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			for _, s := range shapes {
				runFusedCase(t, k, fusedCase{
					m: s[0], n: s[1], kk: s[2],
					ta: ta, tb: tb, alpha: -0.75,
					aCoeffs:   []float64{1, -1, -1, 1},
					bCoeffs:   []float64{-1, 1, 1, 1},
					dstCoeffs: []float64{1, -1, 1, 1},
				}, rng, true)
				runFusedCase(t, k, fusedCase{
					m: s[0], n: s[1], kk: s[2],
					ta: ta, tb: tb, alpha: 2,
					aCoeffs:   []float64{1},
					bCoeffs:   []float64{1, -1},
					dstCoeffs: []float64{-1},
				}, rng, true)
			}
		}
	}
}

// TestFusedSIMDHigham exercises the SIMD dispatch (multi-destination tile
// on full tiles, buffer capture on ragged ones) against the
// materialized reference under the widened bound 2·γ_{k+4} for 2-term
// operands. Off-host ModeSIMD degrades to scalar; the check stays valid.
func TestFusedSIMDHigham(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	k := &Packed{Mode: ModeSIMD}
	// Full-tile shapes (multi-destination eligible), fringe shapes, and
	// block-crossing sizes.
	shapes := [][3]int{
		{SIMDTileMR, SIMDTileNR, 16}, {2 * SIMDTileMR, 2 * SIMDTileNR, 32},
		{SIMDTileMR + 1, SIMDTileNR + 1, 33}, {3*SIMDTileMR - 1, 3*SIMDTileNR - 1, 37},
		{64, 48, 64}, {129, 65, 300},
	}
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			for _, s := range shapes {
				for _, sa := range fusedSigns {
					runFusedCase(t, k, fusedCase{
						m: s[0], n: s[1], kk: s[2],
						ta: ta, tb: tb, alpha: 1.25,
						aCoeffs:   sa[:],
						bCoeffs:   []float64{1, -1},
						dstCoeffs: []float64{1, -1},
					}, rng, false)
				}
				// Four destinations and four-term operands: the widest
				// records of two fused levels.
				runFusedCase(t, k, fusedCase{
					m: s[0], n: s[1], kk: s[2],
					ta: ta, tb: tb, alpha: -1,
					aCoeffs:   []float64{1, -1, 1, -1},
					bCoeffs:   []float64{1, 1, -1, -1},
					dstCoeffs: []float64{1, -1, -1, 1},
				}, rng, false)
			}
		}
	}
}

// TestFusedSingleTermIsMulAdd pins the degenerate fused call (one term,
// coefficient 1, one destination) to the plain MulAdd path bit for bit on
// every dispatch mode: the same loop nest, tile and write-out, with the
// operands packed by packA/packB or, on AVX2, by the one-term assembly
// packers, whose 1·x is exact.
func TestFusedSingleTermIsMulAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, mode := range []Mode{ModeAuto, ModeScalar, ModeSIMD} {
		k := &Packed{Mode: mode}
		for _, ta := range []bool{false, true} {
			runFusedCase(t, k, fusedCase{
				m: 33, n: 17, kk: 40,
				ta: ta, tb: !ta, alpha: 1.75,
				aCoeffs:   []float64{1},
				bCoeffs:   []float64{1},
				dstCoeffs: []float64{1},
			}, rng, true)
		}
	}
}

// TestFusedWorkspaceExact: a fused call draws exactly the two packed panels
// MulAdd draws — LeafWorkspace is unchanged and the arena peak must equal
// it. This is the kernel-side half of the Plan/KernelWords == memtrack-peak
// acceptance check (the strassen side asserts the whole plan).
func TestFusedWorkspaceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	shapes := [][3]int{{1, 1, 1}, {8, 4, 8}, {9, 5, 3}, {64, 64, 64}, {130, 70, 90}}
	for _, mode := range []Mode{ModeScalar, ModeSIMD} {
		for _, s := range shapes {
			m, n, kk := s[0], s[1], s[2]
			k := &Packed{Mode: mode, MC: 32, KC: 24, NC: 40}
			tr := memtrack.New()
			k.SetArena(tr)
			aOp := Operand{Ld: m, Terms: []Term{
				{Data: fill(rng, m, kk, m), Coeff: 1, Rows: m, Cols: kk},
				{Data: fill(rng, m, kk, m), Coeff: -1, Rows: m, Cols: kk},
			}}
			bOp := Operand{Ld: kk, Terms: []Term{
				{Data: fill(rng, kk, n, kk), Coeff: 1, Rows: kk, Cols: n},
				{Data: fill(rng, kk, n, kk), Coeff: 1, Rows: kk, Cols: n},
			}}
			dests := []Dest{
				{Data: make([]float64, m*n), Ld: m, Coeff: 1, Rows: m, Cols: n},
				{Data: make([]float64, m*n), Ld: m, Coeff: -1, Rows: m, Cols: n},
			}
			k.FusedMulAdd(m, n, kk, 1, aOp, bOp, dests)
			if got, want := tr.Peak(), k.LeafWorkspace(m, n, kk); got != want {
				t.Errorf("mode=%v %v: arena peak %d, LeafWorkspace %d", mode, s, got, want)
			}
			if tr.Live() != 0 {
				t.Errorf("mode=%v %v: %d words leaked", mode, s, tr.Live())
			}
		}
	}
}

// TestFusedDegenerateArgs: empty dims, zero alpha, and empty operand/dest
// lists are complete no-ops that must not touch any destination.
func TestFusedDegenerateArgs(t *testing.T) {
	k := &Packed{}
	a := Operand{Ld: 2, Terms: []Term{{Data: []float64{1, 2, 3, 4}, Coeff: 1, Rows: 2, Cols: 2}}}
	b := Operand{Ld: 2, Terms: []Term{{Data: []float64{5, 6, 7, 8}, Coeff: 1, Rows: 2, Cols: 2}}}
	c := []float64{math.NaN(), 1, 2, math.Inf(1)}
	d := []Dest{{Data: c, Ld: 2, Coeff: 1, Rows: 2, Cols: 2}}
	k.FusedMulAdd(0, 2, 2, 1, a, b, d)
	k.FusedMulAdd(2, 0, 2, 1, a, b, d)
	k.FusedMulAdd(2, 2, 0, 1, a, b, d)
	k.FusedMulAdd(2, 2, 2, 0, a, b, d)
	k.FusedMulAdd(2, 2, 2, 1, Operand{Ld: 2}, b, d)
	k.FusedMulAdd(2, 2, 2, 1, a, Operand{Ld: 2}, d)
	k.FusedMulAdd(2, 2, 2, 1, a, b, nil)
	if !math.IsNaN(c[0]) || c[1] != 1 || c[2] != 2 || !math.IsInf(c[3], 1) {
		t.Fatalf("degenerate FusedMulAdd touched C: %v", c)
	}
	if products, _, _ := k.Counters(); products != 0 {
		t.Fatalf("degenerate calls counted: %d", products)
	}
}

// TestFusedCounters: served fused calls count one product each, as a
// MulAdd does, and fold their packed words into the packing counters.
func TestFusedCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	k := &Packed{Mode: ModeScalar}
	m, n, kk := 12, 8, 16
	aOp := Operand{Ld: m, Terms: []Term{
		{Data: fill(rng, m, kk, m), Coeff: 1, Rows: m, Cols: kk}, {Data: fill(rng, m, kk, m), Coeff: -1, Rows: m, Cols: kk},
	}}
	bOp := Operand{Ld: kk, Terms: []Term{{Data: fill(rng, kk, n, kk), Coeff: 1, Rows: kk, Cols: n}}}
	dests := []Dest{{Data: make([]float64, m*n), Ld: m, Coeff: 1, Rows: m, Cols: n}}
	k.FusedMulAdd(m, n, kk, 1, aOp, bOp, dests)
	k.FusedMulAdd(m, n, kk, 1, aOp, bOp, dests)
	k.MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, 1, aOp.Terms[0].Data, m, bOp.Terms[0].Data, kk, dests[0].Data, m)
	products, pa, pb := k.Counters()
	if products != 3 {
		t.Fatalf("Counters() products = %d, want 3", products)
	}
	if wantA := int64(3 * m * kk); pa != wantA {
		t.Errorf("packed A words = %d, want %d", pa, wantA)
	}
	if wantB := int64(3 * kk * n); pb != wantB {
		t.Errorf("packed B words = %d, want %d", pb, wantB)
	}
}

// FuzzFused differential-fuzzes FusedMulAdd against the materialized
// reference over shape, transposes, term/destination counts, ±1 sign
// patterns, blocking and dispatch mode, and FusedMulAddTasks at β, its
// call split into 1–3 products over the same destinations, against β
// applied once to each destination and then the β = 1 call, on 0–3
// workers. CI runs a 10s smoke.
func FuzzFused(f *testing.F) {
	f.Add(uint8(8), uint8(4), uint8(16), false, false, uint8(0x1b), uint8(2), int64(1), uint8(0), uint8(0), uint8(0), 0.0, uint8(0))
	f.Add(uint8(9), uint8(5), uint8(3), true, false, uint8(0x42), uint8(1), int64(2), uint8(1), uint8(1), uint8(0), 0.25, uint8(1))
	f.Add(uint8(16), uint8(8), uint8(32), false, true, uint8(0xff), uint8(4), int64(3), uint8(2), uint8(0), uint8(0), -1.0, uint8(2))
	f.Add(uint8(1), uint8(1), uint8(1), true, true, uint8(0x00), uint8(3), int64(4), uint8(3), uint8(1), uint8(0), 1.0, uint8(1))
	f.Add(uint8(33), uint8(17), uint8(40), false, false, uint8(0x7c), uint8(2), int64(5), uint8(4), uint8(2), uint8(0), 2.5, uint8(2))
	f.Add(uint8(37), uint8(29), uint8(20), false, false, uint8(0x5a), uint8(3), int64(6), uint8(2), uint8(0), uint8(1), 0.0, uint8(2))
	f.Add(uint8(40), uint8(45), uint8(19), true, false, uint8(0x3f), uint8(2), int64(7), uint8(4), uint8(1), uint8(2), 0.0, uint8(1))
	f.Add(uint8(47), uint8(13), uint8(33), false, true, uint8(0xa5), uint8(1), int64(8), uint8(0), uint8(5), uint8(3), 0.75, uint8(2))
	f.Add(uint8(9), uint8(47), uint8(8), true, true, uint8(0x0f), uint8(0), int64(9), uint8(3), uint8(0), uint8(2), -0.5, uint8(0))
	f.Add(uint8(44), uint8(40), uint8(36), false, false, uint8(0x3c), uint8(3), int64(10), uint8(4), uint8(0), uint8(3), 0.0, uint8(2))

	f.Fuzz(func(t *testing.T, m8, n8, k8 uint8, ta, tb bool, signBits, destBits uint8, seed int64, blk, mc, workers uint8, beta float64, split uint8) {
		m, n, kk := int(m8%48)+1, int(n8%48)+1, int(k8%48)+1
		var k *Packed
		switch blk % 5 {
		case 0:
			k = &Packed{}
		case 1:
			k = &Packed{Compat: true}
		case 2:
			k = &Packed{MC: 2 * MR, KC: 3, NC: 2 * NR}
		case 3:
			k = &Packed{Mode: ModeSIMD}
		default:
			k = &Packed{Mode: ModeScalar, MC: 16, KC: 8, NC: 12}
		}
		sign := func(bit uint8) float64 {
			if bit != 0 {
				return -1
			}
			return 1
		}
		nA, nB := int(signBits&3)+1, int(signBits>>2&3)+1
		nD := int(destBits%4) + 1
		rng := rand.New(rand.NewSource(seed))
		ar, ac := opDims(ta, m, kk)
		br, bc := opDims(tb, kk, n)
		lda, ldb, ldc := ar, br+1, m+1

		mk := func(rows, cols, ld int) []float64 {
			v := make([]float64, ld*cols)
			for j := 0; j < cols; j++ {
				for i := 0; i < rows; i++ {
					v[j*ld+i] = rng.Float64()*2 - 1
				}
			}
			return v
		}
		aOp := Operand{Ld: lda, Trans: ta}
		for i := 0; i < nA; i++ {
			aOp.Terms = append(aOp.Terms, Term{Data: mk(ar, ac, lda), Coeff: sign(signBits >> (4 + i) & 1), Rows: m, Cols: kk})
		}
		bOp := Operand{Ld: ldb, Trans: tb}
		for i := 0; i < nB; i++ {
			bOp.Terms = append(bOp.Terms, Term{Data: mk(br, bc, ldb), Coeff: sign(destBits >> (2 + i) & 1), Rows: kk, Cols: n})
		}
		alpha := [3]float64{1, -0.5, 2.25}[blk%3]
		c0s := make([][]float64, nD)
		dests := make([]Dest, nD)
		for i := range dests {
			c0s[i] = mk(m, n, ldc)
			dests[i] = Dest{Data: append([]float64(nil), c0s[i]...), Ld: ldc, Coeff: sign(uint8(seed) >> i & 1), Rows: m, Cols: n}
		}
		k.FusedMulAdd(m, n, kk, alpha, aOp, bOp, dests)
		// The B̃ layout: MC drawn from one register panel up to every row
		// (one sliver kept) moves no bit.
		outs := make([][]float64, nD)
		for i := range dests {
			outs[i] = dests[i].Data
		}
		what := fmt.Sprintf("m=%d n=%d k=%d ta=%v tb=%v nA=%d nB=%d nD=%d blk=%d", m, n, kk, ta, tb, nA, nB, nD, blk%5)
		onLayout(t, what, drawMC(k, m, mc), m, n, kk, outs, func(tk *Packed) [][]float64 {
			ds := make([]Dest, nD)
			out := make([][]float64, nD)
			for i, d := range dests {
				out[i] = append([]float64(nil), c0s[i]...)
				ds[i] = Dest{Data: out[i], Ld: d.Ld, Coeff: d.Coeff, Rows: d.Rows, Cols: d.Cols}
			}
			tk.FusedMulAdd(m, n, kk, alpha, aOp, bOp, ds)
			return out
		})
		// The threaded nest: the same bits as the sequential one, with the
		// arena peaking at CallWorkspace.
		if w := int(workers % 4); w > 0 {
			rt := sched.New(w, seed)
			defer rt.Close()
			tk := drawMC(k, m, mc)
			onRun(t, fmt.Sprintf("%s workers=%d", what, w), tk, tk.CallWorkspace(w, 1, m, n, kk), outs, func(tk *Packed) [][]float64 {
				ds := make([]Dest, nD)
				out := make([][]float64, nD)
				for i, d := range dests {
					out[i] = append([]float64(nil), c0s[i]...)
					ds[i] = Dest{Data: out[i], Ld: d.Ld, Coeff: d.Coeff, Rows: d.Rows, Cols: d.Cols}
				}
				tk.FusedMulAddTasks(rt, m, n, kk, alpha, 1, []Product{{A: aOp, B: bOp, Dests: ds}})
				return out
			})
		}

		// β and a split call: products 1–3 each list a random subset of
		// the destinations (maybe none), so each destination is first
		// written by whichever lists it first; at β = 0 the destinations
		// start as NaN.
		if !math.IsNaN(beta) && !math.IsInf(beta, 0) {
			parts := int(split%3) + 1
			lists := make([][]int, parts)
			on := make([]bool, nD)
			live := 0
			for p := range lists {
				for i := range nD {
					if rng.Intn(2) == 0 {
						lists[p] = append(lists[p], i)
						on[i] = true
					}
				}
				if len(lists[p]) > 0 {
					live++
				}
			}
			bind := func(cs [][]float64) []Product {
				ps := make([]Product, parts)
				for p, l := range lists {
					ps[p] = Product{A: aOp, B: bOp}
					for _, i := range l {
						ps[p].Dests = append(ps[p].Dests, Dest{Data: cs[i], Ld: ldc, Coeff: dests[i].Coeff, Rows: m, Cols: n})
					}
				}
				return ps
			}
			start := func() [][]float64 {
				cs := make([][]float64, nD)
				for i := range cs {
					cs[i] = append([]float64(nil), c0s[i]...)
					if beta == 0 {
						cs[i] = nanSlice(len(cs[i]))
					}
				}
				return cs
			}
			want := start()
			for i, c := range want {
				if on[i] {
					scaleRef(c, ldc, m, n, beta)
				}
			}
			k.FusedMulAddTasks(nil, m, n, kk, alpha, 1, bind(want))
			w := int(workers % 4)
			var sub sched.Submitter
			if w > 0 {
				rt := sched.New(w, seed)
				defer rt.Close()
				sub = rt
			}
			tk := drawMC(k, m, mc)
			onRun(t, fmt.Sprintf("%s β=%g parts=%d workers=%d", what, beta, parts, w), tk, tk.CallWorkspace(w, live, m, n, kk), want, func(tk *Packed) [][]float64 {
				got := start()
				tk.FusedMulAddTasks(sub, m, n, kk, alpha, beta, bind(got))
				return got
			})
		}

		refA := combineTerms(aOp.Terms, lda*ac)
		refB := combineTerms(bOp.Terms, ldb*bc)
		tra, trb := boolTrans(ta), boolTrans(tb)
		absProd := absMulOracle(tra, trb, m, n, kk, refA, lda, refB, ldb)
		for di := range dests {
			want := append([]float64(nil), c0s[di]...)
			k.MulAdd(tra, trb, m, n, kk, alpha*dests[di].Coeff, refA, lda, refB, ldb, want, ldc)
			for j := 0; j < n; j++ {
				for i := 0; i < m; i++ {
					g := 2 * gammaN(kk+2+(nA-1)+(nB-1))
					tol := g*math.Abs(alpha)*absProd[j*m+i] + 4*0x1p-53*math.Abs(c0s[di][j*ldc+i]) + 1e-300
					if d := math.Abs(dests[di].Data[j*ldc+i] - want[j*ldc+i]); d > tol {
						t.Fatalf("m=%d n=%d k=%d ta=%v tb=%v nA=%d nB=%d nD=%d blk=%d dst=%d: diff %g > %g at (%d,%d)",
							m, n, kk, ta, tb, nA, nB, nD, blk%5, di, d, tol, i, j)
					}
				}
			}
		}
	})
}
