package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/memtrack"
)

// SIMD correctness moves from bit-equality to a forward-error bound: the
// FMA tile contracts each multiply-add into one rounding, so results
// differ from the scalar tile in the last bits while both stay within
// Higham's DGEMM bound (Accuracy and Stability of Numerical Algorithms,
// §3.5): |computed − exact| ≤ γ_{k+2}·(|α|·|A|·|B|)_{ij} elementwise (the
// +2 absorbs the alpha application and the C accumulate). The difference
// between any two conforming implementations is bounded by twice that.

// gammaN is Higham's γ_n = n·u/(1−n·u) for unit roundoff u = 2⁻⁵³.
func gammaN(n int) float64 {
	const u = 0x1p-53
	nu := float64(n) * u
	return nu / (1 - nu)
}

// highamDiffTol returns the elementwise tolerance for comparing two
// conforming DGEMM implementations: 2·γ_{k+2}·(|α|·|A|·|B|)_{ij} plus a
// few ulps of the inputs' contribution for the β/C₀ handling.
func highamDiffTol(absProd []float64, c0 []float64, i int, alpha float64, kk int) float64 {
	g := 2 * gammaN(kk+2)
	return g*math.Abs(alpha)*absProd[i] + 4*0x1p-53*math.Abs(c0[i]) + 1e-300
}

// absMulOracle computes (|op(A)|·|op(B)|)[i,j] with the naive kernel —
// the magnitude term the Higham bound scales.
func absMulOracle(ta, tb blas.Transpose, m, n, kk int, a []float64, lda int, b []float64, ldb int) []float64 {
	absA := make([]float64, len(a))
	for i, v := range a {
		absA[i] = math.Abs(v)
	}
	absB := make([]float64, len(b))
	for i, v := range b {
		absB[i] = math.Abs(v)
	}
	out := make([]float64, m*n)
	blas.NaiveKernel{}.MulAdd(ta, tb, m, n, kk, 1, absA, lda, absB, ldb, out, m)
	return out
}

// TestSIMDvsScalarHigham is the SIMD-vs-scalar differential: identical
// inputs through the SIMD-dispatched and scalar-pinned kernels must agree
// elementwise under the Higham bound, for all four transpose combinations
// and shapes covering every fringe class of the 8×4 tile (m mod 8 and
// n mod 4 from 0 to tile−1), plus multi-block shapes that cross MC/KC/NC
// boundaries.
func TestSIMDvsScalarHigham(t *testing.T) {
	if !HasSIMD() {
		t.Skipf("host has no SIMD micro-kernel (ISA %s)", SIMDISA())
	}
	rng := rand.New(rand.NewSource(42))
	simd := &Packed{Mode: ModeSIMD}
	scalar := &Packed{Mode: ModeScalar}

	shapes := [][3]int{
		// Every fringe class around one tile.
		{8, 4, 16}, {9, 4, 16}, {15, 4, 16}, {16, 5, 16}, {8, 7, 16},
		{1, 1, 1}, {7, 3, 5}, {3, 9, 33},
		// Around the register tile at larger k.
		{17, 13, 100}, {24, 12, 257},
		// Crossing the default cache blocks.
		{300, 129, 300}, {129, 300, 513},
	}
	alphas := []float64{1, -0.5, 2.25}
	for _, ta := range transposes {
		for _, tb := range transposes {
			for _, alpha := range alphas {
				for _, s := range shapes {
					m, n, kk := s[0], s[1], s[2]
					ar, ac := opDims(ta.IsTrans(), m, kk)
					br, bc := opDims(tb.IsTrans(), kk, n)
					a := fill(rng, ar, ac, ar)
					b := fill(rng, br, bc, br)
					c0 := fill(rng, m, n, m)
					got := append([]float64(nil), c0...)
					want := append([]float64(nil), c0...)
					simd.MulAdd(ta, tb, m, n, kk, alpha, a, ar, b, br, got, m)
					scalar.MulAdd(ta, tb, m, n, kk, alpha, a, ar, b, br, want, m)
					absProd := absMulOracle(ta, tb, m, n, kk, a, ar, b, br)
					for i := range got {
						tol := highamDiffTol(absProd, c0, i, alpha, kk)
						if d := math.Abs(got[i] - want[i]); d > tol {
							t.Fatalf("ta=%v tb=%v alpha=%g %v: |simd-scalar|=%g > Higham tol %g at %d",
								ta, tb, alpha, s, d, tol, i)
						}
					}
				}
			}
		}
	}
}

// TestSIMDDegenerateArgs pins the k=0 / alpha=0 contract on the SIMD
// path: both are complete no-ops that must not touch C (C may even hold
// NaN padding).
func TestSIMDDegenerateArgs(t *testing.T) {
	simd := &Packed{Mode: ModeSIMD} // scalar fallback on non-SIMD hosts is fine: contract is identical
	c := []float64{math.NaN(), 1, 2, math.Inf(1)}
	a := []float64{1, 2}
	b := []float64{3, 4}
	simd.MulAdd(blas.NoTrans, blas.NoTrans, 2, 2, 0, 1.5, a, 2, b, 2, c, 2)
	simd.MulAdd(blas.NoTrans, blas.NoTrans, 2, 2, 1, 0, a, 2, b, 2, c, 2)
	simd.MulAdd(blas.NoTrans, blas.NoTrans, 0, 2, 1, 1, a, 2, b, 2, c, 2)
	simd.MulAdd(blas.NoTrans, blas.NoTrans, 2, 0, 1, 1, a, 2, b, 2, c, 2)
	if !math.IsNaN(c[0]) || c[1] != 1 || c[2] != 2 || !math.IsInf(c[3], 1) {
		t.Fatalf("degenerate MulAdd touched C: %v", c)
	}
}

// TestSIMDFringeTail verifies that ragged tiles run the SIMD tile: a shape
// one short of the tile in both dimensions must count all nine tiles as
// SIMD (a scalar tile on a SIMD host is a mis-dispatch), match the oracle,
// and leave the NaN canaries past m and past n untouched — the tile runs
// over zero-padded panels, but only the valid rows/cols are written out.
func TestSIMDFringeTail(t *testing.T) {
	if !HasSIMD() {
		t.Skipf("host has no SIMD micro-kernel (ISA %s)", SIMDISA())
	}
	rng := rand.New(rand.NewSource(43))
	k := &Packed{Mode: ModeSIMD}
	m, n, kk := 3*SIMDTileMR-1, 3*SIMDTileNR-1, 37
	ldc := m + 3
	a := fill(rng, m, kk, m)
	b := fill(rng, kk, n, kk)
	got := fill(rng, m, n+1, ldc)
	for i := 0; i < m; i++ {
		got[n*ldc+i] = math.NaN() // column n: canaries past n
	}
	want := append([]float64(nil), got...)
	k.MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, got, ldc)
	blas.NaiveKernel{}.MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, want, ldc)
	if d := maxAbsDiff(t, got, want, m, n, ldc); d > 1e-12 {
		t.Fatalf("fringe shape m=%d n=%d: max diff %g", m, n, d)
	}
	checkPadding(t, got, m, n+1, ldc)
	checkPadding(t, got[n*ldc:], 0, 1, ldc)
	if simd, scalar := k.TileCounters(); simd != 9 || scalar != 0 {
		t.Fatalf("fringe shape: simd=%d scalar=%d tiles, want 9 and 0", simd, scalar)
	}
}

// TestRaggedTilePositionIndependent: an element must round the same whether
// its register tile is full or ragged. For every fringe offset dm < 8,
// dn < 4, all transposes and α ∈ {1, −1.25}, the leading m×n block of an
// (m+dm)×(n+dn) product must equal the m×n product bit for bit. m×n is
// ragged in both dimensions, so its last tile row and column move between
// ragged tiles of every size and full tiles as dm and dn grow. Both the
// dispatched tile and the scalar tile are checked, through MulAdd and
// through FusedMulAdd with one to four destinations — from two on, the
// SIMD tile's full tiles take the multi-destination assembly and its
// ragged ones the buffered scatter, which must round alike. The fused calls also
// run at the large shape with every destination's extent clipped to m×n:
// a clipped tile must round like a full one and write nothing past the
// extent.
func TestRaggedTilePositionIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	m, n, kk := 2*SIMDTileMR+1, SIMDTileNR+1, 19
	for _, mode := range []Mode{ModeAuto, ModeScalar} {
		k := &Packed{Mode: mode}
		for _, ta := range transposes {
			for _, tb := range transposes {
				for _, alpha := range []float64{1, -1.25} {
					for dm := 0; dm < SIMDTileMR; dm++ {
						for dn := 0; dn < SIMDTileNR; dn++ {
							checkPositionIndependent(t, k, rng, ta, tb, m, n, dm, dn, kk, alpha)
						}
					}
				}
			}
		}
	}
}

// checkPositionIndependent runs one (dm, dn) case of
// TestRaggedTilePositionIndependent. The m×n call reads the same operand
// storage as the large one (op(A)'s leading m rows and op(B)'s leading n
// columns sit at the same offsets under the large call's leading
// dimensions).
func checkPositionIndependent(t *testing.T, k *Packed, rng *rand.Rand, ta, tb blas.Transpose, m, n, dm, dn, kk int, alpha float64) {
	t.Helper()
	bm, bn := m+dm, n+dn
	ar, ac := opDims(ta.IsTrans(), bm, kk)
	br, bc := opDims(tb.IsTrans(), kk, bn)
	a := fill(rng, ar, ac, ar)
	b := fill(rng, br, bc, br)
	c0 := fill(rng, bm, bn, bm)
	big := append([]float64(nil), c0...)
	small := append([]float64(nil), c0...)
	k.MulAdd(ta, tb, bm, bn, kk, alpha, a, ar, b, br, big, bm)
	k.MulAdd(ta, tb, m, n, kk, alpha, a, ar, b, br, small, bm)
	requireLeadingBlockEqual(t, "MulAdd", big, small, m, n, bm, dm, dn)

	// Fused: two-term operands over the same storage, 1–4 destinations,
	// unclipped and clipped.
	a2, b2 := fill(rng, ar, ac, ar), fill(rng, br, bc, br)
	aOp := Operand{Ld: ar, Trans: ta.IsTrans(), Terms: []Term{
		{Data: a, Coeff: 1, Rows: bm, Cols: kk}, {Data: a2, Coeff: -1, Rows: bm, Cols: kk}}}
	bOp := Operand{Ld: br, Trans: tb.IsTrans(), Terms: []Term{
		{Data: b, Coeff: -1, Rows: kk, Cols: bn}, {Data: b2, Coeff: 1, Rows: kk, Cols: bn}}}
	for _, coeffs := range [][]float64{{-1}, {1, -1}, {1, -1, 1}, {-1, 1, 1, -1}} {
		bigD := make([]Dest, len(coeffs))
		smallD := make([]Dest, len(coeffs))
		clipD := make([]Dest, len(coeffs))
		for i, g := range coeffs {
			bigD[i] = Dest{Data: append([]float64(nil), c0...), Ld: bm, Coeff: g, Rows: bm, Cols: bn}
			smallD[i] = Dest{Data: append([]float64(nil), c0...), Ld: bm, Coeff: g, Rows: m, Cols: n}
			clipD[i] = Dest{Data: append([]float64(nil), c0...), Ld: bm, Coeff: g, Rows: m, Cols: n}
		}
		k.FusedMulAdd(bm, bn, kk, alpha, aOp, bOp, bigD)
		k.FusedMulAdd(m, n, kk, alpha, aOp, bOp, smallD)
		k.FusedMulAdd(bm, bn, kk, alpha, aOp, bOp, clipD)
		for i := range coeffs {
			requireLeadingBlockEqual(t, "FusedMulAdd", bigD[i].Data, smallD[i].Data, m, n, bm, dm, dn)
			requireLeadingBlockEqual(t, "clipped FusedMulAdd", bigD[i].Data, clipD[i].Data, m, n, bm, dm, dn)
			for j := 0; j < bn; j++ {
				for r := 0; r < bm; r++ {
					if (r >= m || j >= n) && math.Float64bits(clipD[i].Data[j*bm+r]) != math.Float64bits(c0[j*bm+r]) {
						t.Fatalf("clipped FusedMulAdd dm=%d dn=%d: (%d,%d) past the %d×%d extent was written", dm, dn, r, j, m, n)
					}
				}
			}
		}
	}
}

func requireLeadingBlockEqual(t *testing.T, what string, big, small []float64, m, n, ld, dm, dn int) {
	t.Helper()
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if g, w := math.Float64bits(small[j*ld+i]), math.Float64bits(big[j*ld+i]); g != w {
				t.Fatalf("%s dm=%d dn=%d: (%d,%d) is %x in the %d×%d call but %x in the %d×%d call",
					what, dm, dn, i, j, g, m, n, w, m+dm, n+dn)
			}
		}
	}
}

// TestSignedZeroWriteOut: with C = −0 and an exact-zero product, every
// element — interior or ragged tile, single- or multi-destination — must
// end as −0 + α·(+0) rounds: +0 for α = 1, −0 for α = −1.25. A ragged-tile
// or buffered write-out that rounds differently from the interior scatter
// shows up as a flipped sign bit.
func TestSignedZeroWriteOut(t *testing.T) {
	m, n, kk := SIMDTileMR+3, SIMDTileNR+2, 5
	negZero := math.Copysign(0, -1)
	a := make([]float64, m*kk)
	for i := range a {
		if i%3 == 0 {
			a[i] = negZero
		}
	}
	b := make([]float64, kk*n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	for _, mode := range []Mode{ModeAuto, ModeScalar} {
		k := &Packed{Mode: mode}
		for _, alpha := range []float64{1, -1.25} {
			for _, coeffs := range [][]float64{nil, {1}, {1, -1, 1}} {
				dests := []Dest{{Coeff: 1}}
				if coeffs != nil {
					dests = make([]Dest, len(coeffs))
					for i, g := range coeffs {
						dests[i].Coeff = g
					}
				}
				for i := range dests {
					dests[i].Ld, dests[i].Rows, dests[i].Cols = m, m, n
					dests[i].Data = make([]float64, m*n)
					for j := range dests[i].Data {
						dests[i].Data[j] = negZero
					}
				}
				if coeffs == nil {
					k.MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, alpha, a, m, b, kk, dests[0].Data, m)
				} else {
					k.FusedMulAdd(m, n, kk, alpha, Operand{Ld: m, Terms: []Term{{Data: a, Coeff: 1, Rows: m, Cols: kk}}},
						Operand{Ld: kk, Terms: []Term{{Data: b, Coeff: 1, Rows: kk, Cols: n}}}, dests)
				}
				for di, d := range dests {
					want := math.Float64bits(negZero + alpha*d.Coeff*0)
					for j, v := range d.Data {
						if math.Float64bits(v) != want {
							t.Fatalf("mode=%v alpha=%g dests=%v dst %d: element %d is %x, want %x",
								mode, alpha, coeffs, di, j, math.Float64bits(v), want)
						}
					}
				}
			}
		}
	}
}

// TestSIMDAllTransposeFringes sweeps every (m mod 8, n mod 4) fringe class
// for all transpose combinations against the naive oracle at moderate k.
func TestSIMDAllTransposeFringes(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	k := &Packed{Mode: ModeSIMD} // falls back to scalar off-host; oracle check still valid
	kk := 19
	for _, ta := range transposes {
		for _, tb := range transposes {
			for dm := 0; dm < SIMDTileMR; dm++ {
				for dn := 0; dn < SIMDTileNR; dn++ {
					m, n := SIMDTileMR+dm, SIMDTileNR+dn
					ar, ac := opDims(ta.IsTrans(), m, kk)
					br, bc := opDims(tb.IsTrans(), kk, n)
					a := fill(rng, ar, ac, ar)
					b := fill(rng, br, bc, br)
					got := fill(rng, m, n, m)
					want := append([]float64(nil), got...)
					k.MulAdd(ta, tb, m, n, kk, -1.25, a, ar, b, br, got, m)
					blas.NaiveKernel{}.MulAdd(ta, tb, m, n, kk, -1.25, a, ar, b, br, want, m)
					if d := maxAbsDiff(t, got, want, m, n, m); d > 1e-12 {
						t.Fatalf("ta=%v tb=%v m=%d n=%d: max diff %g", ta, tb, m, n, d)
					}
				}
			}
		}
	}
}

// TestSIMDLeafWorkspaceExact re-asserts the LeafWorkspace == arena-peak
// invariant under the 8-row SIMD panel shapes (the scalar variant is
// covered by TestLeafWorkspaceExact).
func TestSIMDLeafWorkspaceExact(t *testing.T) {
	if !HasSIMD() {
		t.Skipf("host has no SIMD micro-kernel (ISA %s)", SIMDISA())
	}
	rng := rand.New(rand.NewSource(45))
	shapes := [][3]int{{1, 1, 1}, {8, 4, 8}, {9, 5, 3}, {64, 64, 64}, {130, 70, 90}}
	for _, s := range shapes {
		m, n, kk := s[0], s[1], s[2]
		k := &Packed{Mode: ModeSIMD, MC: 32, KC: 24, NC: 40}
		tr := memtrack.New()
		k.SetArena(tr)
		a := fill(rng, m, kk, m)
		b := fill(rng, kk, n, kk)
		c := make([]float64, m*n)
		k.MulAdd(blas.NoTrans, blas.NoTrans, m, n, kk, 1, a, m, b, kk, c, m)
		if got, want := tr.Peak(), k.LeafWorkspace(m, n, kk); got != want {
			t.Errorf("%v: arena peak %d, LeafWorkspace %d", s, got, want)
		}
		if tr.Live() != 0 {
			t.Errorf("%v: %d words leaked", s, tr.Live())
		}
	}
}
