package kernel

import "math"

// The register micro-kernel. MR×NR accumulators live in registers across
// the whole KC-deep update; the k loop is unrolled by two, which measured
// ~1.3x over the straight loop on the development host (the unroll halves
// loop/bounds bookkeeping while the 16 independent accumulator chains keep
// both scalar FP ports saturated). Each C element's partial sum is
// accumulated strictly in increasing-k order by a single accumulator, so
// the result is bitwise independent of the unroll factor and of MR/NR —
// only the KC split (where alpha is applied per block) affects rounding.

// Micro-tile dimensions of the portable scalar tile. They are exported so
// tests can enumerate every edge-remainder class relative to the register
// tile; the active tile's dimensions (8×4 when a SIMD micro-kernel is
// dispatched) are SIMDTileMR×SIMDTileNR.
const (
	// MR is the number of C rows a scalar inner-kernel invocation computes.
	MR = 4
	// NR is the number of C columns a scalar inner-kernel invocation
	// computes.
	NR = 4
)

// SIMD register-tile dimensions. Both supported ISAs use an 8×4 tile:
// 8 rows fill two YMM registers (AVX2) or four 128-bit registers (NEON)
// per column, and 4 columns keep all accumulators plus operands within
// the architectural register file. Exported for tests and for
// cmd/calibrate's block grids.
const (
	SIMDTileMR = 8
	SIMDTileNR = 4
)

// microTile computes the MR×NR register tile
//
//	C[0:rows, 0:cols] += alpha * Ã·B̃
//
// over packed micro-panels ap (MR·kb words, column-of-MR layout) and bp
// (NR·kb words, row-of-NR layout), scattering only the valid rows×cols of a
// ragged edge tile. c points at the tile's top-left element of the
// column-major output with leading dimension ldc.
func microTile(ap, bp []float64, c []float64, ldc int, rows, cols, kb int, alpha float64) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64

	// Advance head-reslices instead of indexing at l·MR: the loop
	// conditions carry the length facts the compiler needs to elide every
	// bounds check in the k loop (verified with -d=ssa/check_bce; see
	// EXPERIMENTS.md).
	a, b := ap[:kb*MR], bp[:kb*NR]
	for len(a) >= 2*MR && len(b) >= 2*NR {
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		a0, a1, a2, a3 = a[4], a[5], a[6], a[7]
		b0, b1, b2, b3 = b[4], b[5], b[6], b[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		a, b = a[2*MR:], b[2*NR:]
	}
	if len(a) >= MR && len(b) >= NR {
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}

	if rows == MR && cols == NR {
		// Interior tile: straight-line scatter. Multiplying by alpha == 1 is
		// exact, so the specialised branch stays bitwise identical.
		if alpha == 1 {
			c0 := c[0*ldc : 0*ldc+MR : 0*ldc+MR]
			c0[0] += c00
			c0[1] += c10
			c0[2] += c20
			c0[3] += c30
			c1 := c[1*ldc : 1*ldc+MR : 1*ldc+MR]
			c1[0] += c01
			c1[1] += c11
			c1[2] += c21
			c1[3] += c31
			c2 := c[2*ldc : 2*ldc+MR : 2*ldc+MR]
			c2[0] += c02
			c2[1] += c12
			c2[2] += c22
			c2[3] += c32
			c3 := c[3*ldc : 3*ldc+MR : 3*ldc+MR]
			c3[0] += c03
			c3[1] += c13
			c3[2] += c23
			c3[3] += c33
		} else {
			c0 := c[0*ldc : 0*ldc+MR : 0*ldc+MR]
			c0[0] += alpha * c00
			c0[1] += alpha * c10
			c0[2] += alpha * c20
			c0[3] += alpha * c30
			c1 := c[1*ldc : 1*ldc+MR : 1*ldc+MR]
			c1[0] += alpha * c01
			c1[1] += alpha * c11
			c1[2] += alpha * c21
			c1[3] += alpha * c31
			c2 := c[2*ldc : 2*ldc+MR : 2*ldc+MR]
			c2[0] += alpha * c02
			c2[1] += alpha * c12
			c2[2] += alpha * c22
			c2[3] += alpha * c32
			c3 := c[3*ldc : 3*ldc+MR : 3*ldc+MR]
			c3[0] += alpha * c03
			c3[1] += alpha * c13
			c3[2] += alpha * c23
			c3[3] += alpha * c33
		}
		return
	}

	// Ragged edge tile: scatter only the valid rows/columns.
	acc := [NR][MR]float64{
		{c00, c10, c20, c30},
		{c01, c11, c21, c31},
		{c02, c12, c22, c32},
		{c03, c13, c23, c33},
	}
	for s := 0; s < cols; s++ {
		col := c[s*ldc : s*ldc+rows : s*ldc+rows]
		for r := range col {
			col[r] += alpha * acc[s][r]
		}
	}
}

// negZeroTile is a SIMD register tile of −0.0, the exact additive identity
// (x + −0 is x bit for bit, signed zeros included): a tile captured into a
// copy of it at alpha = 1 holds the accumulators exactly.
var negZeroTile = func() (t [SIMDTileMR * SIMDTileNR]float64) {
	for i := range t {
		t[i] = math.Copysign(0, -1)
	}
	return t
}()
