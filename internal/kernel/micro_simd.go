//go:build amd64 || arm64

package kernel

import "math"

// simdEdge computes the ragged rows×cols prefix of an 8×4 tile with the
// SIMD tile itself. The packers zero-pad ragged panels to the full tile
// shape, so simdFull runs over them unchanged into a stack buffer, and only
// the valid elements are written out as c = FMA(alpha, acc, c) — the single
// rounding the assembly scatter applies to an interior tile, so an element
// rounds the same wherever its tile falls. The call is direct (not through
// microImpl.full) so the buffer stays on the stack.
func simdEdge(ap, bp, c []float64, ldc, rows, cols, kb int, alpha float64) {
	buf := negZeroTile
	simdFull(ap, bp, buf[:], SIMDTileMR, kb, 1)
	for s := 0; s < cols; s++ {
		col := c[s*ldc : s*ldc+rows : s*ldc+rows]
		acc := buf[s*SIMDTileMR : s*SIMDTileMR+rows]
		for r := range col {
			col[r] = math.FMA(alpha, acc[r], col[r])
		}
	}
}
