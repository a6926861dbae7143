package kernel

// AVX2 fused-packing glue. The assembly routines (pack_amd64.s) form the
// full micro-panels of a two-term non-transposed operand g0·X + g1·Y;
// packAFused/packBFused keep ragged panels, the B̃ kb mod 4 tail and every
// other operand shape in Go.

//go:noescape
func packA2AVX2(dst, x, y *float64, ld, panels, kb int, g0, g1 float64)

//go:noescape
func packB2AVX2(dst, x, y *float64, ld, panels, kb int, g0, g1 float64)

// avx2PackA2 packs the (8·panels)×kb block at x[0], y[0] into full 8-row
// micro-panels. The re-slicings bound every source and the destination to
// the exact extent the routine touches, as simdFull does for the tile.
func avx2PackA2(dst, x, y []float64, ld, panels, kb int, g0, g1 float64) {
	if panels <= 0 || kb <= 0 {
		return
	}
	n := (kb-1)*ld + panels*SIMDTileMR
	x, y = x[:n], y[:n]
	dst = dst[:panels*SIMDTileMR*kb]
	packA2AVX2(&dst[0], &x[0], &y[0], ld, panels, kb, g0, g1)
}

// avx2PackB2 packs rows [0, kb &^ 3) of the kb×(4·panels) block at x[0],
// y[0] into full 4-column micro-panels of depth kb; the caller forms the
// kb mod 4 tail rows.
func avx2PackB2(dst, x, y []float64, ld, panels, kb int, g0, g1 float64) {
	kb4 := kb &^ 3
	if panels <= 0 || kb4 <= 0 {
		return
	}
	n := (panels*SIMDTileNR-1)*ld + kb4
	x, y = x[:n], y[:n]
	dst = dst[:(panels-1)*SIMDTileNR*kb+SIMDTileNR*kb4]
	packB2AVX2(&dst[0], &x[0], &y[0], ld, panels, kb, g0, g1)
}
