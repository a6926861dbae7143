package kernel

// AVX2+FMA 8×4 micro-kernel glue. The assembly routine (micro_amd64.s)
// computes full register tiles; ragged edges run the same routine over the
// zero-padded panels through simdEdge (micro_simd.go).

//go:noescape
func microTile8x4AVX2(kb int, alpha float64, ap, bp, c *float64, ldc int)

//go:noescape
func microTile8x4AVX2Dual(kb int, alpha0, alpha1 float64, ap, bp, c0 *float64, ldc0 int, c1 *float64, ldc1 int)

// simdFull adapts the assembly tile to the microImpl signature. The slice
// prefix re-slicings compile to bounds checks that document (and enforce)
// the contract the macro kernel already guarantees.
func simdFull(ap, bp, c []float64, ldc, kb int, alpha float64) {
	if kb <= 0 {
		return
	}
	ap = ap[:SIMDTileMR*kb]
	bp = bp[:SIMDTileNR*kb]
	c = c[:3*ldc+SIMDTileMR]
	microTile8x4AVX2(kb, alpha, &ap[0], &bp[0], &c[0], ldc)
}

// avx2Dual adapts the dual-destination assembly tile (the fused Winograd
// two-quadrant write-out) the same way.
func avx2Dual(ap, bp, c0 []float64, ldc0 int, c1 []float64, ldc1 int, kb int, alpha0, alpha1 float64) {
	if kb <= 0 {
		return
	}
	ap = ap[:SIMDTileMR*kb]
	bp = bp[:SIMDTileNR*kb]
	c0 = c0[:3*ldc0+SIMDTileMR]
	c1 = c1[:3*ldc1+SIMDTileMR]
	microTile8x4AVX2Dual(kb, alpha0, alpha1, &ap[0], &bp[0], &c0[0], ldc0, &c1[0], ldc1)
}

// newSIMDImpl probes the CPU and returns the AVX2+FMA tile, or nil when
// the host (or its OS) cannot run it.
func newSIMDImpl() *microImpl {
	if !detectSIMD() {
		return nil
	}
	return &microImpl{
		mr:     SIMDTileMR,
		nr:     SIMDTileNR,
		isa:    "avx2+fma",
		full:   simdFull,
		edge:   simdEdge,
		dual:   avx2Dual,
		packA2: avx2PackA2,
		packB2: avx2PackB2,
	}
}
