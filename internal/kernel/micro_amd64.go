package kernel

// AVX2+FMA 8×4 micro-kernel glue. The assembly routine (micro_amd64.s)
// computes full register tiles; ragged edges run the same routine over the
// zero-padded panels through simdEdge (micro_simd.go).

//go:noescape
func microTile8x4AVX2(kb int, alpha float64, ap, bp, c *float64, ldc int)

//go:noescape
func microTile8x4AVX2Multi(kb int, ap, bp *float64, dests *[4]rawDest, nd, tiles int)

// rawDest is tileDest as the assembly reads it: 24 bytes of C pointer,
// leading dimension and scalar.
type rawDest struct {
	c     *float64
	ldc   int
	alpha float64
}

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

// avx2Multi adapts the multi-destination assembly tile (the fused
// write-out of up to four C blocks) the same way, for tiles tiles down one
// column: each destination's re-slicing bounds the 8·tiles × 4 panel it
// writes.
func avx2Multi(ap, bp []float64, kb int, ds [4]tileDest, nd, tiles int) {
	if kb <= 0 || nd <= 0 || tiles <= 0 {
		return
	}
	ap = ap[:SIMDTileMR*kb*tiles]
	bp = bp[:SIMDTileNR*kb]
	var raw [4]rawDest
	for i, d := range ds[:nd] {
		raw[i] = rawDest{c: &d.c[:3*d.ldc+SIMDTileMR*tiles][0], ldc: d.ldc, alpha: d.alpha}
	}
	microTile8x4AVX2Multi(kb, &ap[0], &bp[0], &raw, nd, tiles)
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
		multi:  avx2Multi,
		packAN: avx2PackAN,
		packBN: avx2PackBN,
	}
}
