package kernel

// NEON 8×4 micro-kernel glue; see micro_amd64.go for the amd64 twin.

//go:noescape
func microTile8x4NEON(kb int, alpha float64, ap, bp, c *float64, ldc int)

// simdFull adapts the assembly tile to the microImpl signature.
func simdFull(ap, bp, c []float64, ldc, kb int, alpha float64) {
	if kb <= 0 {
		return
	}
	ap = ap[:SIMDTileMR*kb]
	bp = bp[:SIMDTileNR*kb]
	c = c[:3*ldc+SIMDTileMR]
	microTile8x4NEON(kb, alpha, &ap[0], &bp[0], &c[0], ldc)
}

// newSIMDImpl probes HWCAP and returns the NEON tile, or nil when AdvSIMD
// is unavailable.
func newSIMDImpl() *microImpl {
	if !detectSIMD() {
		return nil
	}
	return &microImpl{
		mr:   SIMDTileMR,
		nr:   SIMDTileNR,
		isa:  "neon",
		full: simdFull,
		edge: simdEdge,
	}
}
