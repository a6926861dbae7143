package kernel

// AVX2 fused-packing glue. The assembly routines (pack_amd64.s) form the
// micro-panels of a two-term non-transposed operand g0·X + g1·Y that lie
// inside the block, up to the columns (Ã) or rows (B̃) both terms store.
// Rows a term lacks — the last ones of a block clipped by virtual padding
// — are read as +0.0 through masked loads in the same arithmetic.
// packAFused/packBFused keep ragged panels, the columns a term lacks, the
// B̃ depth mod 4 tail and every other operand shape in Go.

//go:noescape
func packA2AVX2(dst, x, y *float64, ld, panels, cols, depth int, g0, g1 float64)

//go:noescape
func packA2PartAVX2(dst, x, y *float64, ld, cols int, g0, g1 float64, mask *[16]int64)

//go:noescape
func packB2AVX2(dst, x, y *float64, ld, panels, rows, depth int, g0, g1 float64)

//go:noescape
func packB2PartAVX2(dst, x, y *float64, ld, panels, depth int, g0, g1 float64, mask *[8]int64)

// avx2PackA2 implements microImpl.packA2: the panels both terms store in
// full go to packA2AVX2, each later one to packA2PartAVX2 with the rows
// either term stores masked in. The re-slicings bound every source and
// the destination to the exact extent the routines touch, as simdFull
// does for the tile.
func avx2PackA2(dst, x, y []float64, ld, h0, h1, cols, depth int, g0, g1 float64) {
	const mr = SIMDTileMR
	panels := (max(h0, h1) + mr - 1) / mr
	if panels == 0 || cols <= 0 {
		return
	}
	dst = dst[:(panels-1)*mr*depth+mr*cols]
	full := min(h0, h1) / mr
	if full > 0 {
		n := (cols-1)*ld + full*mr
		packA2AVX2(&dst[0], &x[:n][0], &y[:n][0], ld, full, cols, depth, g0, g1)
	}
	for p := full; p < panels; p++ {
		var mask [2 * mr]int64
		px := masked(x, mask[:mr], p*mr, h0-p*mr, (cols-1)*ld, &dst[0])
		py := masked(y, mask[mr:], p*mr, h1-p*mr, (cols-1)*ld, &dst[0])
		packA2PartAVX2(&dst[p*mr*depth], px, py, ld, cols, g0, g1, &mask)
	}
}

// avx2PackB2 implements microImpl.packB2: the 4-row steps both terms
// store in full go to packB2AVX2, each later one to packB2PartAVX2.
func avx2PackB2(dst, x, y []float64, ld, panels, h0, h1, depth int, g0, g1 float64) {
	const nr = SIMDTileNR
	rows := (max(h0, h1) + 3) &^ 3
	if panels <= 0 || rows == 0 {
		return
	}
	dst = dst[:(panels-1)*nr*depth+nr*rows]
	last := (panels*nr - 1) * ld // offset of the last column
	full := min(h0, h1) &^ 3
	if full > 0 {
		packB2AVX2(&dst[0], &x[:last+full][0], &y[:last+full][0], ld, panels, full, depth, g0, g1)
	}
	for s := full; s < rows; s += 4 {
		var mask [8]int64
		px := masked(x, mask[:4], s, h0-s, last, &dst[0])
		py := masked(y, mask[4:], s, h1-s, last, &dst[0])
		packB2PartAVX2(&dst[nr*s], px, py, ld, panels, depth, g0, g1, &mask)
	}
}

// masked sets the first min(have, len(mask)) lanes of mask and returns
// the address of src[at], bounding src to the span the masked loads reach
// (span more words plus the stored lanes). A term storing none of the
// lanes is never read; it gets the placeholder address.
func masked(src []float64, mask []int64, at, have, span int, placeholder *float64) *float64 {
	have = min(have, len(mask))
	if have <= 0 {
		return placeholder
	}
	for i := range mask[:have] {
		mask[i] = -1
	}
	return &src[at : at+span+have][0]
}
