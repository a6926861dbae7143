package kernel

// AVX2 fused-packing glue. The assembly routines (pack_amd64.s) form the
// micro-panels of a non-transposed operand Σ gₜ·Xₜ of 1–4 terms that lie
// inside the block, up to the columns (Ã) or rows (B̃) every term stores.
// Rows a term lacks — the last ones of a block clipped by virtual padding
// — are read as +0.0 through masked loads in the same arithmetic.
// packAFused/packBFused keep ragged panels, the columns a term lacks, the
// B̃ depth mod 4 tail and every other operand shape in Go.

//go:noescape
func packANAVX2(dst, x0, x1, x2, x3 *float64, ld, panels, cols, depth, nt int, coef *[4]float64)

//go:noescape
func packANPartAVX2(dst, x0, x1, x2, x3 *float64, ld, cols, nt int, coef *[4]float64, mask *[4 * SIMDTileMR]int64)

//go:noescape
func packBNAVX2(dst, x0, x1, x2, x3 *float64, ld, panels, rows, depth, nt int, coef *[4]float64)

//go:noescape
func packBNPartAVX2(dst, x0, x1, x2, x3 *float64, ld, panels, depth, nt int, coef *[4]float64, mask *[16]int64)

// avx2PackAN implements microImpl.packAN: the panels every term stores in
// full go to packANAVX2, each later one to packANPartAVX2 with the rows
// each term stores masked in. The re-slicings bound every source and the
// destination to the exact extent the routines touch, as simdFull does
// for the tile; a pointer past the term count is a placeholder the
// routines never read.
func avx2PackAN(dst []float64, ts packTerms, ld, cols, depth int) {
	const mr = SIMDTileMR
	lo, hi := ts.span()
	panels := (hi + mr - 1) / mr
	if panels == 0 || cols <= 0 {
		return
	}
	dst = dst[:(panels-1)*mr*depth+mr*cols]
	var p [4]*float64
	full := lo / mr
	if full > 0 {
		n := (cols-1)*ld + full*mr
		for t := range p {
			p[t] = &dst[0]
			if t < ts.n {
				p[t] = &ts.x[t][:n][0]
			}
		}
		packANAVX2(&dst[0], p[0], p[1], p[2], p[3], ld, full, cols, depth, ts.n, &ts.g)
	}
	for pn := full; pn < panels; pn++ {
		var mask [4 * mr]int64
		for t := range p {
			p[t] = &dst[0]
			if t < ts.n {
				p[t] = masked(ts.x[t], mask[t*mr:(t+1)*mr], pn*mr, ts.h[t]-pn*mr, (cols-1)*ld, &dst[0])
			}
		}
		packANPartAVX2(&dst[pn*mr*depth], p[0], p[1], p[2], p[3], ld, cols, ts.n, &ts.g, &mask)
	}
}

// avx2PackBN implements microImpl.packBN: the 4-row steps every term
// stores in full go to packBNAVX2, each later one to packBNPartAVX2 with
// the plan's mask.
func avx2PackBN(dst []float64, p bnPlan, off, ld, panels, depth int) {
	const nr = SIMDTileNR
	if panels <= 0 || p.rows == 0 {
		return
	}
	dst = dst[:(panels-1)*nr*depth+nr*p.rows]
	last := (panels*nr - 1) * ld // offset of the last column
	var x [4]*float64
	if p.full > 0 {
		for t := range x {
			x[t] = &dst[0]
			if t < p.n {
				x[t] = &p.x[t][off : off+last+p.full][0]
			}
		}
		packBNAVX2(&dst[0], x[0], x[1], x[2], x[3], ld, panels, p.full, depth, p.n, &p.g)
	}
	for i, s := 0, p.full; s < p.rows; i, s = i+1, s+4 {
		for t := range x {
			x[t] = &dst[0]
			if t < p.n && p.h[t] > s {
				x[t] = &p.x[t][off+s : off+s+last+min(p.h[t]-s, 4)][0]
			}
		}
		packBNPartAVX2(&dst[nr*s], x[0], x[1], x[2], x[3], ld, panels, depth, p.n, &p.g, &p.mask[i])
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
