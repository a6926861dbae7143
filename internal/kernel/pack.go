package kernel

// Panel packing. Ã holds an mb×kb block of op(A) as a sequence of mr-row
// micro-panels (element (i, l) at dst[(i/mr)·mr·kb + l·mr + i%mr]); B̃ holds
// a kb×nb block of op(B) as nr-column micro-panels (element (l, j) at
// dst[(j/nr)·nr·kb + l·nr + j%nr]). The panel heights follow the active
// register tile (scalar 4×4 or SIMD 8×4), which is why the packers take
// mr/nr as parameters; the used values get unrolled fast paths. Ragged
// final panels are zero-padded so the micro-kernel never branches on panel
// height: a ragged tile runs the full register tile, and its padded lanes
// accumulate into scratch accumulators that the edge write-out discards.
//
// Packing is what makes the four transpose cases uniform (the packers read
// through op(A)/op(B); one micro-kernel serves all cases) and what turns
// the inner loop's operand streams into contiguous, cache-resident reads.

// packA copies the mb×kb block of op(A) with top-left (ic, pc) into dst as
// mr-row micro-panels.
func packA(mr int, dst []float64, a []float64, lda int, ta bool, ic, pc, mb, kb int) {
	if mr < 1 || kb < 1 {
		// Nothing to pack; the positive-mr fact also lets the prove pass
		// discharge every bounds check in the strided copy loops below.
		return
	}
	for ip := 0; ip < mb; ip += mr {
		rows := mb - ip
		if rows > mr {
			rows = mr
		}
		base := (ip / mr) * (mr * kb)
		if !ta {
			// op(A)(i, l) = A(ic+i, pc+l), column l contiguous in storage.
			if rows == mr {
				switch mr {
				case MR:
					for l := 0; l < kb; l++ {
						src := (*[MR]float64)(a[(pc+l)*lda+ic+ip:])
						d := (*[MR]float64)(dst[base+l*MR:])
						*d = *src
					}
					continue
				case SIMDTileMR:
					for l := 0; l < kb; l++ {
						src := (*[SIMDTileMR]float64)(a[(pc+l)*lda+ic+ip:])
						d := (*[SIMDTileMR]float64)(dst[base+l*SIMDTileMR:])
						*d = *src
					}
					continue
				}
				for l := 0; l < kb; l++ {
					src := a[(pc+l)*lda+ic+ip:]
					d := dst[base+l*mr : base+l*mr+mr : base+l*mr+mr]
					copy(d, src[:mr])
				}
				continue
			}
			for l := 0; l < kb; l++ {
				src := a[(pc+l)*lda+ic+ip:]
				d := dst[base+l*mr : base+l*mr+mr : base+l*mr+mr]
				copy(d, src[:rows])
				clear(d[rows:])
			}
			continue
		}
		// op(A)(i, l) = A(pc+l, ic+i): row i of the block is a contiguous
		// run of storage column ic+i, so copy k-runs row by row.
		// The strided stores advance d by mr per element instead of
		// indexing d[l*mr]: the loop conditions carry the length facts
		// that make the body bounds-check free (-d=ssa/check_bce).
		for r := 0; r < rows; r++ {
			src := a[(ic+ip+r)*lda+pc:]
			src = src[:kb]
			d := dst[base+r:]
			for len(src) > 1 && len(d) >= mr {
				d[0] = src[0]
				d, src = d[mr:], src[1:]
			}
			if len(src) > 0 && len(d) > 0 {
				d[0] = src[0]
			}
		}
		for r := rows; r < mr; r++ {
			d := dst[base+r:]
			for n := kb; n > 1 && len(d) >= mr; n-- {
				d[0] = 0
				d = d[mr:]
			}
			if len(d) > 0 {
				d[0] = 0
			}
		}
	}
}

// packB copies the kb×nb block of op(B) with top-left (pc, jc) into dst as
// nr-column micro-panels.
func packB(nr int, dst []float64, b []float64, ldb int, tb bool, pc, jc, kb, nb int) {
	if nr < 1 || kb < 1 {
		return
	}
	for jp := 0; jp < nb; jp += nr {
		cols := nb - jp
		if cols > nr {
			cols = nr
		}
		base := (jp / nr) * (nr * kb)
		if !tb {
			// op(B)(l, j) = B(pc+l, jc+j): column j of the block is a
			// contiguous run of storage column jc+j.
			for s := 0; s < cols; s++ {
				src := b[(jc+jp+s)*ldb+pc:]
				src = src[:kb]
				d := dst[base+s:]
				for len(src) > 1 && len(d) >= nr {
					d[0] = src[0]
					d, src = d[nr:], src[1:]
				}
				if len(src) > 0 && len(d) > 0 {
					d[0] = src[0]
				}
			}
			for s := cols; s < nr; s++ {
				d := dst[base+s:]
				for n := kb; n > 1 && len(d) >= nr; n-- {
					d[0] = 0
					d = d[nr:]
				}
				if len(d) > 0 {
					d[0] = 0
				}
			}
			continue
		}
		// op(B)(l, j) = B(jc+j, pc+l), row l of the block contiguous.
		if cols == nr && nr == NR {
			for l := 0; l < kb; l++ {
				src := (*[NR]float64)(b[(pc+l)*ldb+jc+jp:])
				d := (*[NR]float64)(dst[base+l*NR:])
				*d = *src
			}
			continue
		}
		for l := 0; l < kb; l++ {
			src := b[(pc+l)*ldb+jc+jp:]
			d := dst[base+l*nr : base+l*nr+nr : base+l*nr+nr]
			copy(d, src[:cols])
			clear(d[cols:])
		}
	}
}
