package kernel

// Operand-fused packing and multi-destination write-out: the kernel-side
// half of the fused Winograd path (Huang et al., "Implementing Strassen's
// Algorithm with BLIS", arXiv:1605.01078). A Strassen level's add/sub
// linear combinations are folded into the two places the operands are
// touched anyway — Ã/B̃ packing reads and the micro-kernel's C update — so
// each level costs almost no extra memory traffic instead of a full set of
// materialized S/T/M temporaries.
//
// FusedMulAdd runs the exact NC/KC/MC loop nest of MulAdd over the same
// arena-drawn packed panels (LeafWorkspace is unchanged), but:
//
//   - the packers form Ã ← Σᵢ γᵢ·op(Aᵢ) (and B̃ likewise) on the fly from
//     up to four strided source panels sharing one leading dimension and
//     transpose — the quadrants of a common parent matrix. A term stores
//     only its extent: entries past it read as +0.0, so a block that
//     overhangs the parent's last row or column is padded virtually;
//   - the write-out accumulates each computed product panel into every
//     destination with its own ±1 coefficient (times the call's alpha),
//     clipped to that destination's extent. One destination degenerates
//     to the unfused sweep; two full SIMD tiles use the dual-scatter
//     assembly tile when the ISA provides one; every other tile, full or
//     ragged, runs the full tile over the zero-padded panels into a
//     register-tile buffer and scatters the valid elements per
//     destination.
//
// Bitwise contract: coefficients are ±1 in the Strassen tables, and both
// negation and ±1 multiplication are exact in IEEE-754, so a fused pack
// produces bit-for-bit the panel an unfused add/sub-then-pack would, with
// one rounding per added term in term order. The packers round every
// product before adding it (no FMA contraction) for any coefficients,
// whether a word is formed by the Go loops or by the ISA's assembly
// (microImpl.packA2/packB2: the micro-panels inside the block of a
// two-term non-transposed operand on AVX2), so which of the two forms a
// word never changes its bits (fusedpack_test.go). A missing entry goes
// through the same arithmetic as a stored +0.0 in both — a masked load in
// the assembly — so a clipped pack equals the pack of a zero-padded copy
// bit for bit, signed zeros included. The tile-buffer
// capture (−0.0 buffer, alpha = 1) holds the accumulator exactly, and the
// buffered scatter rounds like the tile's own write-out at alpha·coeff:
// c + ad·acc (two roundings) on the scalar tile, FMA(ad, acc, c) on the
// SIMD tiles, as their interior scatter and simdEdge do. An element
// therefore rounds the same whether its tile is full or ragged, clipped
// or not, and however many destinations share the sweep, and a fused
// call matches the unfused kernel of the same tile on the materialized
// operands bit for bit per destination (see fused_test.go).

import (
	"math"

	"repro/internal/phase"
)

// Term is one source panel of a fused operand: a matrix (sharing the
// enclosing Operand's leading dimension and transpose), its ±1
// combination coefficient and its valid extent. Coefficients other than
// ±1 are computed correctly but void the bitwise-equality contract (they
// round once per term where a pre-materialized combination may round
// differently).
type Term struct {
	Data  []float64
	Coeff float64
	// Rows×Cols is the extent of op(Data) the term stores, from the
	// block's top-left corner. Entries of the block past it read as +0.0
	// through the same arithmetic as stored ones, and Data need not hold
	// them. An extent covering the block (or more) stores all of it.
	Rows, Cols int
}

// Operand is a fused input: the linear combination Σᵢ Coeffᵢ·op(Termᵢ) of
// 1–4 equally-shaped panels, all stored with leading dimension Ld and the
// same transpose. The Strassen quadrants of one parent matrix satisfy this
// by construction.
type Operand struct {
	Terms []Term
	Ld    int
	Trans bool
}

// Dest is one write-out destination: a column-major C panel with leading
// dimension Ld receiving Coeff·(product panel), Coeff again ±1 under the
// bitwise contract.
type Dest struct {
	Data  []float64
	Ld    int
	Coeff float64
	// Rows×Cols is the extent of the product panel written, from its
	// top-left corner: elements past it are never read or written, and
	// Data need not hold them.
	Rows, Cols int
}

// FusedCounters reports how many FusedMulAdd calls the kernel has served.
// Packed words from fused calls fold into the regular packing counters.
func (k *Packed) FusedCounters() (fusedMulAdds int64) {
	return k.fusedMulAdds.Load()
}

// FusedDestLimit reports how many destinations FusedMulAdd accumulates
// without leaving the active tile's native write-out. The SIMD tile
// scatters one or two destinations in assembly (single and dual scatter)
// but spills full tiles to a buffered scalar scatter beyond that, so its
// limit is 2; the scalar tile pays the same per-element loop for any
// count, so its limit is the packers' term maximum, 4. The Strassen
// driver's only use of it is tableFusable: a table whose records fan out
// past the limit runs its last level unfused.
func (k *Packed) FusedDestLimit() int {
	if k.impl().dual != nil {
		return 2
	}
	return 4
}

// FusedMulAdd computes, for every destination d,
//
//	d.Data ← d.Data + alpha·d.Coeff·(Σᵢ γᵢ·op(Aᵢ))·(Σⱼ δⱼ·op(Bⱼ))
//
// where the fused operand is m×k (a) and k×n (b), each term read as zero
// past its extent, and d is written only inside its extent. The caller
// pre-applies beta; write-out is pure accumulation. The combination runs
// inside the packing and the C update — no operand or product temporaries
// beyond the same two packed panels MulAdd draws (LeafWorkspace of the
// block shape m×n×k, whatever the extents).
func (k *Packed) FusedMulAdd(m, n, kk int, alpha float64, a, b Operand, dests []Dest) {
	k.FusedMulAddTasks(nil, m, n, kk, alpha, a, b, dests)
}

// packAFused packs the mb×kb block with top-left (ic, pc) of the fused
// operand Σᵢ γᵢ·op(Aᵢ) into dst as mr-row micro-panels: packA generalized
// to combine the term panels element-wise during the copy. Term 0 assigns
// (scaled), later terms accumulate in order, so the combination rounds once
// per added term exactly like a separate add/sub pass would. Runs that
// some term stores only in part go through formRun, which reads the
// missing elements as +0.0.
func packAFused(mi *microImpl, dst []float64, op Operand, ic, pc, mb, kb int) {
	mr := mi.mr
	if mr < 1 || kb < 1 {
		return
	}
	rowsAll, colsAll := stored(op.Terms, ic, pc, mb, kb)
	if len(op.Terms) == 1 && op.Terms[0].Coeff == 1 && rowsAll == mb && colsAll == kb {
		packA(mr, dst, op.Terms[0].Data, op.Ld, op.Trans, ic, pc, mb, kb)
		return
	}
	lda := op.Ld
	asmPanels, asmCols := 0, 0
	if !op.Trans && len(op.Terms) == 2 && mi.packA2 != nil && colsAll > 0 {
		// The ISA forms the columns both terms store of every micro-panel
		// inside the block that a term stores rows of, reading the rows a
		// term lacks as zero; the loop below forms the rest.
		t0, t1 := op.Terms[0], op.Terms[1]
		h0, h1 := within(t0.Rows, ic, mb), within(t1.Rows, ic, mb)
		asmRows := min(roundUpMul(max(h0, h1), mr), mb-mb%mr)
		if asmRows > 0 {
			off := pc*lda + ic
			asmPanels, asmCols = asmRows/mr, colsAll
			mi.packA2(dst, from(t0, off, h0), from(t1, off, h1), lda, min(h0, asmRows), min(h1, asmRows),
				asmCols, kb, t0.Coeff, t1.Coeff)
		}
	}
	for ip := 0; ip < mb; ip += mr {
		rows := mb - ip
		if rows > mr {
			rows = mr
		}
		base := (ip / mr) * (mr * kb)
		// Every term stores columns [0, whole) of the panel's rows.
		whole := 0
		if ip+rows <= rowsAll {
			whole = colsAll
		}
		if !op.Trans {
			// op(A)(i, l) = A(ic+i, pc+l): column l contiguous in every term.
			l0 := 0
			if ip/mr < asmPanels {
				l0 = asmCols
			}
			for l := l0; l < kb; l++ {
				off := (pc+l)*lda + ic + ip
				d := dst[base+l*mr : base+l*mr+mr : base+l*mr+mr]
				switch {
				case l >= whole:
					formRun(d, 1, rows, op.Terms, off, true, pc+l, ic+ip)
				case len(op.Terms) == 2:
					x := op.Terms[0].Data[off : off+rows]
					y := op.Terms[1].Data[off : off+rows]
					g0, g1 := op.Terms[0].Coeff, op.Terms[1].Coeff
					for r := 0; r < rows; r++ {
						d[r] = float64(g0*x[r]) + float64(g1*y[r])
					}
				default:
					t0 := op.Terms[0]
					x := t0.Data[off : off+rows]
					for r := 0; r < rows; r++ {
						d[r] = t0.Coeff * x[r]
					}
					for _, t := range op.Terms[1:] {
						x := t.Data[off : off+rows]
						for r := 0; r < rows; r++ {
							d[r] += float64(t.Coeff * x[r])
						}
					}
				}
				clear(d[rows:])
			}
			continue
		}
		// op(A)(i, l) = A(pc+l, ic+i): row r of the block is a contiguous
		// run of each term's storage; strided stores advance by mr. The
		// panel buffer is mcE×kcE with mcE rounded up to whole mr-row
		// panels (effBlocks), so d[l·mr] stays in bounds; the two-term
		// fast path combines in one strided pass (see packBFused).
		for r := 0; r < rows; r++ {
			row := (ic+ip+r)*lda + pc
			d := dst[base+r:]
			if whole < kb {
				formRun(d[whole*mr:], mr, kb-whole, op.Terms, row+whole, false, ic+ip+r, pc+whole)
			}
			if whole == 0 {
				continue
			}
			if len(op.Terms) == 2 {
				x := op.Terms[0].Data[row : row+whole]
				y := op.Terms[1].Data[row : row+whole]
				g0, g1 := op.Terms[0].Coeff, op.Terms[1].Coeff
				for l := 0; l < whole; l++ {
					d[l*mr] = float64(g0*x[l]) + float64(g1*y[l])
				}
				continue
			}
			t0 := op.Terms[0]
			x := t0.Data[row : row+whole]
			for l := 0; l < whole; l++ {
				d[l*mr] = t0.Coeff * x[l]
			}
			for _, t := range op.Terms[1:] {
				x := t.Data[row : row+whole]
				g := t.Coeff
				for l := 0; l < whole; l++ {
					d[l*mr] += float64(g * x[l])
				}
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

// packBFused packs the kb×nb block with top-left (pc, jc) of the fused
// operand Σⱼ δⱼ·op(Bⱼ) into dst as nr-column micro-panels; the fused
// counterpart of packB with the same term-order rounding as packAFused.
func packBFused(mi *microImpl, dst []float64, op Operand, pc, jc, kb, nb int) {
	nr := mi.nr
	if nr < 1 || kb < 1 {
		return
	}
	rowsAll, colsAll := stored(op.Terms, pc, jc, kb, nb)
	if len(op.Terms) == 1 && op.Terms[0].Coeff == 1 && rowsAll == kb && colsAll == nb {
		packB(nr, dst, op.Terms[0].Data, op.Ld, op.Trans, pc, jc, kb, nb)
		return
	}
	ldb := op.Ld
	// The ISA forms rows [0, kb4) of every full micro-panel both terms
	// store, kb4 covering the rows either term stores in whole 4-row
	// steps inside the block and reading the rows a term lacks as zero;
	// the loop below forms the rest.
	asmPanels, kb4 := 0, 0
	if !op.Trans && len(op.Terms) == 2 && mi.packB2 != nil && colsAll >= nr {
		t0, t1 := op.Terms[0], op.Terms[1]
		h0, h1 := within(t0.Rows, pc, kb), within(t1.Rows, pc, kb)
		kb4 = min(roundUpMul(max(h0, h1), 4), kb&^3)
		if kb4 > 0 {
			off := jc*ldb + pc
			asmPanels = colsAll / nr
			mi.packB2(dst, from(t0, off, h0), from(t1, off, h1), ldb, asmPanels, min(h0, kb4), min(h1, kb4),
				kb, t0.Coeff, t1.Coeff)
		}
	}
	for jp := 0; jp < nb; jp += nr {
		cols := nb - jp
		if cols > nr {
			cols = nr
		}
		base := (jp / nr) * (nr * kb)
		// Every term stores rows [0, whole) of the panel's columns.
		whole := 0
		if jp+cols <= colsAll {
			whole = rowsAll
		}
		if !op.Trans {
			// op(B)(l, j) = B(pc+l, jc+j): column j of the block is a
			// contiguous run of each term's storage column jc+j. The panel
			// buffer is allocated at ncE×kcE with ncE rounded up to whole
			// nr-wide panels (effBlocks), so the strided stores d[l·nr] are
			// in bounds even for the last ragged panel. The two-term fast
			// path makes one combined pass over the strided destination
			// where assign-then-accumulate would make two (the pack is
			// bandwidth-bound — see the fused_pack phase in obsreport).
			lo := 0
			if jp/nr < asmPanels {
				lo = kb4
			}
			for s := 0; s < cols; s++ {
				col := (jc+jp+s)*ldb + pc
				d := dst[base+s:]
				if hi := max(lo, whole); hi < kb {
					formRun(d[hi*nr:], nr, kb-hi, op.Terms, col+hi, true, jc+jp+s, pc+hi)
				}
				if lo >= whole {
					continue
				}
				if len(op.Terms) == 2 {
					x := op.Terms[0].Data[col : col+whole]
					y := op.Terms[1].Data[col : col+whole]
					g0, g1 := op.Terms[0].Coeff, op.Terms[1].Coeff
					for l := lo; l < whole; l++ {
						d[l*nr] = float64(g0*x[l]) + float64(g1*y[l])
					}
					continue
				}
				t0 := op.Terms[0]
				x := t0.Data[col : col+whole]
				for l := 0; l < whole; l++ {
					d[l*nr] = t0.Coeff * x[l]
				}
				for _, t := range op.Terms[1:] {
					x := t.Data[col : col+whole]
					g := t.Coeff
					for l := 0; l < whole; l++ {
						d[l*nr] += float64(g * x[l])
					}
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
		// op(B)(l, j) = B(jc+j, pc+l): row l of the block contiguous.
		for l := 0; l < kb; l++ {
			off := (pc+l)*ldb + jc + jp
			d := dst[base+l*nr : base+l*nr+nr : base+l*nr+nr]
			switch {
			case l >= whole:
				formRun(d, 1, cols, op.Terms, off, false, pc+l, jc+jp)
			case len(op.Terms) == 2:
				x := op.Terms[0].Data[off : off+cols]
				y := op.Terms[1].Data[off : off+cols]
				g0, g1 := op.Terms[0].Coeff, op.Terms[1].Coeff
				for s := 0; s < cols; s++ {
					d[s] = float64(g0*x[s]) + float64(g1*y[s])
				}
			default:
				t0 := op.Terms[0]
				x := t0.Data[off : off+cols]
				for s := 0; s < cols; s++ {
					d[s] = t0.Coeff * x[s]
				}
				for _, t := range op.Terms[1:] {
					x := t.Data[off : off+cols]
					for s := 0; s < cols; s++ {
						d[s] += float64(t.Coeff * x[s])
					}
				}
			}
			clear(d[cols:])
		}
	}
}

// within is how many elements of the run [lo, lo+n) lie below ext.
func within(ext, lo, n int) int {
	return min(max(ext-lo, 0), n)
}

// stored returns the leading rows and columns of the rows×cols block at
// (i0, j0) of the terms' op() views that every term stores.
func stored(terms []Term, i0, j0, rows, cols int) (int, int) {
	for _, t := range terms {
		rows = min(rows, within(t.Rows, i0, rows))
		cols = min(cols, within(t.Cols, j0, cols))
	}
	return rows, cols
}

// from is term t's storage from offset off, or nil when the term stores
// none of the block's rows (have = 0) and off may lie past its data.
func from(t Term, off, have int) []float64 {
	if have == 0 {
		return nil
	}
	return t.Data[off:]
}

// runOf is the part of a packed run (see formRun) that term t stores.
func runOf(t Term, off int, down bool, cross, lo, n int) []float64 {
	ext, crossExt := t.Rows, t.Cols
	if !down {
		ext, crossExt = t.Cols, t.Rows
	}
	if cross >= crossExt || ext <= lo {
		return nil
	}
	return t.Data[off : off+within(ext, lo, n)]
}

// formRun forms n words of a packed run that some term stores only in
// part, d[0], d[inc], …, from the run starting at offset off of every
// term's storage: down an op() column (down) or along a row, crossing the
// other dimension at cross and covering [lo, lo+n) of its own. Each term
// contributes the elements it stores and reads the rest as +0.0 through
// the same arithmetic as the packers' loops — term 0 assigns γ·x, later
// terms add γ·x in order, every product rounded before its sum — so the
// words equal those of a zero-padded copy bit for bit. Two terms combine
// in one pass, as in the loops.
func formRun(d []float64, inc, n int, terms []Term, off int, down bool, cross, lo int) {
	var zero float64
	if len(terms) == 2 {
		x, y := runOf(terms[0], off, down, cross, lo, n), runOf(terms[1], off, down, cross, lo, n)
		g0, g1 := terms[0].Coeff, terms[1].Coeff
		m := min(len(x), len(y))
		for i := 0; i < m; i++ {
			d[i*inc] = float64(g0*x[i]) + float64(g1*y[i])
		}
		for i := m; i < n; i++ {
			a, b := zero, zero
			if i < len(x) {
				a = x[i]
			}
			if i < len(y) {
				b = y[i]
			}
			d[i*inc] = float64(g0*a) + float64(g1*b)
		}
		return
	}
	for ti, t := range terms {
		x := runOf(t, off, down, cross, lo, n)
		g := t.Coeff
		gz := float64(g * zero)
		if ti == 0 {
			for i, v := range x {
				d[i*inc] = g * v
			}
			for i := len(x); i < n; i++ {
				d[i*inc] = gz
			}
			continue
		}
		for i, v := range x {
			d[i*inc] += float64(g * v)
		}
		for i := len(x); i < n; i++ {
			d[i*inc] += gz
		}
	}
}

// macroKernelFused sweeps the packed panels once and accumulates every
// register tile into all destinations, each clipped to its extent. One
// destination is the unfused sweep at alpha·coeff over the tiles it
// stores; a tile both of two destinations store in full uses the ISA's
// dual-scatter tile when present; otherwise the full tile runs over the
// zero-padded panels into a −0.0 buffer at alpha = 1 (an exact capture of
// the accumulators, ragged tiles included) and each destination's valid
// elements are scattered with the tile's own rounding: FMA(ad, acc, c) on
// the SIMD tiles, c + ad·acc on the scalar tile.
func macroKernelFused(mi *microImpl, apack, bpack []float64, dests []Dest, ic, jc, mb, nb, kb int, alpha float64) (fullTiles, edgeTiles int64) {
	if len(dests) == 1 {
		d := dests[0]
		mv, nv := within(d.Rows, ic, mb), within(d.Cols, jc, nb)
		if mv == 0 || nv == 0 {
			return 0, 0
		}
		return macroKernel(mi, apack, bpack, d.Data, d.Ld, ic, jc, mv, nv, kb, alpha*d.Coeff)
	}
	mr, nr := mi.mr, mi.nr
	fma := mi.isa != "scalar"
	// Sweep only the tiles some destination stores.
	mv, nv := 0, 0
	for _, d := range dests {
		mv = max(mv, within(d.Rows, ic, mb))
		nv = max(nv, within(d.Cols, jc, nb))
	}
	var buf [SIMDTileMR * SIMDTileNR]float64
	for jp := 0; jp < nv; jp += nr {
		cols := nv - jp
		if cols > nr {
			cols = nr
		}
		bp := bpack[(jp/nr)*(nr*kb):]
		for ip := 0; ip < mv; ip += mr {
			rows := mv - ip
			if rows > mr {
				rows = mr
			}
			ap := apack[(ip/mr)*(mr*kb):]
			full := rows == mr && cols == nr
			if full {
				fullTiles++
			} else {
				edgeTiles++
			}
			if full && len(dests) == 2 && mi.dual != nil &&
				fullIn(dests[0], ic+ip, jc+jp, mr, nr) && fullIn(dests[1], ic+ip, jc+jp, mr, nr) {
				d0, d1 := dests[0], dests[1]
				c0 := d0.Data[(jc+jp)*d0.Ld+ic+ip:]
				c1 := d1.Data[(jc+jp)*d1.Ld+ic+ip:]
				mi.dual(ap, bp, c0, d0.Ld, c1, d1.Ld, kb, alpha*d0.Coeff, alpha*d1.Coeff)
				continue
			}
			buf = negZeroTile
			mi.full(ap, bp, buf[:], mr, kb, 1)
			for _, d := range dests {
				dr, dc := within(d.Rows, ic+ip, rows), within(d.Cols, jc+jp, cols)
				if dr == 0 || dc == 0 {
					continue
				}
				ad := alpha * d.Coeff
				cd := d.Data[(jc+jp)*d.Ld+ic+ip:]
				for s := 0; s < dc; s++ {
					col := cd[s*d.Ld : s*d.Ld+dr : s*d.Ld+dr]
					acc := buf[s*mr : s*mr+dr]
					if fma {
						for r := range col {
							col[r] = math.FMA(ad, acc[r], col[r])
						}
						continue
					}
					for r := range col {
						col[r] += ad * acc[r]
					}
				}
			}
		}
	}
	return fullTiles, edgeTiles
}

// fullIn reports whether destination d stores the whole rows×cols tile at
// (i, j).
func fullIn(d Dest, i, j, rows, cols int) bool {
	return d.Rows >= i+rows && d.Cols >= j+cols
}

// fusedAcct is phaseAcct's counterpart for FusedMulAdd: fused packing
// replaces the pack_a/pack_b phases, the sweep still splits micro/fringe
// by tile count, and the extra destinations' accumulation traffic is
// carved out into the fused write-out phase (so KernelMicro stays
// comparable to the unfused kernel's).
type fusedAcct struct {
	sweepAcct
	packNS                 int64
	writeNS                int64
	writeFlops, writeBytes int64
}

// macro folds one fused sweep over an mb×nb×kb block with nd destinations.
func (a *fusedAcct) macro(mi *microImpl, ns int64, mb, nb, kb int, ft, et int64, nd int) {
	if nd > 1 {
		// Each extra destination costs one multiply-add per product element
		// per sweep and one C read+write (16 bytes) per element; its time
		// share is apportioned by FLOPs against the sweep's own.
		e := int64(nd - 1)
		total := 2 * int64(mb) * int64(nb) * int64(kb)
		wFlops := e * 2 * int64(mb) * int64(nb)
		wBytes := e * 16 * int64(mb) * int64(nb)
		wNS := ns * wFlops / (total + wFlops)
		a.writeFlops += wFlops
		a.writeBytes += wBytes
		a.writeNS += wNS
		ns -= wNS
	}
	a.sweepAcct.macro(mi, ns, mb, nb, kb, ft, et)
}

// flush records the call's totals. Fused packing reads every term once and
// writes the packed word ((terms+1)·8 bytes per word) and performs
// (terms−1) adds per word.
func (a *fusedAcct) flush(p *phase.Profiler, aTerms, bTerms int, packedA, packedB int64) {
	flops := int64(aTerms-1)*packedA + int64(bTerms-1)*packedB
	bytes := int64(aTerms+1)*8*packedA + int64(bTerms+1)*8*packedB
	p.Add(phase.KernelFusedPack, a.packNS, flops, bytes)
	a.sweepAcct.flush(p)
	if a.writeFlops > 0 || a.writeNS > 0 {
		p.Add(phase.KernelFusedWriteout, a.writeNS, a.writeFlops, a.writeBytes)
	}
}
