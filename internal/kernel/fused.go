package kernel

// Products: operand-combining packing and multi-destination write-out,
// which every call of the packed nest runs (Huang et al., "Implementing
// Strassen's Algorithm with BLIS", arXiv:1605.01078, generalize BLIS's
// packing routine the same way, the plain pack being its one-term case).
// A Strassen level's add/sub linear combinations are folded into the two
// places the operands are touched anyway — Ã/B̃ packing reads and the
// micro-kernel's C update — so each level costs almost no extra memory
// traffic instead of a full set of materialized S/T/M temporaries. Two
// levels of the 1969 construction fold the same way ("two-level ABC"):
// every operand is a sum of at most four blocks and every product feeds
// at most four. A plain multiply is the product of one unit term per
// operand into one unit destination, which the packers copy (packA/packB,
// or the ISA's packers) and the write-out sends to the plain sweep.
//
// The nest (tasks.go) runs a product over its arena-drawn packing
// buffers (LeafWorkspace sequentially), and:
//
//   - the packers form Ã ← Σᵢ γᵢ·op(Aᵢ) (and B̃ likewise) on the fly from
//     up to four strided source panels sharing one leading dimension and
//     transpose — the quadrants of a common parent matrix. A term stores
//     only its extent: entries past it read as +0.0, so a block that
//     overhangs the parent's last row or column is padded virtually;
//   - the write-out accumulates each computed product panel into every
//     destination with its own ±1 coefficient (times the call's alpha),
//     clipped to that destination's extent. One destination degenerates
//     to the unfused sweep; the full tiles down a column that every
//     destination touching it stores in full go to the ISA's
//     multi-destination tile (up to four destinations written from
//     registers) when the ISA provides one; every other tile — ragged,
//     clipped, or on a tile without that path — runs the full tile over
//     the zero-padded panels into a register-tile buffer and scatters the
//     valid elements per destination.
//
// Bitwise contract: coefficients are ±1 in the Strassen tables, and both
// negation and ±1 multiplication are exact in IEEE-754, so a fused pack
// produces bit-for-bit the panel an unfused add/sub-then-pack would, with
// one rounding per added term in term order. The packers round every
// product before adding it (no FMA contraction) for any coefficients,
// whether a word is formed by the Go loops or by the ISA's assembly
// (microImpl.packAN/packBN: the micro-panels inside the block of a
// non-transposed operand of 1–4 terms on AVX2), so which of the two forms
// a word never changes its bits (fusedpack_test.go). A missing entry goes
// through the same arithmetic as a stored +0.0 in both — a masked load in
// the assembly — so a clipped pack equals the pack of a zero-padded copy
// bit for bit, signed zeros included. The tile-buffer
// capture (−0.0 buffer, alpha = 1) holds the accumulator exactly, and the
// buffered scatter rounds like the tile's own write-out at alpha·coeff:
// c + ad·acc (two roundings) on the scalar tile, FMA(ad, acc, c) on the
// SIMD tiles, as their interior scatter, simdEdge and the
// multi-destination tile do. An element therefore rounds the same whether
// its tile is full or ragged, clipped or not, and however many
// destinations share the sweep, and a fused call matches the unfused
// kernel of the same tile on the materialized operands bit for bit per
// destination (see fused_test.go).

import "math"

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

// Product is one product of a fused call: Ã = A, B̃ = B, accumulated into
// every destination in Dests.
type Product struct {
	A, B  Operand
	Dests []Dest
}

// packTerms is a fused operand as the assembly packers take it: n = 1–4
// terms, each with its storage from the block's top-left element (x, nil
// when the term stores none of the block's rows), the block's leading rows
// it stores (h) and its coefficient (g).
type packTerms struct {
	n int
	x [4][]float64
	h [4]int
	g [4]float64
}

// span is the fewest and the most rows any term stores.
func (ts *packTerms) span() (lo, hi int) {
	lo, hi = ts.h[0], ts.h[0]
	for _, h := range ts.h[1:ts.n] {
		lo, hi = min(lo, h), max(hi, h)
	}
	return lo, hi
}

// asmTerms describes op's terms to the assembly packers for the block
// whose top-left element is at offset off of every term's storage and
// whose n rows (of op(·)) start at row i0. The packers form the rows some
// term stores rounded up to whole steps of step rows, but no more than
// the block's first whole rows; each term's row count is capped there. It
// also returns that row count (0: nothing for the assembly to form).
func asmTerms(op Operand, off, i0, n, step, whole int) (packTerms, int) {
	ts := packTerms{n: len(op.Terms)}
	hi := 0
	for t, tm := range op.Terms {
		ts.h[t] = within(tm.Rows, i0, n)
		hi = max(hi, ts.h[t])
	}
	rows := min(roundUpMul(hi, step), whole)
	for t, tm := range op.Terms {
		ts.x[t] = from(tm, off, ts.h[t])
		ts.h[t] = min(ts.h[t], rows)
		ts.g[t] = tm.Coeff
	}
	return ts, rows
}

// tileDest is one destination of the multi-destination tile: the tile's
// top-left element in C, C's leading dimension and the scalar
// alpha·coeff.
type tileDest struct {
	c     []float64
	ldc   int
	alpha float64
}

// FusedDestLimit reports how many destinations FusedMulAdd writes from the
// active tile's registers: 4 where the ISA has the multi-destination tile
// (AVX2, which also forms operands of up to four terms in assembly), so
// two fused levels of the 1969 construction run natively; 2 elsewhere,
// the fan-out of one level. The scalar and NEON tiles scatter every extra
// destination from a buffer, where two fused levels measured slower than
// a materialized level over fused children (EXPERIMENTS.md). The Strassen
// driver's only use of it is tableFusable: a table whose records fan out
// past the limit does not run fused.
func (k *Packed) FusedDestLimit() int {
	if k.impl().multi != nil {
		return 4
	}
	return 2
}

// FusedMulAdd computes, for every destination d,
//
//	d.Data ← d.Data + alpha·d.Coeff·(Σᵢ γᵢ·op(Aᵢ))·(Σⱼ δⱼ·op(Bⱼ))
//
// where the fused operand is m×k (a) and k×n (b), each term read as zero
// past its extent, and d is written only inside its extent: write-out is
// pure accumulation. It is the one-product FusedMulAddTasks call at β = 1
// on the calling goroutine: the same loop nest
// MulAdd runs, whose packing forms the combination and whose C update
// writes every destination, with no operand or product temporaries beyond
// its packing buffers (LeafWorkspace of the block shape m×n×k, whatever
// the extents: the Ã panel and a B̃ sliver or panel).
func (k *Packed) FusedMulAdd(m, n, kk int, alpha float64, a, b Operand, dests []Dest) {
	s := singles.Get().(*single)
	defer s.release()
	s.prod[0] = Product{A: a, B: b, Dests: dests}
	k.FusedMulAddTasks(nil, m, n, kk, alpha, 1, s.prod[:])
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
	lda := op.Ld
	asm := !op.Trans && len(op.Terms) <= 4 && mi.packAN != nil
	if !asm && len(op.Terms) == 1 && op.Terms[0].Coeff == 1 && rowsAll == mb && colsAll == kb {
		packA(mr, dst, op.Terms[0].Data, lda, op.Trans, ic, pc, mb, kb)
		return
	}
	asmPanels, asmCols := 0, 0
	if asm && colsAll > 0 {
		// The ISA forms the columns every term stores of every micro-panel
		// inside the block that a term stores rows of, reading the rows a
		// term lacks as zero; the loop below forms the rest.
		if ts, rows := asmTerms(op, pc*lda+ic, ic, mb, mr, mb-mb%mr); rows > 0 {
			asmPanels, asmCols = rows/mr, colsAll
			mi.packAN(dst, ts, lda, asmCols, kb)
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
	f := newFusedB(mi, op, pc, jc, kb, nb)
	f.pack(dst, 0, nb)
}

// fusedB is the kb×nb block with top-left (pc, jc) of a fused B̃ operand,
// set up for packing once — the rows and columns every term stores and
// the assembly's term plan — so that pack can form it a few nr-column
// slivers at a time at the cost of the packing alone.
type fusedB struct {
	mi               *microImpl
	op               Operand
	pc, jc, kb       int
	rowsAll, colsAll int
	// plain: one unscaled term stores the whole block, which packB copies.
	plain bool
	// The ISA forms rows [0, bn.rows) of the leading asmPanels slivers,
	// which every term stores in full; the Go loops form the rest.
	asmPanels int
	bn        bnPlan
}

// newFusedB sets up the block for pack.
func newFusedB(mi *microImpl, op Operand, pc, jc, kb, nb int) fusedB {
	f := fusedB{mi: mi, op: op, pc: pc, jc: jc, kb: kb}
	f.rowsAll, f.colsAll = stored(op.Terms, pc, jc, kb, nb)
	asm := !op.Trans && len(op.Terms) <= 4 && mi.packBN != nil
	f.plain = !asm && len(op.Terms) == 1 && op.Terms[0].Coeff == 1 && f.rowsAll == kb && f.colsAll == nb
	// The ISA covers the rows some term stores in whole 4-row steps inside
	// the block, reading the rows a term lacks as zero.
	if asm && f.colsAll >= mi.nr {
		if ts, rows := asmTerms(op, jc*op.Ld+pc, pc, kb, 4, kb&^3); rows > 0 {
			f.bn = planBN(ts, rows)
			f.asmPanels = f.colsAll / mi.nr
		}
	}
	return f
}

// bnParts is how many masked 4-row steps a bnPlan holds. The blocks of a
// Strassen level differ by at most one stored row between terms, which
// needs one; rows past the last step a plan holds go to the Go loops.
const bnParts = 2

// bnPlan is a fused B̃ block as the assembly packer takes it, set up once
// per block: its terms, each term's row count capped at rows; the rows
// [0, full) every term stores, in whole 4-row steps; and one mask per
// 4-row step of [full, rows), whose lanes [4t, 4t+4) select the step's
// rows term t stores.
type bnPlan struct {
	packTerms
	full, rows int
	mask       [bnParts][16]int64
}

// planBN builds the plan that forms rows [0, rows) of ts, or fewer when
// the terms' row counts spread over more than bnParts masked steps.
func planBN(ts packTerms, rows int) bnPlan {
	lo, _ := ts.span()
	p := bnPlan{full: lo &^ 3}
	p.rows = min(rows, p.full+4*bnParts)
	for t := range ts.n {
		ts.h[t] = min(ts.h[t], p.rows)
	}
	p.packTerms = ts
	for i, s := 0, p.full; s < p.rows; i, s = i+1, s+4 {
		for t := range ts.n {
			for l := range min(max(ts.h[t]-s, 0), 4) {
				p.mask[i][4*t+l] = -1
			}
		}
	}
	return p
}

// pack forms columns [lo, hi) of the block into dst, which holds the
// sliver at column lo at its start: lo is a multiple of nr, and hi one
// too or nb.
func (f *fusedB) pack(dst []float64, lo, hi int) {
	mi, op, kb := f.mi, f.op, f.kb
	nr := mi.nr
	if nr < 1 || kb < 1 {
		return
	}
	pc, jc, ldb := f.pc, f.jc, op.Ld
	if f.plain {
		packB(nr, dst, op.Terms[0].Data, ldb, op.Trans, pc, jc+lo, kb, hi-lo)
		return
	}
	if p0, p1 := lo/nr, min(f.asmPanels, (hi+nr-1)/nr); p1 > p0 {
		mi.packBN(dst, f.bn, lo*ldb, ldb, p1-p0, kb)
	}
	kb4 := f.bn.rows
	rowsAll, colsAll := f.rowsAll, f.colsAll
	for jp := lo; jp < hi; jp += nr {
		cols := hi - jp
		if cols > nr {
			cols = nr
		}
		base := ((jp - lo) / nr) * (nr * kb)
		// Every term stores rows [0, whole) of the panel's columns.
		whole := 0
		if jp+cols <= colsAll {
			whole = rowsAll
		}
		if !op.Trans {
			// op(B)(l, j) = B(pc+l, jc+j): column j of the block is a
			// contiguous run of each term's storage column jc+j. Every
			// B̃ buffer holds whole nr-wide slivers of kb·nr words (effBlocks
			// rounds ncE up to them), so the strided stores d[l·nr] are in
			// bounds even for the last ragged sliver. The two-term fast
			// path makes one combined pass over the strided destination
			// where assign-then-accumulate would make two (the pack is
			// bandwidth-bound — see the fused_pack phase in obsreport).
			from := 0
			if jp/nr < f.asmPanels {
				from = kb4
			}
			for s := 0; s < cols; s++ {
				col := (jc+jp+s)*ldb + pc
				d := dst[base+s:]
				if to := max(from, whole); to < kb {
					formRun(d[to*nr:], nr, kb-to, op.Terms, col+to, true, jc+jp+s, pc+to)
				}
				if from >= whole {
					continue
				}
				if len(op.Terms) == 2 {
					x := op.Terms[0].Data[col : col+whole]
					y := op.Terms[1].Data[col : col+whole]
					g0, g1 := op.Terms[0].Coeff, op.Terms[1].Coeff
					for l := from; l < whole; l++ {
						d[l*nr] = float64(g0*x[l]) + float64(g1*y[l])
					}
					continue
				}
				t0 := op.Terms[0]
				x := t0.Data[col : col+whole]
				for l := from; l < whole; l++ {
					d[l*nr] = t0.Coeff * x[l]
				}
				for _, t := range op.Terms[1:] {
					x := t.Data[col : col+whole]
					g := t.Coeff
					for l := from; l < whole; l++ {
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
// stores; in a column of tiles every destination touching it stores in
// full, the leading full tiles they all store go to the ISA's
// multi-destination tile when present; every other tile runs the full
// tile over the zero-padded panels into a −0.0 buffer at alpha = 1 (an
// exact capture of the accumulators, ragged tiles included) and each
// destination's valid elements are scattered with the tile's own
// rounding: FMA(ad, acc, c) on the SIMD tiles, c + ad·acc on the scalar
// tile. The buffer is tb's, drawn the first time a sweep of the call
// needs one.
func macroKernelFused(mi *microImpl, apack, bpack []float64, dests []Dest, ic, jc, mb, nb, kb int, alpha float64, tb *tileBuf) (fullTiles, edgeTiles int64) {
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
	native := mi.multi != nil && len(dests) <= 4
	for jp := 0; jp < nv; jp += nr {
		cols := nv - jp
		if cols > nr {
			cols = nr
		}
		bp := bpack[(jp/nr)*(nr*kb):]
		// The leading full tiles of the column that every destination
		// touching it stores in full run in one multi-destination call.
		ip0 := 0
		if native && cols == nr {
			if ds, nd, rows := columnDests(dests, ic, jc+jp, mv, mr, nr, alpha); rows > 0 {
				mi.multi(apack, bp, kb, ds, nd, rows/mr)
				fullTiles += int64(rows / mr)
				ip0 = rows
			}
		}
		for ip := ip0; ip < mv; ip += mr {
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
			buf := tb.get()
			*buf = negZeroTile
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

// tileBuf is a call's register-tile buffer for the fused write-out's
// captured tiles. It is allocated on first use and reused by every later
// sweep of the band that holds it: the tile writes it through a function
// value, so a buffer declared per sweep would be a heap allocation each.
type tileBuf struct {
	p *[SIMDTileMR * SIMDTileNR]float64
}

// get returns the buffer, allocating it on first use.
func (t *tileBuf) get() *[SIMDTileMR * SIMDTileNR]float64 {
	if t.p == nil {
		t.p = new([SIMDTileMR * SIMDTileNR]float64)
	}
	return t.p
}

// columnDests lists the destinations of the column of tiles, nr columns
// wide from column j, over rows [i, i+n), for the multi-destination tile:
// those that store any of it, when each stores all of its columns. rows
// is the leading whole tiles' worth of rows every listed destination
// stores (0 when a destination stores part of the columns or none is
// listed).
func columnDests(dests []Dest, i, j, n, mr, nr int, alpha float64) (ds [4]tileDest, nd, rows int) {
	rows = n - n%mr
	for _, d := range dests {
		dr, dc := within(d.Rows, i, n), within(d.Cols, j, nr)
		switch {
		case dr == 0 || dc == 0:
			continue
		case dc < nr:
			return ds, 0, 0
		}
		rows = min(rows, dr-dr%mr)
		ds[nd] = tileDest{c: d.Data[j*d.Ld+i:], ldc: d.Ld, alpha: alpha * d.Coeff}
		nd++
	}
	if nd == 0 {
		rows = 0
	}
	return ds, nd, rows
}
