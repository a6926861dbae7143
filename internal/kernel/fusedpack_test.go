package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// The packer contract: on the SIMD geometry, packAFused/packBFused produce
// exactly the panels packA/packB produce from the combineTerms
// materialization — bit for bit, padding included — whichever of the
// assembly and Go loops forms each word. NaN outputs compare as NaN only:
// which operand's payload an IEEE operation propagates is not part of the
// contract.

// fusedPackCoeffs are the coefficients the packer tests draw from: the
// Strassen table's ±1 plus an exact scaling and one that rounds.
var fusedPackCoeffs = [4]float64{1, -1, 0.5, -3}

// packSpecials are the IEEE edge values mixed into packer inputs.
var packSpecials = [...]float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	0x1p-1074, -0x1.8p-1060, 0x1.fffffffffffffp-1023, math.NaN(),
}

// packOperand builds an operand with one term per coefficient whose op()
// view is opRows×opCols, stored with leading dimension ld = stored rows +
// pad. About one element in eight is an IEEE special; the ld padding is a
// NaN canary, so a packer reading outside the block shows up as a NaN where
// the reference has none.
func packOperand(rng *rand.Rand, trans bool, opRows, opCols, pad int, coeffs []float64) Operand {
	rows, cols := opDims(trans, opRows, opCols)
	op := Operand{Ld: rows + pad, Trans: trans}
	for _, g := range coeffs {
		v := fill(rng, rows, cols, op.Ld)
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				if rng.Intn(8) == 0 {
					v[j*op.Ld+i] = packSpecials[rng.Intn(len(packSpecials))]
				} else {
					v[j*op.Ld+i] = math.Ldexp(v[j*op.Ld+i], rng.Intn(41)-20)
				}
			}
		}
		op.Terms = append(op.Terms, Term{Data: v, Coeff: g, Rows: opRows, Cols: opCols})
	}
	return op
}

// clipOperand gives term t of op the extent of the rows×cols block at
// (i0, j0) of its op() view, short by short[t] = {rows, cols} (terms past
// len(short) keep the whole block). Every stored element past a term's
// extent becomes NaN, so a packer reading one shows up as a NaN where the
// reference has none, and Data ends at the extent's last element, so a
// packer reaching further panics. The returned reference is the
// combineTerms materialization of zero-padded copies: what packing a
// really padded operand would read.
func clipOperand(op Operand, i0, j0, rows, cols int, short [][2]int) (Operand, []float64) {
	out := Operand{Ld: op.Ld, Trans: op.Trans}
	padded := make([]Term, len(op.Terms))
	for t, tm := range op.Terms {
		var sh [2]int
		if t < len(short) {
			sh = short[t]
		}
		er, ec := max(i0+rows-sh[0], 0), max(j0+cols-sh[1], 0)
		data := append([]float64(nil), tm.Data...)
		pad := make([]float64, len(data))
		for idx := range data {
			i, j := idx%op.Ld, idx/op.Ld
			if op.Trans {
				i, j = j, i
			}
			if i < er && j < ec {
				pad[idx] = data[idx]
			} else {
				data[idx] = math.NaN()
			}
		}
		sr, sc := opDims(op.Trans, er, ec)
		data = data[:0]
		if sr > 0 && sc > 0 {
			data = data[:(sc-1)*op.Ld+sr]
		}
		out.Terms = append(out.Terms, Term{Data: data, Coeff: tm.Coeff, Rows: er, Cols: ec})
		padded[t] = Term{Data: pad, Coeff: tm.Coeff}
	}
	return out, combineTerms(padded, len(op.Terms[0].Data))
}

// checkFusedPack packs the block with top-left (i0, j0) of op's op() view —
// rows×cols — as Ã (sideB false: rows = mb, cols = kb) or B̃ (rows = kb,
// cols = nb) both ways, with each term's extent short of the block by
// short (see clipOperand), and compares the panels, plus a canary tail
// past them, bit for bit.
func checkFusedPack(t testing.TB, mi *microImpl, sideB bool, op Operand, i0, j0, rows, cols int, short [][2]int) {
	t.Helper()
	n := roundUpMul(rows, mi.mr) * cols
	if sideB {
		n = rows * roundUpMul(cols, mi.nr)
	}
	const canary = 16
	got := make([]float64, n+canary)
	want := make([]float64, n+canary)
	for i := range got {
		got[i] = 12345.5
		want[i] = 12345.5
	}
	op, ref := clipOperand(op, i0, j0, rows, cols, short)
	if sideB {
		packBFused(mi, got, op, i0, j0, rows, cols)
		packB(mi.nr, want, ref, op.Ld, op.Trans, i0, j0, rows, cols)
	} else {
		packAFused(mi, got, op, i0, j0, rows, cols)
		packA(mi.mr, want, ref, op.Ld, op.Trans, i0, j0, rows, cols)
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g) == math.Float64bits(w) || (math.IsNaN(g) && math.IsNaN(w)) {
			continue
		}
		coeffs := make([]float64, len(op.Terms))
		for ti, tm := range op.Terms {
			coeffs[ti] = tm.Coeff
		}
		t.Fatalf("sideB=%v trans=%v block %d×%d at (%d,%d) ld=%d coeffs=%v short=%v: word %d of %d is %v (%#x), want %v (%#x)",
			sideB, op.Trans, rows, cols, i0, j0, op.Ld, coeffs, short, i, n, g, math.Float64bits(g), w, math.Float64bits(w))
	}
}

// fusedPackClips are the per-term extent shortfalls {rows, cols} the
// packer tests apply: none; the second term short one column or one row
// (A12 and B21 in an odd Strassen level: the assembly Ã path's short last
// column and B̃ path's short last row); every term short one of each (the
// corner block); shortfalls crossing micro-panel and 4-row boundaries;
// and a term whose extent misses the block entirely.
var fusedPackClips = [][][2]int{
	nil,
	{{0, 0}, {0, 1}},
	{{0, 0}, {1, 0}},
	{{1, 1}, {1, 1}, {1, 1}},
	{{0, 1}, {1, 0}, {2, 2}},
	{{9, 0}, {0, 6}, {5, 0}},
	{{0, 0}, {200, 200}},
	{{0, 0}, {1, 0}, {0, 1}, {1, 1}},
	{{3, 0}, {0, 0}, {9, 2}, {200, 200}},
}

// TestFusedPackBitwise sweeps the ragged classes of the SIMD geometry —
// mb mod 8, nb mod 4 and kb mod 4 all non-zero, plus whole panels — with
// ld larger than the block, non-zero block offsets, every pair of
// coefficients for two-term operands and a few one-, three- and four-term
// ones, both transposes, both sides and every fusedPackClips extent.
func TestFusedPackBitwise(t *testing.T) {
	mi := simdImpl
	if mi == nil {
		t.Skipf("no SIMD micro-kernel on this host (ISA %s)", SIMDISA())
	}
	if mi.packAN == nil {
		t.Logf("ISA %s has no assembly packers; checking the Go loops on its geometry", mi.isa)
	}
	rng := rand.New(rand.NewSource(60))
	// {rows, cols} of the packed block: Ã is mb×kb, B̃ is kb×nb.
	aShapes := [][2]int{{8, 4}, {13, 7}, {29, 33}, {64, 16}, {3, 5}, {21, 1}}
	bShapes := [][2]int{{4, 4}, {7, 13}, {33, 29}, {16, 64}, {5, 3}, {1, 21}, {3, 8}}
	offsets := [][2]int{{0, 0}, {5, 3}, {8, 4}}
	var multi [][]float64
	for _, g0 := range fusedPackCoeffs {
		for _, g1 := range fusedPackCoeffs {
			multi = append(multi, []float64{g0, g1})
		}
	}
	multi = append(multi, []float64{1}, []float64{-3}, []float64{1, -1, 0.5}, []float64{-1, 0.5, -3},
		[]float64{1, -1, -1, 1}, []float64{-3, 1, 0.5, -1})
	for _, sideB := range []bool{false, true} {
		shapes := aShapes
		if sideB {
			shapes = bShapes
		}
		for _, trans := range []bool{false, true} {
			for _, s := range shapes {
				for _, off := range offsets {
					for _, coeffs := range multi {
						pad := 1 + rng.Intn(7)
						op := packOperand(rng, trans, off[0]+s[0], off[1]+s[1], pad, coeffs)
						for _, short := range fusedPackClips {
							checkFusedPack(t, mi, sideB, op, off[0], off[1], s[0], s[1], short)
						}
					}
				}
			}
		}
	}
}

// FuzzFusedPack fuzzes the packer contract over block shape and offset,
// leading-dimension padding, transpose, side, term count, coefficients and
// each term's extent (clipBits: 2 bits of row and 2 of column shortfall
// per term, the top bit of each pair scaling it past a micro-panel). CI
// runs a 10s smoke.
func FuzzFusedPack(f *testing.F) {
	f.Add(uint8(13), uint8(7), uint8(5), uint8(3), uint8(2), false, false, uint8(0x1e), uint8(1), uint16(0), int64(1))
	f.Add(uint8(33), uint8(29), uint8(0), uint8(8), uint8(1), false, true, uint8(0x06), uint8(1), uint16(0x0040), int64(2))
	f.Add(uint8(64), uint8(16), uint8(8), uint8(0), uint8(7), true, false, uint8(0xb4), uint8(2), uint16(0x0555), int64(3))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), true, true, uint8(0x00), uint8(0), uint16(0), int64(4))
	f.Add(uint8(64), uint8(64), uint8(0), uint8(0), uint8(3), false, false, uint8(0x04), uint8(1), uint16(0x0010), int64(5))
	f.Add(uint8(29), uint8(33), uint8(3), uint8(5), uint8(2), false, false, uint8(0x6c), uint8(3), uint16(0x4a10), int64(6))
	f.Add(uint8(17), uint8(41), uint8(0), uint8(4), uint8(1), false, true, uint8(0xb1), uint8(2), uint16(0x0401), int64(7))

	f.Fuzz(func(t *testing.T, r8, c8, i8, j8, pad8 uint8, trans, sideB bool, coeffBits, terms8 uint8, clipBits uint16, seed int64) {
		mi := simdImpl
		if mi == nil {
			t.Skipf("no SIMD micro-kernel on this host (ISA %s)", SIMDISA())
		}
		rows, cols := int(r8%72)+1, int(c8%72)+1
		i0, j0 := int(i8%12), int(j8%12)
		coeffs := make([]float64, int(terms8%4)+1)
		short := make([][2]int, len(coeffs))
		for i := range coeffs {
			coeffs[i] = fusedPackCoeffs[coeffBits>>(2*i)&3]
			bits := clipBits >> (4 * i)
			short[i] = [2]int{[4]int{0, 1, 9, 3}[bits&3], [4]int{0, 1, 9, 3}[bits>>2&3]}
		}
		rng := rand.New(rand.NewSource(seed))
		op := packOperand(rng, trans, i0+rows, j0+cols, int(pad8%8), coeffs)
		checkFusedPack(t, mi, sideB, op, i0, j0, rows, cols, short)
	})
}
