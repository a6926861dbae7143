#include "textflag.h"

// func microTile8x4AVX2(kb int, alpha float64, ap, bp, c *float64, ldc int)
//
// C[0:8, 0:4] += alpha · Ã·B̃ over a kb-deep packed micro-panel pair.
// Ã is packed in 8-row micro-panels (element (i, l) at ap[l*8+i]), B̃ in
// 4-column micro-panels (element (l, j) at bp[l*4+j]); C is column-major
// with leading dimension ldc (in elements).
//
// Register plan: column j of the tile lives in Y(2j) (rows 0–3) and
// Y(2j+1) (rows 4–7) — eight YMM accumulators that stay live across the
// whole k loop. Each k step loads the 8-row Ã column into two YMM
// registers, broadcasts the four B̃ elements, and issues 8 VFMADD231PD:
// every C element is one FMA chain in strictly increasing k, the same
// association as the scalar tile, so SIMD-vs-scalar differences come only
// from FMA contraction (no intermediate product rounding).
//
// The k loop is unrolled by two with a second pair of Ã registers
// (Y12/Y13) so the loads of step l+1 overlap the FMAs of step l.
TEXT ·microTile8x4AVX2(SB), NOSPLIT, $0-48
	MOVQ kb+0(FP), CX
	MOVQ ap+16(FP), SI
	MOVQ bp+24(FP), BX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), DX
	SHLQ $3, DX              // ldc in bytes

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, AX
	SHRQ $1, AX
	JZ   tail

loop2:
	// k step l
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (BX), Y10
	VBROADCASTSD 8(BX), Y11
	VFMADD231PD  Y10, Y8, Y0
	VFMADD231PD  Y10, Y9, Y1
	VFMADD231PD  Y11, Y8, Y2
	VFMADD231PD  Y11, Y9, Y3
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11
	VFMADD231PD  Y10, Y8, Y4
	VFMADD231PD  Y10, Y9, Y5
	VFMADD231PD  Y11, Y8, Y6
	VFMADD231PD  Y11, Y9, Y7

	// k step l+1
	VMOVUPD      64(SI), Y12
	VMOVUPD      96(SI), Y13
	VBROADCASTSD 32(BX), Y10
	VBROADCASTSD 40(BX), Y11
	VFMADD231PD  Y10, Y12, Y0
	VFMADD231PD  Y10, Y13, Y1
	VFMADD231PD  Y11, Y12, Y2
	VFMADD231PD  Y11, Y13, Y3
	VBROADCASTSD 48(BX), Y10
	VBROADCASTSD 56(BX), Y11
	VFMADD231PD  Y10, Y12, Y4
	VFMADD231PD  Y10, Y13, Y5
	VFMADD231PD  Y11, Y12, Y6
	VFMADD231PD  Y11, Y13, Y7

	ADDQ $128, SI
	ADDQ $64, BX
	DECQ AX
	JNZ  loop2

tail:
	TESTQ $1, CX
	JZ    scatter

	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (BX), Y10
	VBROADCASTSD 8(BX), Y11
	VFMADD231PD  Y10, Y8, Y0
	VFMADD231PD  Y10, Y9, Y1
	VFMADD231PD  Y11, Y8, Y2
	VFMADD231PD  Y11, Y9, Y3
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11
	VFMADD231PD  Y10, Y8, Y4
	VFMADD231PD  Y10, Y9, Y5
	VFMADD231PD  Y11, Y8, Y6
	VFMADD231PD  Y11, Y9, Y7

scatter:
	// C[:, j] += alpha · acc_j. With alpha == 1 the FMA is exactly c + acc,
	// so one path serves both cases.
	VBROADCASTSD alpha+8(FP), Y14

	VMOVUPD     (DI), Y8
	VMOVUPD     32(DI), Y9
	VFMADD231PD Y14, Y0, Y8
	VFMADD231PD Y14, Y1, Y9
	VMOVUPD     Y8, (DI)
	VMOVUPD     Y9, 32(DI)
	ADDQ        DX, DI

	VMOVUPD     (DI), Y8
	VMOVUPD     32(DI), Y9
	VFMADD231PD Y14, Y2, Y8
	VFMADD231PD Y14, Y3, Y9
	VMOVUPD     Y8, (DI)
	VMOVUPD     Y9, 32(DI)
	ADDQ        DX, DI

	VMOVUPD     (DI), Y8
	VMOVUPD     32(DI), Y9
	VFMADD231PD Y14, Y4, Y8
	VFMADD231PD Y14, Y5, Y9
	VMOVUPD     Y8, (DI)
	VMOVUPD     Y9, 32(DI)
	ADDQ        DX, DI

	VMOVUPD     (DI), Y8
	VMOVUPD     32(DI), Y9
	VFMADD231PD Y14, Y6, Y8
	VFMADD231PD Y14, Y7, Y9
	VMOVUPD     Y8, (DI)
	VMOVUPD     Y9, 32(DI)

	VZEROUPPER
	RET

// func microTile8x4AVX2Multi(kb int, ap, bp *float64, dests *[4]rawDest, nd, tiles int)
//
// The fused write-out tile: the same 8×4 product accumulation as
// microTile8x4AVX2, scattered into nd = 1–4 destinations, each with its own
// C panel, leading dimension and scalar — dests[d] is (c, ldc, alpha),
// 24 bytes, and C_d[:, j] += alpha_d·acc_j in order d = 0, 1, …. The
// accumulators Y0–Y7 survive every scatter (it works in Y8/Y9 only), so
// the product is computed once and written nd times; each FMA write-out is
// a single rounding, identical to the single-destination scatter at that
// alpha.
//
// It runs tiles ≥ 1 tiles down one column of register tiles: tile t reads
// the t-th 8-row micro-panel of Ã (ap advances by 8·kb words, as the k
// loop leaves it) against the same B̃ micro-panel, and writes 8·t rows
// further down every destination (R10 is that byte offset).
TEXT ·microTile8x4AVX2Multi(SB), NOSPLIT, $0-48
	MOVQ kb+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ tiles+40(FP), R12
	XORQ R10, R10

mtile:
	MOVQ bp+16(FP), BX

	// Prefetch every destination's tile (both lines each 8-row column can
	// straddle): the k loop below hides the latency, so the write-out
	// finds C in L1 rather than stalling on up to four blocks streamed
	// from further out.
	MOVQ dests+24(FP), R8
	MOVQ nd+32(FP), R9

mpre:
	MOVQ       (R8), DI
	ADDQ       R10, DI
	MOVQ       8(R8), DX
	SHLQ       $3, DX
	PREFETCHT0 (DI)
	PREFETCHT0 63(DI)
	ADDQ       DX, DI
	PREFETCHT0 (DI)
	PREFETCHT0 63(DI)
	ADDQ       DX, DI
	PREFETCHT0 (DI)
	PREFETCHT0 63(DI)
	ADDQ       DX, DI
	PREFETCHT0 (DI)
	PREFETCHT0 63(DI)
	ADDQ       $24, R8
	DECQ       R9
	JNZ        mpre

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, AX
	SHRQ $1, AX
	JZ   mtail

mloop2:
	// k step l
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (BX), Y10
	VBROADCASTSD 8(BX), Y11
	VFMADD231PD  Y10, Y8, Y0
	VFMADD231PD  Y10, Y9, Y1
	VFMADD231PD  Y11, Y8, Y2
	VFMADD231PD  Y11, Y9, Y3
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11
	VFMADD231PD  Y10, Y8, Y4
	VFMADD231PD  Y10, Y9, Y5
	VFMADD231PD  Y11, Y8, Y6
	VFMADD231PD  Y11, Y9, Y7

	// k step l+1
	VMOVUPD      64(SI), Y12
	VMOVUPD      96(SI), Y13
	VBROADCASTSD 32(BX), Y10
	VBROADCASTSD 40(BX), Y11
	VFMADD231PD  Y10, Y12, Y0
	VFMADD231PD  Y10, Y13, Y1
	VFMADD231PD  Y11, Y12, Y2
	VFMADD231PD  Y11, Y13, Y3
	VBROADCASTSD 48(BX), Y10
	VBROADCASTSD 56(BX), Y11
	VFMADD231PD  Y10, Y12, Y4
	VFMADD231PD  Y10, Y13, Y5
	VFMADD231PD  Y11, Y12, Y6
	VFMADD231PD  Y11, Y13, Y7

	ADDQ $128, SI
	ADDQ $64, BX
	DECQ AX
	JNZ  mloop2

mtail:
	TESTQ $1, CX
	JZ    mscatter

	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (BX), Y10
	VBROADCASTSD 8(BX), Y11
	VFMADD231PD  Y10, Y8, Y0
	VFMADD231PD  Y10, Y9, Y1
	VFMADD231PD  Y11, Y8, Y2
	VFMADD231PD  Y11, Y9, Y3
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11
	VFMADD231PD  Y10, Y8, Y4
	VFMADD231PD  Y10, Y9, Y5
	VFMADD231PD  Y11, Y8, Y6
	VFMADD231PD  Y11, Y9, Y7
	ADDQ         $64, SI

mscatter:
	MOVQ dests+24(FP), R8
	MOVQ nd+32(FP), R9

mdest:
	// C_d[:, j] += alpha_d · acc_j.
	MOVQ         (R8), DI
	ADDQ         R10, DI
	MOVQ         8(R8), DX
	VBROADCASTSD 16(R8), Y14
	SHLQ         $3, DX

	VMOVUPD     (DI), Y8
	VMOVUPD     32(DI), Y9
	VFMADD231PD Y14, Y0, Y8
	VFMADD231PD Y14, Y1, Y9
	VMOVUPD     Y8, (DI)
	VMOVUPD     Y9, 32(DI)
	ADDQ        DX, DI

	VMOVUPD     (DI), Y8
	VMOVUPD     32(DI), Y9
	VFMADD231PD Y14, Y2, Y8
	VFMADD231PD Y14, Y3, Y9
	VMOVUPD     Y8, (DI)
	VMOVUPD     Y9, 32(DI)
	ADDQ        DX, DI

	VMOVUPD     (DI), Y8
	VMOVUPD     32(DI), Y9
	VFMADD231PD Y14, Y4, Y8
	VFMADD231PD Y14, Y5, Y9
	VMOVUPD     Y8, (DI)
	VMOVUPD     Y9, 32(DI)
	ADDQ        DX, DI

	VMOVUPD     (DI), Y8
	VMOVUPD     32(DI), Y9
	VFMADD231PD Y14, Y6, Y8
	VFMADD231PD Y14, Y7, Y9
	VMOVUPD     Y8, (DI)
	VMOVUPD     Y9, 32(DI)

	ADDQ $24, R8
	DECQ R9
	JNZ  mdest

	ADDQ $64, R10
	DECQ R12
	JNZ  mtile

	VZEROUPPER
	RET
