#include "textflag.h"

// AVX2 forms of the two hot fused-packing shapes (fused.go): a two-term,
// non-transposed operand g0·X + g1·Y packed into full micro-panels. Each
// element is VMULPD, VMULPD, VADDPD — two rounded products and one rounded
// sum, no FMA — so the packed word equals Go's g0*x + g1*y bit for bit for
// any coefficients. X and Y share the leading dimension ld (in elements).

// func packA2AVX2(dst, x, y *float64, ld, panels, cols, depth int, g0, g1 float64)
//
// Packs the (8·panels)×cols block with top-left x[0] (and y[0]) into
// 8-row micro-panels of depth words: element (i, l) goes to
// dst[(i/8)·8·depth + l·8 + i%8]. cols ≥ 1 and depth ≥ cols; columns
// [cols, depth) of each panel are left to the caller. The loop is
// column-outer, so each source column is one contiguous read of 8·panels
// words from X and from Y; the 64-byte stores then stride by one
// micro-panel (8·depth words).
TEXT ·packA2AVX2(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), BX
	MOVQ         ld+24(FP), DX
	MOVQ         panels+32(FP), CX
	MOVQ         cols+40(FP), R8
	MOVQ         depth+48(FP), R9
	VBROADCASTSD g0+56(FP), Y12
	VBROADCASTSD g1+64(FP), Y13
	SHLQ         $3, DX        // ld in bytes
	SHLQ         $6, R9        // micro-panel stride: 8·depth words in bytes

acol:
	MOVQ SI, R10
	MOVQ BX, R11
	MOVQ DI, AX
	MOVQ CX, R12

apanel:
	VMULPD  (R10), Y12, Y0
	VMULPD  32(R10), Y12, Y1
	VMULPD  (R11), Y13, Y2
	VMULPD  32(R11), Y13, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	ADDQ    $64, R10
	ADDQ    $64, R11
	ADDQ    R9, AX
	DECQ    R12
	JNZ     apanel

	ADDQ DX, SI
	ADDQ DX, BX
	ADDQ $64, DI
	DECQ R8
	JNZ  acol

	VZEROUPPER
	RET

// func packB2AVX2(dst, x, y *float64, ld, panels, rows, depth int, g0, g1 float64)
//
// Packs the rows [0, rows &^ 3) of the rows×(4·panels) block with top-left
// x[0] (and y[0]) into 4-column micro-panels of depth words (depth ≥
// rows): element (l, j) goes to dst[(j/4)·4·depth + l·4 + j%4]. The
// remaining rows of each panel are left to the caller.
//
// Each step reads four k values down each of the panel's four columns (one
// YMM per column and term), combines them, and transposes the 4×4 block in
// registers (VUNPCKLPD/VUNPCKHPD, then VPERM2F128) into four packed rows,
// stored as one contiguous 128-byte run.
TEXT ·packB2AVX2(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), BX
	MOVQ         ld+24(FP), DX
	MOVQ         panels+32(FP), CX
	MOVQ         rows+40(FP), R8
	MOVQ         depth+48(FP), R9
	VBROADCASTSD g0+56(FP), Y12
	VBROADCASTSD g1+64(FP), Y13
	SHLQ         $3, DX        // ld in bytes
	LEAQ         (DX)(DX*2), R11 // 3·ld in bytes
	SHLQ         $5, R9        // micro-panel stride: 4·depth words in bytes
	SHRQ         $2, R8        // 4-row steps per panel
	JZ           bdone

bpanel:
	MOVQ SI, R10
	MOVQ BX, R12
	MOVQ DI, AX
	MOVQ R8, R13

bstep:
	// Y0..Y3 = columns 0..3 of the combined 4×4 block (rows l..l+3).
	VMULPD (R10), Y12, Y0
	VMULPD (R12), Y13, Y4
	VADDPD Y4, Y0, Y0
	VMULPD (R10)(DX*1), Y12, Y1
	VMULPD (R12)(DX*1), Y13, Y5
	VADDPD Y5, Y1, Y1
	VMULPD (R10)(DX*2), Y12, Y2
	VMULPD (R12)(DX*2), Y13, Y6
	VADDPD Y6, Y2, Y2
	VMULPD (R10)(R11*1), Y12, Y3
	VMULPD (R12)(R11*1), Y13, Y7
	VADDPD Y7, Y3, Y3

	// Transpose: Y4 = (c0l0 c1l0 | c0l2 c1l2), Y5 = (c0l1 c1l1 | c0l3 c1l3),
	// Y6/Y7 likewise for columns 2–3; the lane permutes pair them into rows.
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD    Y0, (AX)
	VMOVUPD    Y1, 32(AX)
	VMOVUPD    Y2, 64(AX)
	VMOVUPD    Y3, 96(AX)

	ADDQ $32, R10
	ADDQ $32, R12
	ADDQ $128, AX
	DECQ R13
	JNZ  bstep

	LEAQ (SI)(DX*4), SI
	LEAQ (BX)(DX*4), BX
	ADDQ R9, DI
	DECQ CX
	JNZ  bpanel

bdone:
	VZEROUPPER
	RET

// func packA2PartAVX2(dst, x, y *float64, ld, cols int, g0, g1 float64, mask *[16]int64)
//
// Forms columns [0, cols) of one 8-row micro-panel whose terms store only
// some of its rows: mask[0:8] selects the rows X stores and mask[8:16] the
// rows Y stores (−1 stored, 0 not). VMASKMOVPD reads a row a term does not
// store as +0.0 without touching its memory, and the word is still two
// rounded products and their rounded sum — the bits of the same panel of
// a zero-padded copy. cols ≥ 1.
TEXT ·packA2PartAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), BX
	MOVQ         ld+24(FP), DX
	MOVQ         cols+32(FP), CX
	VBROADCASTSD g0+40(FP), Y12
	VBROADCASTSD g1+48(FP), Y13
	MOVQ         mask+56(FP), AX
	VMOVDQU      (AX), Y8
	VMOVDQU      32(AX), Y9
	VMOVDQU      64(AX), Y10
	VMOVDQU      96(AX), Y11
	SHLQ         $3, DX        // ld in bytes

pcol:
	VMASKMOVPD (SI), Y8, Y0
	VMASKMOVPD 32(SI), Y9, Y1
	VMASKMOVPD (BX), Y10, Y2
	VMASKMOVPD 32(BX), Y11, Y3
	VMULPD     Y0, Y12, Y0
	VMULPD     Y1, Y12, Y1
	VMULPD     Y2, Y13, Y2
	VMULPD     Y3, Y13, Y3
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y1, Y1
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	ADDQ       DX, SI
	ADDQ       DX, BX
	ADDQ       $64, DI
	DECQ       CX
	JNZ        pcol

	VZEROUPPER
	RET

// func packB2PartAVX2(dst, x, y *float64, ld, panels, depth int, g0, g1 float64, mask *[8]int64)
//
// Forms one 4-row step of panels 4-column micro-panels of depth words:
// x[0] (and y[0]) is the step's first row in the block's first column and
// dst[0] its place in the first panel. mask[0:4] selects the step's rows
// X stores, mask[4:8] those Y stores; the others read as +0.0, as in
// packA2PartAVX2. The combine and transpose are packB2AVX2's.
TEXT ·packB2PartAVX2(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), BX
	MOVQ         ld+24(FP), DX
	MOVQ         panels+32(FP), CX
	MOVQ         depth+40(FP), R9
	VBROADCASTSD g0+48(FP), Y12
	VBROADCASTSD g1+56(FP), Y13
	MOVQ         mask+64(FP), AX
	VMOVDQU      (AX), Y14
	VMOVDQU      32(AX), Y15
	SHLQ         $3, DX          // ld in bytes
	LEAQ         (DX)(DX*2), R11 // 3·ld in bytes
	SHLQ         $5, R9          // micro-panel stride: 4·depth words in bytes

ppanel:
	VMASKMOVPD (SI), Y14, Y0
	VMASKMOVPD (BX), Y15, Y4
	VMULPD     Y0, Y12, Y0
	VMULPD     Y4, Y13, Y4
	VADDPD     Y4, Y0, Y0
	VMASKMOVPD (SI)(DX*1), Y14, Y1
	VMASKMOVPD (BX)(DX*1), Y15, Y5
	VMULPD     Y1, Y12, Y1
	VMULPD     Y5, Y13, Y5
	VADDPD     Y5, Y1, Y1
	VMASKMOVPD (SI)(DX*2), Y14, Y2
	VMASKMOVPD (BX)(DX*2), Y15, Y6
	VMULPD     Y2, Y12, Y2
	VMULPD     Y6, Y13, Y6
	VADDPD     Y6, Y2, Y2
	VMASKMOVPD (SI)(R11*1), Y14, Y3
	VMASKMOVPD (BX)(R11*1), Y15, Y7
	VMULPD     Y3, Y12, Y3
	VMULPD     Y7, Y13, Y7
	VADDPD     Y7, Y3, Y3

	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y2, 64(DI)
	VMOVUPD    Y3, 96(DI)

	LEAQ (SI)(DX*4), SI
	LEAQ (BX)(DX*4), BX
	ADDQ R9, DI
	DECQ CX
	JNZ  ppanel

	VZEROUPPER
	RET
