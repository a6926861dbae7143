#include "textflag.h"

// AVX2 forms of the two hot fused-packing shapes (fused.go): a two-term,
// non-transposed operand g0·X + g1·Y packed into full micro-panels. Each
// element is VMULPD, VMULPD, VADDPD — two rounded products and one rounded
// sum, no FMA — so the packed word equals Go's g0*x + g1*y bit for bit for
// any coefficients. X and Y share the leading dimension ld (in elements).

// func packA2AVX2(dst, x, y *float64, ld, panels, kb int, g0, g1 float64)
//
// Packs the (8·panels)×kb block with top-left x[0] (and y[0]) into
// 8-row micro-panels: element (i, l) goes to dst[(i/8)·8·kb + l·8 + i%8].
// The loop is column-outer, so each source column is one contiguous read
// of 8·panels words from X and from Y; the 64-byte stores then stride by
// one micro-panel (8·kb words).
TEXT ·packA2AVX2(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), BX
	MOVQ         ld+24(FP), DX
	MOVQ         panels+32(FP), CX
	MOVQ         kb+40(FP), R8
	VBROADCASTSD g0+48(FP), Y12
	VBROADCASTSD g1+56(FP), Y13
	SHLQ         $3, DX        // ld in bytes
	MOVQ         R8, R9
	SHLQ         $6, R9        // micro-panel stride: 8·kb words in bytes

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

// func packB2AVX2(dst, x, y *float64, ld, panels, kb int, g0, g1 float64)
//
// Packs the rows [0, kb &^ 3) of the kb×(4·panels) block with top-left x[0]
// (and y[0]) into 4-column micro-panels: element (l, j) goes to
// dst[(j/4)·4·kb + l·4 + j%4]. The kb mod 4 tail rows are left to the
// caller; the micro-panel stride is still the full 4·kb words.
//
// Each step reads four k values down each of the panel's four columns (one
// YMM per column and term), combines them, and transposes the 4×4 block in
// registers (VUNPCKLPD/VUNPCKHPD, then VPERM2F128) into four packed rows,
// stored as one contiguous 128-byte run.
TEXT ·packB2AVX2(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), BX
	MOVQ         ld+24(FP), DX
	MOVQ         panels+32(FP), CX
	MOVQ         kb+40(FP), R8
	VBROADCASTSD g0+48(FP), Y12
	VBROADCASTSD g1+56(FP), Y13
	SHLQ         $3, DX        // ld in bytes
	LEAQ         (DX)(DX*2), R11 // 3·ld in bytes
	MOVQ         R8, R9
	SHLQ         $5, R9        // micro-panel stride: 4·kb words in bytes
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
