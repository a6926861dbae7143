#include "textflag.h"

// AVX2 forms of the fused packers (fused.go): a non-transposed operand
// Σ gₜ·Xₜ of nt = 1–4 terms packed into full micro-panels. The terms share
// the leading dimension ld (in elements). Term 0 is one VMULPD; every
// later term is one VMULPD and one VADDPD onto the running sum, in term
// order — each product rounded, then each sum, no FMA — so the packed word
// equals the Go loops' g0*x0 + g1*x1 + … bit for bit for any coefficients.
// The coefficients are coef[0:nt]; a pointer past nt is never dereferenced.
// The term count is tested once per vector step against the frame; the
// branches go the same way for a whole call.

// func packANAVX2(dst, x0, x1, x2, x3 *float64, ld, panels, cols, depth, nt int, coef *[4]float64)
//
// Packs the (8·panels)×cols block with top-left xₜ[0] into 8-row
// micro-panels of depth words: element (i, l) goes to
// dst[(i/8)·8·depth + l·8 + i%8]. cols ≥ 1 and depth ≥ cols; columns
// [cols, depth) of each panel are left to the caller. The loop is
// column-outer, so each source column is one contiguous read of 8·panels
// words per term; the 64-byte stores then stride by one micro-panel
// (8·depth words). Every term is addressed as its base plus one shared
// byte offset (R11), since the terms share ld.
TEXT ·packANAVX2(SB), NOSPLIT, $0-88
	MOVQ         dst+0(FP), DI
	MOVQ         x0+8(FP), SI
	MOVQ         x1+16(FP), BX
	MOVQ         x2+24(FP), R8
	MOVQ         x3+32(FP), R9
	MOVQ         ld+40(FP), DX
	MOVQ         cols+56(FP), CX
	MOVQ         depth+64(FP), R13
	MOVQ         coef+80(FP), AX
	VBROADCASTSD (AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	SHLQ         $3, DX        // ld in bytes
	SHLQ         $6, R13       // micro-panel stride: 8·depth words in bytes
	XORQ         R10, R10      // byte offset of the current column

acol:
	MOVQ R10, R11
	MOVQ DI, AX
	MOVQ panels+48(FP), R12

apanel:
	VMULPD (SI)(R11*1), Y12, Y0
	VMULPD 32(SI)(R11*1), Y12, Y1
	CMPQ   nt+72(FP), $2
	JLT    astore
	VMULPD (BX)(R11*1), Y13, Y2
	VMULPD 32(BX)(R11*1), Y13, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	CMPQ   nt+72(FP), $3
	JLT    astore
	VMULPD (R8)(R11*1), Y14, Y2
	VMULPD 32(R8)(R11*1), Y14, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	CMPQ   nt+72(FP), $4
	JLT    astore
	VMULPD (R9)(R11*1), Y15, Y2
	VMULPD 32(R9)(R11*1), Y15, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1

astore:
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	ADDQ    $64, R11
	ADDQ    R13, AX
	DECQ    R12
	JNZ     apanel

	ADDQ DX, R10
	ADDQ $64, DI
	DECQ CX
	JNZ  acol

	VZEROUPPER
	RET

// func packANPartAVX2(dst, x0, x1, x2, x3 *float64, ld, cols, nt int, coef *[4]float64, mask *[32]int64)
//
// Forms columns [0, cols) of one 8-row micro-panel whose terms store only
// some of its rows: mask[8t:8t+8] selects the rows term t stores (−1
// stored, 0 not). VMASKMOVPD reads a row a term does not store as +0.0
// without touching its memory, and the word goes through the same
// products and sums — the bits of the same panel of a zero-padded copy.
// cols ≥ 1.
TEXT ·packANPartAVX2(SB), NOSPLIT, $0-80
	MOVQ         dst+0(FP), DI
	MOVQ         x0+8(FP), SI
	MOVQ         x1+16(FP), BX
	MOVQ         x2+24(FP), R8
	MOVQ         x3+32(FP), R9
	MOVQ         ld+40(FP), DX
	MOVQ         cols+48(FP), CX
	MOVQ         nt+56(FP), R10
	MOVQ         coef+64(FP), AX
	VBROADCASTSD (AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	MOVQ         mask+72(FP), AX
	VMOVDQU      (AX), Y4
	VMOVDQU      32(AX), Y5
	VMOVDQU      64(AX), Y6
	VMOVDQU      96(AX), Y7
	VMOVDQU      128(AX), Y8
	VMOVDQU      160(AX), Y9
	VMOVDQU      192(AX), Y10
	VMOVDQU      224(AX), Y11
	SHLQ         $3, DX        // ld in bytes
	XORQ         R11, R11      // byte offset of the current column

pcol:
	VMASKMOVPD (SI)(R11*1), Y4, Y0
	VMASKMOVPD 32(SI)(R11*1), Y5, Y1
	VMULPD     Y0, Y12, Y0
	VMULPD     Y1, Y12, Y1
	CMPQ       R10, $2
	JLT        pstore
	VMASKMOVPD (BX)(R11*1), Y6, Y2
	VMASKMOVPD 32(BX)(R11*1), Y7, Y3
	VMULPD     Y2, Y13, Y2
	VMULPD     Y3, Y13, Y3
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y1, Y1
	CMPQ       R10, $3
	JLT        pstore
	VMASKMOVPD (R8)(R11*1), Y8, Y2
	VMASKMOVPD 32(R8)(R11*1), Y9, Y3
	VMULPD     Y2, Y14, Y2
	VMULPD     Y3, Y14, Y3
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y1, Y1
	CMPQ       R10, $4
	JLT        pstore
	VMASKMOVPD (R9)(R11*1), Y10, Y2
	VMASKMOVPD 32(R9)(R11*1), Y11, Y3
	VMULPD     Y2, Y15, Y2
	VMULPD     Y3, Y15, Y3
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y1, Y1

pstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    DX, R11
	ADDQ    $64, DI
	DECQ    CX
	JNZ     pcol

	VZEROUPPER
	RET

// func packBNAVX2(dst, x0, x1, x2, x3 *float64, ld, panels, rows, depth, nt int, coef *[4]float64)
//
// Packs the rows [0, rows &^ 3) of the rows×(4·panels) block with top-left
// xₜ[0] into 4-column micro-panels of depth words (depth ≥ rows): element
// (l, j) goes to dst[(j/4)·4·depth + l·4 + j%4]. The remaining rows of
// each panel are left to the caller.
//
// Each step reads four k values down each of the panel's four columns (one
// YMM per column and term), combines the terms, and transposes the 4×4
// block in registers (VUNPCKLPD/VUNPCKHPD, then VPERM2F128) into four
// packed rows, stored as one contiguous 128-byte run. The terms' running
// pointers are re-derived from the frame at each panel (BX is the panel's
// byte offset).
TEXT ·packBNAVX2(SB), NOSPLIT, $0-88
	MOVQ         dst+0(FP), DI
	MOVQ         ld+40(FP), DX
	MOVQ         panels+48(FP), CX
	MOVQ         depth+64(FP), R9
	MOVQ         coef+80(FP), AX
	VBROADCASTSD (AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	SHLQ         $3, DX          // ld in bytes
	LEAQ         (DX)(DX*2), R11 // 3·ld in bytes
	SHLQ         $5, R9          // micro-panel stride: 4·depth words in bytes
	XORQ         BX, BX          // byte offset of the current panel
	MOVQ         rows+56(FP), R8
	SHRQ         $2, R8          // 4-row steps per panel
	JZ           bdone

bpanel:
	MOVQ x0+8(FP), R10
	MOVQ x1+16(FP), R12
	MOVQ x2+24(FP), R13
	MOVQ x3+32(FP), SI
	ADDQ BX, R10
	ADDQ BX, R12
	ADDQ BX, R13
	ADDQ BX, SI
	MOVQ DI, AX
	MOVQ rows+56(FP), R8
	SHRQ $2, R8

bstep:
	// Y0..Y3 = columns 0..3 of the combined 4×4 block (rows l..l+3).
	VMULPD (R10), Y12, Y0
	VMULPD (R10)(DX*1), Y12, Y1
	VMULPD (R10)(DX*2), Y12, Y2
	VMULPD (R10)(R11*1), Y12, Y3
	CMPQ   nt+72(FP), $2
	JLT    btrans
	VMULPD (R12), Y13, Y4
	VMULPD (R12)(DX*1), Y13, Y5
	VMULPD (R12)(DX*2), Y13, Y6
	VMULPD (R12)(R11*1), Y13, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	CMPQ   nt+72(FP), $3
	JLT    btrans
	VMULPD (R13), Y14, Y4
	VMULPD (R13)(DX*1), Y14, Y5
	VMULPD (R13)(DX*2), Y14, Y6
	VMULPD (R13)(R11*1), Y14, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	CMPQ   nt+72(FP), $4
	JLT    btrans
	VMULPD (SI), Y15, Y4
	VMULPD (SI)(DX*1), Y15, Y5
	VMULPD (SI)(DX*2), Y15, Y6
	VMULPD (SI)(R11*1), Y15, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

btrans:
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
	ADDQ $32, R13
	ADDQ $32, SI
	ADDQ $128, AX
	DECQ R8
	JNZ  bstep

	LEAQ (BX)(DX*4), BX
	ADDQ R9, DI
	DECQ CX
	JNZ  bpanel

bdone:
	VZEROUPPER
	RET

// func packBNPartAVX2(dst, x0, x1, x2, x3 *float64, ld, panels, depth, nt int, coef *[4]float64, mask *[16]int64)
//
// Forms one 4-row step of panels 4-column micro-panels of depth words:
// xₜ[0] is the step's first row in the block's first column and dst[0]
// its place in the first panel. mask[4t:4t+4] selects the step's rows
// term t stores; the others read as +0.0, as in packANPartAVX2. The
// combine and transpose are packBNAVX2's.
TEXT ·packBNPartAVX2(SB), NOSPLIT, $0-88
	MOVQ         dst+0(FP), DI
	MOVQ         x0+8(FP), SI
	MOVQ         x1+16(FP), BX
	MOVQ         x2+24(FP), R8
	MOVQ         x3+32(FP), R13
	MOVQ         ld+40(FP), DX
	MOVQ         panels+48(FP), CX
	MOVQ         depth+56(FP), R9
	MOVQ         nt+64(FP), R12
	MOVQ         coef+72(FP), AX
	VBROADCASTSD (AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	MOVQ         mask+80(FP), AX
	VMOVDQU      (AX), Y8
	VMOVDQU      32(AX), Y9
	VMOVDQU      64(AX), Y10
	VMOVDQU      96(AX), Y11
	SHLQ         $3, DX          // ld in bytes
	LEAQ         (DX)(DX*2), R11 // 3·ld in bytes
	SHLQ         $5, R9          // micro-panel stride: 4·depth words in bytes

ppanel:
	VMASKMOVPD (SI), Y8, Y0
	VMASKMOVPD (SI)(DX*1), Y8, Y1
	VMASKMOVPD (SI)(DX*2), Y8, Y2
	VMASKMOVPD (SI)(R11*1), Y8, Y3
	VMULPD     Y0, Y12, Y0
	VMULPD     Y1, Y12, Y1
	VMULPD     Y2, Y12, Y2
	VMULPD     Y3, Y12, Y3
	CMPQ       R12, $2
	JLT        ptrans
	VMASKMOVPD (BX), Y9, Y4
	VMASKMOVPD (BX)(DX*1), Y9, Y5
	VMASKMOVPD (BX)(DX*2), Y9, Y6
	VMASKMOVPD (BX)(R11*1), Y9, Y7
	VMULPD     Y4, Y13, Y4
	VMULPD     Y5, Y13, Y5
	VMULPD     Y6, Y13, Y6
	VMULPD     Y7, Y13, Y7
	VADDPD     Y4, Y0, Y0
	VADDPD     Y5, Y1, Y1
	VADDPD     Y6, Y2, Y2
	VADDPD     Y7, Y3, Y3
	CMPQ       R12, $3
	JLT        ptrans
	VMASKMOVPD (R8), Y10, Y4
	VMASKMOVPD (R8)(DX*1), Y10, Y5
	VMASKMOVPD (R8)(DX*2), Y10, Y6
	VMASKMOVPD (R8)(R11*1), Y10, Y7
	VMULPD     Y4, Y14, Y4
	VMULPD     Y5, Y14, Y5
	VMULPD     Y6, Y14, Y6
	VMULPD     Y7, Y14, Y7
	VADDPD     Y4, Y0, Y0
	VADDPD     Y5, Y1, Y1
	VADDPD     Y6, Y2, Y2
	VADDPD     Y7, Y3, Y3
	CMPQ       R12, $4
	JLT        ptrans
	VMASKMOVPD (R13), Y11, Y4
	VMASKMOVPD (R13)(DX*1), Y11, Y5
	VMASKMOVPD (R13)(DX*2), Y11, Y6
	VMASKMOVPD (R13)(R11*1), Y11, Y7
	VMULPD     Y4, Y15, Y4
	VMULPD     Y5, Y15, Y5
	VMULPD     Y6, Y15, Y6
	VMULPD     Y7, Y15, Y7
	VADDPD     Y4, Y0, Y0
	VADDPD     Y5, Y1, Y1
	VADDPD     Y6, Y2, Y2
	VADDPD     Y7, Y3, Y3

ptrans:
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
	LEAQ (R8)(DX*4), R8
	LEAQ (R13)(DX*4), R13
	ADDQ R9, DI
	DECQ CX
	JNZ  ppanel

	VZEROUPPER
	RET
