//go:build amd64

#include "textflag.h"

// AXPY-across-cells kernels (see axpy.go). Determinism contract: each
// output cell receives exactly one VMULPD/VMULSD product of its own
// (a, b) pair followed by one VADDPD/VADDSD into its own accumulator
// lane — the same round-to-nearest multiply-then-add the scalar Go
// loop performs, in the same j order per cell. FMA is deliberately
// not used: fusing would skip the intermediate rounding and change
// bits.

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// Need OSXSAVE (ECX bit 27) and AVX (ECX bit 28).
	MOVL CX, DX
	ANDL $0x18000000, DX
	CMPL DX, $0x18000000
	JNE  noavx
	// XCR0 must have XMM (bit 1) and YMM (bit 2) state enabled.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET
noavx:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasAVX512() bool
//
// Called only once cpuHasAVX holds, so OSXSAVE is known and XGETBV is
// safe to execute.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no512
	// AVX512F is CPUID.(7,0):EBX bit 16.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  no512
	// XCR0 must enable XMM, YMM, opmask, ZMM_Hi256 and Hi16_ZMM state
	// (bits 1, 2, 5, 6, 7).
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	MOVB $1, ret+0(FP)
	RET
no512:
	MOVB $0, ret+0(FP)
	RET

// func gemmTile4AVX(c *float64, ldc int, a *float64, ars, aps int, b *float64, ldb, k, n int)
//
// C[r, j] += Σ_p a[r·ars + p·aps] · b[p·ldb + j] for r = 0…3, j = 0…n−1,
// p = 0…k−1 ascending; k, n >= 1, strides in elements. With AVX-512F
// columns first go in tiles of 16 (Z0–Z7 hold the 4×16 cells across the
// whole p loop); then tiles of 8 (Y0–Y7 hold 4×8), one tile of 4, and
// single columns.
TEXT ·gemmTile4AVX(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	MOVQ aps+32(FP), R10
	MOVQ b+40(FP), DX
	MOVQ ldb+48(FP), R11
	MOVQ n+64(FP), BX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	CMPB ·haveAVX512(SB), $0
	JEQ  tile8

tile16:
	CMPQ BX, $16
	JLT  tile8
	LEAQ (DI)(R8*2), AX
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD (DI)(R8*1), Z2
	VMOVUPD 64(DI)(R8*1), Z3
	VMOVUPD (AX), Z4
	VMOVUPD 64(AX), Z5
	VMOVUPD (AX)(R8*1), Z6
	VMOVUPD 64(AX)(R8*1), Z7
	MOVQ SI, AX           // a rows 0, 1
	LEAQ (SI)(R9*2), R13  // a rows 2, 3
	MOVQ DX, R12          // b row p
	MOVQ k+56(FP), CX

loop16:
	VMOVUPD (R12), Z8
	VMOVUPD 64(R12), Z9
	VBROADCASTSD (AX), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z0, Z0
	VMULPD Z9, Z10, Z12
	VADDPD Z12, Z1, Z1
	VBROADCASTSD (AX)(R9*1), Z13
	VMULPD Z8, Z13, Z14
	VADDPD Z14, Z2, Z2
	VMULPD Z9, Z13, Z15
	VADDPD Z15, Z3, Z3
	VBROADCASTSD (R13), Z10
	VMULPD Z8, Z10, Z11
	VADDPD Z11, Z4, Z4
	VMULPD Z9, Z10, Z12
	VADDPD Z12, Z5, Z5
	VBROADCASTSD (R13)(R9*1), Z13
	VMULPD Z8, Z13, Z14
	VADDPD Z14, Z6, Z6
	VMULPD Z9, Z13, Z15
	VADDPD Z15, Z7, Z7
	ADDQ R10, AX
	ADDQ R10, R13
	ADDQ R11, R12
	DECQ CX
	JNZ  loop16

	LEAQ (DI)(R8*2), AX
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(R8*1)
	VMOVUPD Z3, 64(DI)(R8*1)
	VMOVUPD Z4, (AX)
	VMOVUPD Z5, 64(AX)
	VMOVUPD Z6, (AX)(R8*1)
	VMOVUPD Z7, 64(AX)(R8*1)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, BX
	JMP  tile16

tile8:
	CMPQ BX, $8
	JLT  tile4
	LEAQ (DI)(R8*2), AX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD (AX)(R8*1), Y6
	VMOVUPD 32(AX)(R8*1), Y7
	MOVQ SI, AX           // a rows 0, 1
	LEAQ (SI)(R9*2), R13  // a rows 2, 3
	MOVQ DX, R12          // b row p
	MOVQ k+56(FP), CX

loop8:
	VMOVUPD (R12), Y8
	VMOVUPD 32(R12), Y9
	VBROADCASTSD (AX), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y1, Y1
	VBROADCASTSD (AX)(R9*1), Y13
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y2, Y2
	VMULPD Y9, Y13, Y15
	VADDPD Y15, Y3, Y3
	VBROADCASTSD (R13), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y5, Y5
	VBROADCASTSD (R13)(R9*1), Y13
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y6, Y6
	VMULPD Y9, Y13, Y15
	VADDPD Y15, Y7, Y7
	ADDQ R10, AX
	ADDQ R10, R13
	ADDQ R11, R12
	DECQ CX
	JNZ  loop8

	LEAQ (DI)(R8*2), AX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, (AX)(R8*1)
	VMOVUPD Y7, 32(AX)(R8*1)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, BX
	JMP  tile8

tile4:
	CMPQ BX, $4
	JLT  tile1
	LEAQ (DI)(R8*2), AX
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD (AX), Y4
	VMOVUPD (AX)(R8*1), Y6
	MOVQ SI, AX
	LEAQ (SI)(R9*2), R13
	MOVQ DX, R12
	MOVQ k+56(FP), CX

loop4:
	VMOVUPD (R12), Y8
	VBROADCASTSD (AX), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VBROADCASTSD (AX)(R9*1), Y13
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y2, Y2
	VBROADCASTSD (R13), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VBROADCASTSD (R13)(R9*1), Y13
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y6, Y6
	ADDQ R10, AX
	ADDQ R10, R13
	ADDQ R11, R12
	DECQ CX
	JNZ  loop4

	LEAQ (DI)(R8*2), AX
	VMOVUPD Y0, (DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y4, (AX)
	VMOVUPD Y6, (AX)(R8*1)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, BX

tile1:
	TESTQ BX, BX
	JZ    done
	LEAQ (DI)(R8*2), AX
	VMOVSD (DI), X0
	VMOVSD (DI)(R8*1), X2
	VMOVSD (AX), X4
	VMOVSD (AX)(R8*1), X6
	MOVQ SI, AX
	LEAQ (SI)(R9*2), R13
	MOVQ DX, R12
	MOVQ k+56(FP), CX

loop1:
	VMOVSD (R12), X8
	VMULSD (AX), X8, X11
	VADDSD X11, X0, X0
	VMULSD (AX)(R9*1), X8, X14
	VADDSD X14, X2, X2
	VMULSD (R13), X8, X11
	VADDSD X11, X4, X4
	VMULSD (R13)(R9*1), X8, X14
	VADDSD X14, X6, X6
	ADDQ R10, AX
	ADDQ R10, R13
	ADDQ R11, R12
	DECQ CX
	JNZ  loop1

	LEAQ (DI)(R8*2), AX
	VMOVSD X0, (DI)
	VMOVSD X2, (DI)(R8*1)
	VMOVSD X4, (AX)
	VMOVSD X6, (AX)(R8*1)
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ BX
	JMP  tile1

done:
	VZEROUPPER
	RET

// func gemmRow1AVX(c *float64, a *float64, aps int, b *float64, ldb, k, n int)
//
// C[j] += Σ_p a[p·aps] · b[p·ldb + j] for j = 0…n−1, p = 0…k−1
// ascending; k, n >= 1, strides in elements. gemmTile4AVX's column
// walk for one row: with AVX-512F tiles of 16 (Z0, Z1 hold the cells
// across the whole p loop), then tiles of 8 (Y0, Y1), one tile of 4,
// and single columns.
TEXT ·gemmRow1AVX(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ aps+16(FP), R10
	MOVQ b+24(FP), DX
	MOVQ ldb+32(FP), R11
	MOVQ n+48(FP), BX
	SHLQ $3, R10
	SHLQ $3, R11
	CMPB ·haveAVX512(SB), $0
	JEQ  tile8

tile16:
	CMPQ BX, $16
	JLT  tile8
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	MOVQ SI, AX
	MOVQ DX, R12
	MOVQ k+40(FP), CX

loop16:
	VBROADCASTSD (AX), Z10
	VMULPD (R12), Z10, Z8
	VADDPD Z8, Z0, Z0
	VMULPD 64(R12), Z10, Z9
	VADDPD Z9, Z1, Z1
	ADDQ R10, AX
	ADDQ R11, R12
	DECQ CX
	JNZ  loop16

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $16, BX
	JMP  tile16

tile8:
	CMPQ BX, $8
	JLT  tile4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ SI, AX
	MOVQ DX, R12
	MOVQ k+40(FP), CX

loop8:
	VBROADCASTSD (AX), Y10
	VMULPD (R12), Y10, Y8
	VADDPD Y8, Y0, Y0
	VMULPD 32(R12), Y10, Y9
	VADDPD Y9, Y1, Y1
	ADDQ R10, AX
	ADDQ R11, R12
	DECQ CX
	JNZ  loop8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, DX
	SUBQ $8, BX
	JMP  tile8

tile4:
	CMPQ BX, $4
	JLT  tile1
	VMOVUPD (DI), Y0
	MOVQ SI, AX
	MOVQ DX, R12
	MOVQ k+40(FP), CX

loop4:
	VBROADCASTSD (AX), Y10
	VMULPD (R12), Y10, Y8
	VADDPD Y8, Y0, Y0
	ADDQ R10, AX
	ADDQ R11, R12
	DECQ CX
	JNZ  loop4

	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $4, BX

tile1:
	TESTQ BX, BX
	JZ    done
	VMOVSD (DI), X0
	MOVQ SI, AX
	MOVQ DX, R12
	MOVQ k+40(FP), CX

loop1:
	VMOVSD (AX), X10
	VMULSD (R12), X10, X8
	VADDSD X8, X0, X0
	ADDQ R10, AX
	ADDQ R11, R12
	DECQ CX
	JNZ  loop1

	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ BX
	JMP  tile1

done:
	VZEROUPPER
	RET

// func axpy1AVX(c, b *float64, n int, a float64)
TEXT ·axpy1AVX(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), R8
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

loop1:
	CMPQ AX, DX
	JGE  vec1
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMULPD  Y4, Y0, Y4
	VMULPD  Y5, Y0, Y5
	VADDPD  (R8)(AX*8), Y4, Y4
	VADDPD  32(R8)(AX*8), Y5, Y5
	VMOVUPD Y4, (R8)(AX*8)
	VMOVUPD Y5, 32(R8)(AX*8)
	ADDQ $8, AX
	JMP  loop1

vec1:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  tail1
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  Y4, Y0, Y4
	VADDPD  (R8)(AX*8), Y4, Y4
	VMOVUPD Y4, (R8)(AX*8)
	ADDQ $4, AX

tail1:
	CMPQ AX, CX
	JGE  done1
	VMOVSD (SI)(AX*8), X4
	VMULSD X4, X0, X4
	VADDSD (R8)(AX*8), X4, X4
	VMOVSD X4, (R8)(AX*8)
	INCQ AX
	JMP  tail1

done1:
	VZEROUPPER
	RET

// func addConstAVX(v *float64, n int, c float64)
//
// v[j] += c for j = 0…n−1, n >= 1; each lane loads its cell and adds
// the broadcast c to it, the cell the first source. Cells go 8 at a
// time, then 4, then singly.
TEXT ·addConstAVX(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD c+16(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

loop8:
	CMPQ AX, DX
	JGE  quad
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VADDPD  Y0, Y1, Y1
	VADDPD  Y0, Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  loop8

quad:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  tail
	VMOVUPD (DI)(AX*8), Y1
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSD (DI)(AX*8), X1
	VADDSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP  tail

done:
	VZEROUPPER
	RET

// func meanAVX(dst *float64, vs *[]float64, count, n int, inv float64)
//
// dst[i] = ((0 + vs[0][i]) + vs[1][i] + … + vs[count−1][i])·inv for
// i = 0…n−1; count >= 1. Lane i is cell i's running sum: it starts from
// +0 (VXORPD) and takes one VADDPD per vector in list order, then one
// VMULPD — Mean's Go loops, operation for operation. Cells go 16 at a
// time in four independent accumulators (Y0–Y3) per walk of the list,
// then 4 at a time, then singly. vs points at count slice headers of
// 24 bytes, each at least n elements long.
TEXT ·meanAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ vs+8(FP), R8
	MOVQ count+16(FP), R9
	MOVQ n+24(FP), BX
	VBROADCASTSD inv+32(FP), Y15
	XORQ AX, AX
	MOVQ BX, DX
	ANDQ $-16, DX

loop16:
	CMPQ AX, DX
	JGE  quads
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R8, R10
	MOVQ R9, CX

vecs16:
	MOVQ   (R10), SI
	VADDPD (SI)(AX*8), Y0, Y0
	VADDPD 32(SI)(AX*8), Y1, Y1
	VADDPD 64(SI)(AX*8), Y2, Y2
	VADDPD 96(SI)(AX*8), Y3, Y3
	ADDQ   $24, R10
	DECQ   CX
	JNZ    vecs16

	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMULPD  Y15, Y2, Y2
	VMULPD  Y15, Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     loop16

quads:
	MOVQ BX, DX
	ANDQ $-4, DX

loop4:
	CMPQ AX, DX
	JGE  loop1
	VXORPD Y0, Y0, Y0
	MOVQ R8, R10
	MOVQ R9, CX

vecs4:
	MOVQ   (R10), SI
	VADDPD (SI)(AX*8), Y0, Y0
	ADDQ   $24, R10
	DECQ   CX
	JNZ    vecs4

	VMULPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop4

loop1:
	CMPQ AX, BX
	JGE  done
	VXORPD X0, X0, X0
	MOVQ R8, R10
	MOVQ R9, CX

vecs1:
	MOVQ   (R10), SI
	VADDSD (SI)(AX*8), X0, X0
	ADDQ   $24, R10
	DECQ   CX
	JNZ    vecs1

	VMULSD X15, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    loop1

done:
	VZEROUPPER
	RET

// func momentumAVX(x, v, grad *float64, n int, m, wd, lr float64)
//
// For i = 0…n−1: v[i] = ((m·v[i]) + grad[i]) + (wd·x[i]), then
// x[i] = x[i] − lr·v[i] — MomentumStep's Go loop, each lane one cell,
// every multiply, add and subtract rounded on its own (no FMA). Cells go
// 8 at a time, then 4, then singly.
TEXT ·momentumAVX(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ grad+16(FP), DX
	MOVQ n+24(FP), BX
	VBROADCASTSD m+32(FP), Y13
	VBROADCASTSD wd+40(FP), Y14
	VBROADCASTSD lr+48(FP), Y15
	XORQ AX, AX
	MOVQ BX, CX
	ANDQ $-8, CX

loop8:
	CMPQ AX, CX
	JGE  quads
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMULPD  (SI)(AX*8), Y13, Y2   // m·v
	VMULPD  32(SI)(AX*8), Y13, Y3
	VADDPD  (DX)(AX*8), Y2, Y2    // + g
	VADDPD  32(DX)(AX*8), Y3, Y3
	VMULPD  Y0, Y14, Y4           // wd·x
	VMULPD  Y1, Y14, Y5
	VADDPD  Y4, Y2, Y2            // the new v
	VADDPD  Y5, Y3, Y3
	VMOVUPD Y2, (SI)(AX*8)
	VMOVUPD Y3, 32(SI)(AX*8)
	VMULPD  Y2, Y15, Y4           // lr·v
	VMULPD  Y3, Y15, Y5
	VSUBPD  Y4, Y0, Y0            // x − lr·v
	VSUBPD  Y5, Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     loop8

quads:
	MOVQ BX, CX
	ANDQ $-4, CX
	CMPQ AX, CX
	JGE  loop1
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  (SI)(AX*8), Y13, Y2
	VADDPD  (DX)(AX*8), Y2, Y2
	VMULPD  Y0, Y14, Y4
	VADDPD  Y4, Y2, Y2
	VMOVUPD Y2, (SI)(AX*8)
	VMULPD  Y2, Y15, Y4
	VSUBPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

loop1:
	CMPQ AX, BX
	JGE  done
	VMOVSD (DI)(AX*8), X0
	VMULSD (SI)(AX*8), X13, X2
	VADDSD (DX)(AX*8), X2, X2
	VMULSD X0, X14, X4
	VADDSD X4, X2, X2
	VMOVSD X2, (SI)(AX*8)
	VMULSD X2, X15, X4
	VSUBSD X4, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    loop1

done:
	VZEROUPPER
	RET

// ReLU kernels (see relu.go): lanes are elements, nothing is summed, so
// the contract is only that each lane's bits are the Go mask form's.

// func reluAVX(dst, x *float64, n int)
//
// dst[i] = x[i] if its sign bit is clear, else +0; n a positive
// multiple of 4.
TEXT ·reluAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPD Y15, Y15, Y15
	XORQ AX, AX

loop:
	VMOVUPD   (SI)(AX*8), Y0
	VBLENDVPD Y0, Y15, Y0, Y1 // sign of Y0 set ? +0 : Y0
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func reluGradAVX(dst, x, dy *float64, n int)
//
// dst[i] = dy[i] if x[i]'s sign bit is clear and x[i] != 0, else +0;
// n a positive multiple of 4. A NaN compares unequal to zero, so a NaN
// x with a clear sign lets dy through, as the mask form does.
TEXT ·reluGradAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ dy+16(FP), DX
	MOVQ n+24(FP), CX
	VXORPD Y15, Y15, Y15
	XORQ AX, AX

loop:
	VMOVUPD   (SI)(AX*8), Y0
	VMOVUPD   (DX)(AX*8), Y1
	VCMPPD    $0, Y15, Y0, Y2 // x == 0 (ordered): all ones
	VBLENDVPD Y0, Y15, Y1, Y1 // sign of x set ? +0 : dy
	VANDNPD   Y1, Y2, Y1      // and +0 where x == 0
	VMOVUPD   Y1, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop
	VZEROUPPER
	RET

// func gatherAVX512(dst, src *float64, srcLen int, idx *int32, n int) int
//
// dst[i] = src[idx[i]] for i = 0…n−1, eight cells per VGATHERDPD; n a
// positive multiple of 8, srcLen >= 1. Before each gather the block's
// eight indices are compared unsigned against the bound min(srcLen,
// 2³¹): an int32 index is below 2³¹, so every negative one is out of
// range too. The walk stops in front of the first block holding one
// and returns how many cells it gathered.
TEXT ·gatherAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ srcLen+16(FP), R8
	MOVQ idx+24(FP), DX
	MOVQ n+32(FP), CX
	MOVL $0x80000000, R9
	CMPQ R8, R9
	CMOVQHI R9, R8
	VPBROADCASTD R8, Z15
	XORQ AX, AX

loop:
	VMOVDQU  (DX)(AX*4), Y1 // VEX: Z1's upper eight lanes read 0, in range
	VPCMPUD  $5, Z15, Z1, K2 // K2: the lanes with idx >= bound
	KORTESTW K2, K2
	JNZ      done
	KXNORW   K1, K1, K1
	VXORPD   Y0, Y0, Y0 // no wait on the last block's Z0
	VGATHERDPD (SI)(Y1*8), K1, Z0
	VMOVUPD  Z0, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  loop

done:
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET

// func gatherAddAVX512(dst, src *float64, srcLen int, idx *int32, n int) int
//
// dst[i] += src[idx[i]] for i = 0…n−1: gatherAVX512's blocks, checks and
// stop, with each gathered block added to dst's cells, dst the first
// source of the VADDPD as the accumulator is of the Go loop's add.
TEXT ·gatherAddAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ srcLen+16(FP), R8
	MOVQ idx+24(FP), DX
	MOVQ n+32(FP), CX
	MOVL $0x80000000, R9
	CMPQ R8, R9
	CMOVQHI R9, R8
	VPBROADCASTD R8, Z15
	XORQ AX, AX

loop:
	VMOVDQU  (DX)(AX*4), Y1
	VPCMPUD  $5, Z15, Z1, K2
	KORTESTW K2, K2
	JNZ      done
	KXNORW   K1, K1, K1
	VXORPD   Y0, Y0, Y0
	VGATHERDPD (SI)(Y1*8), K1, Z0
	VMOVUPD  (DI)(AX*8), Z2
	VADDPD   Z0, Z2, Z2 // dst + src[idx]
	VMOVUPD  Z2, (DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  loop

done:
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET

// func windowMax4AVX512(out *float64, arg *int, x *float64, bound int, plan *int32, n, w, base int) int
//
// For i = 0…n−1 and k = plan[i]: the lead starts at a = x[k] and is
// replaced by b = x[k+1], c = x[k+w], d = x[k+w+1] in turn wherever the
// candidate compares greater (VCMPPD GT_OQ: false if either side is
// NaN, so a NaN neither wins nor is beaten); out[i] is the lead and
// arg[i] base plus its index. Eight outputs per block: one VGATHERDPD per
// window cell, then per candidate a compare into K3, a VBLENDMPD of the
// value and a K3-masked VPADDQ writing the candidate's index over the
// lead's. n is a positive multiple of 8, w >= 0 and bound = len(x)−w−1
// >= 1. Each block's plan entries are first compared unsigned against
// min(bound, 2³¹), as gatherAVX512 compares its indices: an entry below
// it has its whole window inside x. The walk stops in front of the first
// block holding one that is not and returns how many outputs it wrote.
TEXT ·windowMax4AVX512(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ arg+8(FP), R11
	MOVQ x+16(FP), SI
	MOVQ bound+24(FP), R8
	MOVQ plan+32(FP), DX
	MOVQ n+40(FP), CX
	MOVQ w+48(FP), BX
	MOVL $0x80000000, R9
	CMPQ R8, R9
	CMOVQHI R9, R8
	VPBROADCASTD R8, Z15
	LEAQ (SI)(BX*8), R10 // the window's lower row
	VPBROADCASTQ base+56(FP), Z14
	MOVQ $1, R9
	VPBROADCASTQ R9, Z11 // b's offset
	VPBROADCASTQ BX, Z12 // c's
	INCQ BX
	VPBROADCASTQ BX, Z13 // d's
	XORQ AX, AX

loop:
	VMOVDQU  (DX)(AX*4), Y1 // VEX: Z1's upper eight lanes read 0, in range
	VPCMPUD  $5, Z15, Z1, K2 // K2: the lanes with k >= bound
	KORTESTW K2, K2
	JNZ      done
	KXNORW   K1, K1, K1
	VXORPD   Y2, Y2, Y2 // no wait on the last block's registers
	VGATHERDPD (SI)(Y1*8), K1, Z2 // a: the lead
	KXNORW   K1, K1, K1
	VXORPD   Y3, Y3, Y3
	VGATHERDPD 8(SI)(Y1*8), K1, Z3 // b
	KXNORW   K1, K1, K1
	VXORPD   Y4, Y4, Y4
	VGATHERDPD (R10)(Y1*8), K1, Z4 // c
	KXNORW   K1, K1, K1
	VXORPD   Y5, Y5, Y5
	VGATHERDPD 8(R10)(Y1*8), K1, Z5 // d
	VPMOVZXDQ Y1, Z6
	VPADDQ    Z14, Z6, Z6 // base + k: a's index, the lead's
	VMOVDQA64 Z6, Z7
	VCMPPD    $0x1e, Z2, Z3, K3 // b > lead
	VBLENDMPD Z3, Z2, K3, Z2
	VPADDQ    Z11, Z6, K3, Z7
	VCMPPD    $0x1e, Z2, Z4, K3 // c > lead
	VBLENDMPD Z4, Z2, K3, Z2
	VPADDQ    Z12, Z6, K3, Z7
	VCMPPD    $0x1e, Z2, Z5, K3 // d > lead
	VBLENDMPD Z5, Z2, K3, Z2
	VPADDQ    Z13, Z6, K3, Z7
	VMOVUPD   Z2, (DI)(AX*8)
	VMOVDQU64 Z7, (R11)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  loop

done:
	MOVQ AX, ret+64(FP)
	VZEROUPPER
	RET
