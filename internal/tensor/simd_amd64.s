//go:build !purego

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Column masks for the last, partial 16-column block: loading 16 dwords
// at byte offset 4·(16−rem) yields all-ones in the first rem lanes.
DATA colmask<>+0(SB)/8, $0xffffffffffffffff
DATA colmask<>+8(SB)/8, $0xffffffffffffffff
DATA colmask<>+16(SB)/8, $0xffffffffffffffff
DATA colmask<>+24(SB)/8, $0xffffffffffffffff
DATA colmask<>+32(SB)/8, $0xffffffffffffffff
DATA colmask<>+40(SB)/8, $0xffffffffffffffff
DATA colmask<>+48(SB)/8, $0xffffffffffffffff
DATA colmask<>+56(SB)/8, $0xffffffffffffffff
DATA colmask<>+64(SB)/8, $0
DATA colmask<>+72(SB)/8, $0
DATA colmask<>+80(SB)/8, $0
DATA colmask<>+88(SB)/8, $0
DATA colmask<>+96(SB)/8, $0
DATA colmask<>+104(SB)/8, $0
DATA colmask<>+112(SB)/8, $0
DATA colmask<>+120(SB)/8, $0
GLOBL colmask<>(SB), RODATA|NOPTR, $128

// One row of the float32 register tile at reduction step kk: broadcast
// a[r][kk], multiply the two b vectors (Y8, Y9) by it and add the
// products into the row's accumulators. Multiply and add stay separate
// instructions — a fused multiply-add rounds once where the portable Go
// loop rounds twice. The source order (b before a in the product, the
// product before the accumulator in the sum) is the one the compiler
// emits for `o[j] += a * b[j]`; it decides only which payload survives
// when two NaNs meet.
#define TILEROW(aaddr, acc0, acc1) \
	VBROADCASTSS aaddr, Y10 \
	VMULPS       Y10, Y8, Y11 \
	VADDPS       acc0, Y11, acc0 \
	VMULPS       Y10, Y9, Y11 \
	VADDPS       acc1, Y11, acc1

// Bias and ReLU on one finished row: v += bias, then v < 0 → 0 as a
// compare and mask. VMAXPS would also turn −0 and NaN into +0, which
// the Go expression `if v < 0 { v = 0 }` does not. Y10 is all-ones when
// ReLU is on and zero otherwise, Y14 is zero, BX points at the tile's
// four bias values.
#define EPILOGUE(boff, acc0, acc1) \
	VBROADCASTSS boff(BX), Y15 \
	VADDPS       Y15, acc0, acc0 \
	VADDPS       Y15, acc1, acc1 \
	VCMPPS       $1, Y14, acc0, Y11 \
	VANDPS       Y10, Y11, Y11 \
	VANDNPS      acc0, Y11, acc0 \
	VCMPPS       $1, Y14, acc1, Y11 \
	VANDPS       Y10, Y11, Y11 \
	VANDNPS      acc1, Y11, acc1

#define ZEROACC \
	VXORPS Y0, Y0, Y0 \
	VXORPS Y1, Y1, Y1 \
	VXORPS Y2, Y2, Y2 \
	VXORPS Y3, Y3, Y3 \
	VXORPS Y4, Y4, Y4 \
	VXORPS Y5, Y5, Y5 \
	VXORPS Y6, Y6, Y6 \
	VXORPS Y7, Y7, Y7

// func gemmTileAVX2(a *float32, aRow, aK int, b *float32, bStride int,
//	out *float32, outStride, rows, k, n int, bias *float32, epi int)
//
// Computes, for r < rows (1..4) and j < n,
//
//	out[r·outStride + j] = epi( Σ_kk a[r·aRow + kk·aK] · b[kk·bStride + j] )
//
// with every element accumulated from +0 in ascending kk order. Lanes
// run across output columns, so no sum is ever reordered. epi bit 0
// adds bias[r] (bias always holds four values), bit 1 applies ReLU.
TEXT ·gemmTileAVX2(SB), NOSPLIT, $0-96
	MOVQ   aRow+8(FP), R8
	SHLQ   $2, R8
	LEAQ   (R8)(R8*2), R9        // 3 a-rows, in bytes
	MOVQ   aK+16(FP), R14
	SHLQ   $2, R14
	MOVQ   b+24(FP), SI
	MOVQ   bStride+32(FP), R10
	SHLQ   $2, R10
	MOVQ   out+40(FP), DI
	MOVQ   outStride+48(FP), R11
	SHLQ   $2, R11
	LEAQ   (R11)(R11*2), R12     // 3 out-rows, in bytes
	MOVQ   rows+56(FP), R13
	MOVQ   n+72(FP), DX
	VXORPS Y14, Y14, Y14

colblock:
	CMPQ DX, $16
	JLT  tail
	MOVQ a+0(FP), AX
	MOVQ SI, BX
	MOVQ k+64(FP), CX
	ZEROACC

kfull:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	TILEROW((AX), Y0, Y1)
	CMPQ    R13, $2
	JLT     kfullnext
	TILEROW((AX)(R8*1), Y2, Y3)
	CMPQ    R13, $3
	JLT     kfullnext
	TILEROW((AX)(R8*2), Y4, Y5)
	CMPQ    R13, $4
	JLT     kfullnext
	TILEROW((AX)(R9*1), Y6, Y7)

kfullnext:
	ADDQ R14, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  kfull

	MOVQ  epi+88(FP), CX
	TESTQ CX, CX
	JZ    storefull
	MOVQ  bias+80(FP), BX
	VXORPS Y10, Y10, Y10
	TESTQ $2, CX
	JZ    epifull
	VPCMPEQD Y10, Y10, Y10

epifull:
	EPILOGUE(0, Y0, Y1)
	EPILOGUE(4, Y2, Y3)
	EPILOGUE(8, Y4, Y5)
	EPILOGUE(12, Y6, Y7)

storefull:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	CMPQ    R13, $2
	JLT     nextfull
	VMOVUPS Y2, (DI)(R11*1)
	VMOVUPS Y3, 32(DI)(R11*1)
	CMPQ    R13, $3
	JLT     nextfull
	VMOVUPS Y4, (DI)(R11*2)
	VMOVUPS Y5, 32(DI)(R11*2)
	CMPQ    R13, $4
	JLT     nextfull
	VMOVUPS Y6, (DI)(R12*1)
	VMOVUPS Y7, 32(DI)(R12*1)

nextfull:
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $16, DX
	JMP  colblock

tail:
	TESTQ DX, DX
	JZ    done
	// Y12/Y13 mask the first DX of the block's 16 columns. Masked loads
	// read nothing (and cannot fault) in the lanes they leave zero.
	LEAQ    colmask<>+64(SB), BX
	SHLQ    $2, DX
	SUBQ    DX, BX
	VMOVDQU (BX), Y12
	VMOVDQU 32(BX), Y13
	MOVQ    a+0(FP), AX
	MOVQ    SI, BX
	MOVQ    k+64(FP), CX
	ZEROACC

ktail:
	VMASKMOVPS (BX), Y12, Y8
	VMASKMOVPS 32(BX), Y13, Y9
	TILEROW((AX), Y0, Y1)
	CMPQ    R13, $2
	JLT     ktailnext
	TILEROW((AX)(R8*1), Y2, Y3)
	CMPQ    R13, $3
	JLT     ktailnext
	TILEROW((AX)(R8*2), Y4, Y5)
	CMPQ    R13, $4
	JLT     ktailnext
	TILEROW((AX)(R9*1), Y6, Y7)

ktailnext:
	ADDQ R14, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  ktail

	MOVQ  epi+88(FP), CX
	TESTQ CX, CX
	JZ    storetail
	MOVQ  bias+80(FP), BX
	VXORPS Y10, Y10, Y10
	TESTQ $2, CX
	JZ    epitail
	VPCMPEQD Y10, Y10, Y10

epitail:
	EPILOGUE(0, Y0, Y1)
	EPILOGUE(4, Y2, Y3)
	EPILOGUE(8, Y4, Y5)
	EPILOGUE(12, Y6, Y7)

storetail:
	VMASKMOVPS Y0, Y12, (DI)
	VMASKMOVPS Y1, Y13, 32(DI)
	CMPQ       R13, $2
	JLT        done
	VMASKMOVPS Y2, Y12, (DI)(R11*1)
	VMASKMOVPS Y3, Y13, 32(DI)(R11*1)
	CMPQ       R13, $3
	JLT        done
	VMASKMOVPS Y4, Y12, (DI)(R11*2)
	VMASKMOVPS Y5, Y13, 32(DI)(R11*2)
	CMPQ       R13, $4
	JLT        done
	VMASKMOVPS Y6, Y12, (DI)(R12*1)
	VMASKMOVPS Y7, Y13, 32(DI)(R12*1)

done:
	VZEROUPPER
	RET

// func convRowInt8AVX2(rec *int8, rowBytes, pixBytes, kRows, chunks int,
//	w *int8, sb *float32, nb4 int, out *float32, planeStride, cols, outC, relu int)
//
// One output row of the int8 convolution: for each of cols pixels and
// each block of four output channels, the dot product of the pixel's
// window (kRows kernel rows, rowBytes apart, of chunks 16-byte int8
// chunks each) with the block's four widened weight rows, then the
// requantize epilogue. Both operands are sign-extended to int16 before
// VPMADDWD, whose int32 pair sums cannot overflow for int8 inputs, so
// the accumulation is the exact int32 sum in some order — and integer
// addition is associative. w holds, per block and chunk, four rows of
// sixteen int16; sb holds, per block, four scales then four biases.
TEXT ·convRowInt8AVX2(SB), NOSPLIT, $0-104
	MOVQ   rec+0(FP), SI
	MOVQ   rowBytes+8(FP), R8
	MOVQ   out+64(FP), DI
	MOVQ   planeStride+72(FP), R10
	SHLQ   $2, R10
	VXORPS X14, X14, X14
	VXORPS X13, X13, X13         // ReLU mask: all-ones when on
	CMPQ   relu+96(FP), $0
	JEQ    pixel
	VPCMPEQD X13, X13, X13

pixel:
	MOVQ w+40(FP), R11
	MOVQ sb+48(FP), R14
	MOVQ nb4+56(FP), R12
	MOVQ outC+88(FP), R13
	MOVQ DI, DX

block:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  SI, AX
	MOVQ  kRows+24(FP), BX

krow:
	MOVQ AX, R9
	MOVQ chunks+32(FP), CX

chunk:
	VPMOVSXBW (R9), Y4
	VPMADDWD  (R11), Y4, Y5
	VPADDD    Y5, Y0, Y0
	VPMADDWD  32(R11), Y4, Y6
	VPADDD    Y6, Y1, Y1
	VPMADDWD  64(R11), Y4, Y7
	VPADDD    Y7, Y2, Y2
	VPMADDWD  96(R11), Y4, Y8
	VPADDD    Y8, Y3, Y3
	ADDQ      $16, R9
	ADDQ      $128, R11
	DECQ      CX
	JNZ       chunk
	ADDQ      R8, AX
	DECQ      BX
	JNZ       krow

	// Fold the four 8-lane accumulators into X0 = [d0 d1 d2 d3].
	VPHADDD      Y1, Y0, Y0
	VPHADDD      Y3, Y2, Y2
	VPHADDD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0

	// requantInt8: float32(acc)*scale + bias, then v < 0 → 0 by compare
	// and mask (VMAXPS would also flush NaN).
	VCVTDQ2PS X0, X0
	VMULPS    (R14), X0, X0
	VADDPS    16(R14), X0, X0
	VCMPPS    $1, X14, X0, X1
	VANDPS    X13, X1, X1
	VANDNPS   X0, X1, X0

	VMOVSS     X0, (DX)
	CMPQ       R13, $2
	JLT        blockdone
	VEXTRACTPS $1, X0, (DX)(R10*1)
	CMPQ       R13, $3
	JLT        blockdone
	VEXTRACTPS $2, X0, (DX)(R10*2)
	CMPQ       R13, $4
	JLT        blockdone
	LEAQ       (DX)(R10*2), AX
	VEXTRACTPS $3, X0, (AX)(R10*1)

blockdone:
	LEAQ (DX)(R10*4), DX
	ADDQ $32, R14
	SUBQ $4, R13
	DECQ R12
	JNZ  block

	ADDQ pixBytes+16(FP), SI
	ADDQ $4, DI
	DECQ cols+80(FP)
	JNZ  pixel
	VZEROUPPER
	RET

// Dword order that undoes the lane interleaving of the two pack steps
// in quantizeInt8AVX2.
DATA packperm<>+0(SB)/4, $0
DATA packperm<>+4(SB)/4, $4
DATA packperm<>+8(SB)/4, $1
DATA packperm<>+12(SB)/4, $5
DATA packperm<>+16(SB)/4, $2
DATA packperm<>+20(SB)/4, $6
DATA packperm<>+24(SB)/4, $3
DATA packperm<>+28(SB)/4, $7
GLOBL packperm<>(SB), RODATA|NOPTR, $32

// Eight floats of QuantizeInt8Into's expression: f = v·inv, add 0.5
// carrying f's sign, truncate. Y15 = inv, Y14 = sign mask, Y13 = 0.5.
#define QUANT8(off, reg, tmp) \
	VMULPS     off(SI), Y15, reg \
	VANDPS     Y14, reg, tmp \
	VORPS      Y13, tmp, tmp \
	VADDPS     tmp, reg, reg \
	VCVTTPS2DQ reg, reg

// func quantizeInt8AVX2(dst *int8, src *float32, n int, inv float32)
//
// QuantizeInt8Into over n elements, n a positive multiple of 32. The
// saturating packs clamp to [−128, 127] and one byte maximum lifts −128
// to −127 — the same result as the portable clamp of the int32 to
// ±127, including for the 0x80000000 that NaN and out-of-range values
// convert to.
TEXT ·quantizeInt8AVX2(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS inv+24(FP), Y15
	MOVL         $0x80000000, AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	MOVL         $0x3F000000, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	MOVL         $0x81818181, AX  // four int8 −127
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12
	VMOVDQU      packperm<>(SB), Y11

quant32:
	QUANT8(0, Y0, Y4)
	QUANT8(32, Y1, Y5)
	QUANT8(64, Y2, Y6)
	QUANT8(96, Y3, Y7)
	VPACKSSDW Y1, Y0, Y0
	VPACKSSDW Y3, Y2, Y2
	VPACKSSWB Y2, Y0, Y0
	VPMAXSB   Y12, Y0, Y0
	VPERMD    Y0, Y11, Y0
	VMOVDQU   Y0, (DI)
	ADDQ      $128, SI
	ADDQ      $32, DI
	SUBQ      $32, CX
	JNZ       quant32
	VZEROUPPER
	RET
