//go:build !purego

#include "textflag.h"

// Accumulate one tile of the VNNI lane (see convRowInt8VNNI): Z0..Z7 =
// Σ(x+128)·w over the windows of pixels 0..7 (pixel i at SI + i·R8,
// kRows rows rowBytes apart), with R11 at the block's weights — per
// kernel row, pairs pairs of 4-byte groups of sixteen lanes of four
// int8. The two groups of a pair go to two accumulator sets (Z0..Z7,
// Z17..Z24), summed at the end: sixteen independent VPDPBUSD chains
// hide the instruction's latency. R9 = 3·R8. Clobbers AX, BX, CX, R10,
// R12, R13 and Z8..Z25.
// (Defined ahead of every TEXT block: it reads the kRows, pairs and
// rowBytes arguments its two users share, and go vet's asmdecl would
// otherwise check those against whichever function precedes it.)
#define VNNIACC \
	VPXORD       Z0, Z0, Z0 \
	VPXORD       Z1, Z1, Z1 \
	VPXORD       Z2, Z2, Z2 \
	VPXORD       Z3, Z3, Z3 \
	VPXORD       Z4, Z4, Z4 \
	VPXORD       Z5, Z5, Z5 \
	VPXORD       Z6, Z6, Z6 \
	VPXORD       Z7, Z7, Z7 \
	VPXORD       Z17, Z17, Z17 \
	VPXORD       Z18, Z18, Z18 \
	VPXORD       Z19, Z19, Z19 \
	VPXORD       Z20, Z20, Z20 \
	VPXORD       Z21, Z21, Z21 \
	VPXORD       Z22, Z22, Z22 \
	VPXORD       Z23, Z23, Z23 \
	VPXORD       Z24, Z24, Z24 \
	MOVQ         SI, AX \
	MOVQ         R11, R10 \
	MOVQ         kRows+24(FP), BX \
vkrow: \
	MOVQ         AX, R12 \
	LEAQ         (AX)(R8*4), R13 \
	MOVQ         pairs+32(FP), CX \
vgroup: \
	VMOVDQU32    (R10), Z8 \
	VMOVDQU32    64(R10), Z25 \
	VPBROADCASTD (R12), Z9 \
	VPDPBUSD     Z8, Z9, Z0 \
	VPBROADCASTD 4(R12), Z10 \
	VPDPBUSD     Z25, Z10, Z17 \
	VPBROADCASTD (R12)(R8*1), Z11 \
	VPDPBUSD     Z8, Z11, Z1 \
	VPBROADCASTD 4(R12)(R8*1), Z12 \
	VPDPBUSD     Z25, Z12, Z18 \
	VPBROADCASTD (R12)(R8*2), Z13 \
	VPDPBUSD     Z8, Z13, Z2 \
	VPBROADCASTD 4(R12)(R8*2), Z14 \
	VPDPBUSD     Z25, Z14, Z19 \
	VPBROADCASTD (R12)(R9*1), Z15 \
	VPDPBUSD     Z8, Z15, Z3 \
	VPBROADCASTD 4(R12)(R9*1), Z16 \
	VPDPBUSD     Z25, Z16, Z20 \
	VPBROADCASTD (R13), Z9 \
	VPDPBUSD     Z8, Z9, Z4 \
	VPBROADCASTD 4(R13), Z10 \
	VPDPBUSD     Z25, Z10, Z21 \
	VPBROADCASTD (R13)(R8*1), Z11 \
	VPDPBUSD     Z8, Z11, Z5 \
	VPBROADCASTD 4(R13)(R8*1), Z12 \
	VPDPBUSD     Z25, Z12, Z22 \
	VPBROADCASTD (R13)(R8*2), Z13 \
	VPDPBUSD     Z8, Z13, Z6 \
	VPBROADCASTD 4(R13)(R8*2), Z14 \
	VPDPBUSD     Z25, Z14, Z23 \
	VPBROADCASTD (R13)(R9*1), Z15 \
	VPDPBUSD     Z8, Z15, Z7 \
	VPBROADCASTD 4(R13)(R9*1), Z16 \
	VPDPBUSD     Z25, Z16, Z24 \
	ADDQ         $8, R12 \
	ADDQ         $8, R13 \
	ADDQ         $128, R10 \
	DECQ         CX \
	JNZ          vgroup \
	ADDQ         rowBytes+8(FP), AX \
	DECQ         BX \
	JNZ          vkrow \
	VPADDD       Z17, Z0, Z0 \
	VPADDD       Z18, Z1, Z1 \
	VPADDD       Z19, Z2, Z2 \
	VPADDD       Z20, Z3, Z3 \
	VPADDD       Z21, Z4, Z4 \
	VPADDD       Z22, Z5, Z5 \
	VPADDD       Z23, Z6, Z6 \
	VPADDD       Z24, Z7, Z7

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

// func convRowInt8AVX2(rec *byte, rowBytes, pixBytes, kRows, chunks int,
//	w *int8, sb *float32, nb4 int, out *float32, planeStride, cols, outC, relu int)
//
// One output row of the int8 convolution over an activation map: for
// each of cols pixels and each block of four output channels, the dot
// product of the pixel's window (kRows kernel rows, rowBytes apart, of
// chunks 16-byte chunks each) with the block's four widened weight rows,
// then the requantize epilogue. The map holds int8 values offset by 128:
// they are zero-extended and the weights sign-extended to int16 before
// VPMADDWD, whose int32 pair sums cannot overflow for such inputs, so
// the accumulation is Σ(x+128)·w in some order, and subtracting the
// block's 128·Σw leaves Σx·w exactly — integer addition is associative
// and wraps identically either way. w holds, per block, for every chunk
// four rows of sixteen int16 and then the four int32 128·Σw; sb holds,
// per block, four scales then four biases.
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
	VPMOVZXBW (R9), Y4
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
	VPSUBD       (R11), X0, X0   // − 128·Σw: the block's four corrections
	ADDQ         $16, R11

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

// The VNNI lane. Output channels run across the sixteen dword lanes of
// a ZMM register and eight pixels across eight accumulators; the window
// of each pixel is read four bytes at a time (a group: one kernel column
// and four of its channels — the map pads channels to a multiple of
// four), and one VPBROADCASTD + VPDPBUSD adds the group's four products
// to all sixteen channels. VPDPBUSD multiplies unsigned by signed bytes
// and wraps in int32, which is what the map's +128 offset is for: the
// accumulators hold Σ(x+128)·w, and subtracting the per-channel 128·Σw
// leaves Σx·w exactly, whatever the order of the additions.

// requantInt8 on one pixel's sixteen channels: acc − 128·Σw (Z28),
// then float32(·)·scale (Z29) + bias (Z30), the Go expression's order.
#define VNNIREQ(z) \
	VPSUBD    Z28, z, z \
	VCVTDQ2PS z, z \
	VMULPS    Z29, z, z \
	VADDPS    Z30, z, z

// v < 0 → +0 as a compare and a masked move from Z31 = 0, which leaves
// −0 and NaN alone like the Go expression.
#define VNNIRELU(z) \
	VCMPPS  $1, Z31, z, K1 \
	VMOVAPS Z31, K1, z

// Store one channel's eight pixels (the low or high half of a
// transposed register) under the pixel mask K2 at AX, then stop after
// the block's BX-th channel or step AX to the next plane (R10 bytes).
#define STORELO(y, n) \
	VMOVUPS y, K2, (AX) \
	CMPQ    BX, $n \
	JLE     vstored \
	ADDQ    R10, AX

#define STOREHI(z, n) \
	VEXTRACTF64X4 $1, z, Y16 \
	VMOVUPS       Y16, K2, (AX) \
	CMPQ          BX, $n \
	JLE           vstored \
	ADDQ          R10, AX

// func convRowInt8VNNI(src *byte, rowBytes, pixBytes, kRows, pairs int,
//	w *int8, sb *float32, nblk int, out *float32, planeStride, cols, outC, relu int)
//
// convRowInt8AVX2 on the VNNI lane: one output row of cols pixels at
// stride one, every output channel, written planar. w holds, per block
// of sixteen output channels (the last padded with zero rows), sixteen
// int32 128·Σw and then the weights; sb per block sixteen scales and
// sixteen biases. The finished tile is transposed from pixel-major to
// channel-major with unpack/shuffle steps and stored eight pixels per
// channel under a mask, so a short last tile and a short last block
// write nothing outside the output.
TEXT ·convRowInt8VNNI(SB), NOSPLIT, $16-104
	MOVQ   pixBytes+16(FP), R8
	LEAQ   (R8)(R8*2), R9
	MOVQ   w+40(FP), R11
	MOVQ   sb+48(FP), R14
	MOVQ   out+64(FP), DI
	MOVQ   outC+88(FP), AX
	MOVQ   AX, chans-8(SP)
	VPXORD Z31, Z31, Z31

vblock:
	VMOVDQU32 (R11), Z28
	ADDQ      $64, R11
	VMOVUPS   (R14), Z29
	VMOVUPS   64(R14), Z30
	MOVQ      src+0(FP), SI
	MOVQ      DI, DX
	MOVQ      cols+80(FP), AX
	MOVQ      AX, left-16(SP)

vtile:
	VNNIACC
	VNNIREQ(Z0)
	VNNIREQ(Z1)
	VNNIREQ(Z2)
	VNNIREQ(Z3)
	VNNIREQ(Z4)
	VNNIREQ(Z5)
	VNNIREQ(Z6)
	VNNIREQ(Z7)
	CMPQ relu+96(FP), $0
	JEQ  vtranspose
	VNNIRELU(Z0)
	VNNIRELU(Z1)
	VNNIRELU(Z2)
	VNNIRELU(Z3)
	VNNIRELU(Z4)
	VNNIRELU(Z5)
	VNNIRELU(Z6)
	VNNIRELU(Z7)

vtranspose:
	// Per 128-bit lane L (channels 4L..4L+3): pairs of pixels, then
	// quads — Z0..Z3 hold pixels 0-3 and Z4..Z7 pixels 4-7 of channel
	// 4L+j in lane L — then the lanes: channel j | 4+j and 8+j | 12+j.
	VUNPCKLPS  Z1, Z0, Z8
	VUNPCKHPS  Z1, Z0, Z9
	VUNPCKLPS  Z3, Z2, Z10
	VUNPCKHPS  Z3, Z2, Z11
	VUNPCKLPS  Z5, Z4, Z12
	VUNPCKHPS  Z5, Z4, Z13
	VUNPCKLPS  Z7, Z6, Z14
	VUNPCKHPS  Z7, Z6, Z15
	VSHUFPS    $0x44, Z10, Z8, Z0
	VSHUFPS    $0xEE, Z10, Z8, Z1
	VSHUFPS    $0x44, Z11, Z9, Z2
	VSHUFPS    $0xEE, Z11, Z9, Z3
	VSHUFPS    $0x44, Z14, Z12, Z4
	VSHUFPS    $0xEE, Z14, Z12, Z5
	VSHUFPS    $0x44, Z15, Z13, Z6
	VSHUFPS    $0xEE, Z15, Z13, Z7
	VSHUFF32X4 $0x44, Z4, Z0, Z8
	VSHUFF32X4 $0xD8, Z8, Z8, Z8
	VSHUFF32X4 $0xEE, Z4, Z0, Z9
	VSHUFF32X4 $0xD8, Z9, Z9, Z9
	VSHUFF32X4 $0x44, Z5, Z1, Z10
	VSHUFF32X4 $0xD8, Z10, Z10, Z10
	VSHUFF32X4 $0xEE, Z5, Z1, Z11
	VSHUFF32X4 $0xD8, Z11, Z11, Z11
	VSHUFF32X4 $0x44, Z6, Z2, Z12
	VSHUFF32X4 $0xD8, Z12, Z12, Z12
	VSHUFF32X4 $0xEE, Z6, Z2, Z13
	VSHUFF32X4 $0xD8, Z13, Z13, Z13
	VSHUFF32X4 $0x44, Z7, Z3, Z14
	VSHUFF32X4 $0xD8, Z14, Z14, Z14
	VSHUFF32X4 $0xEE, Z7, Z3, Z15
	VSHUFF32X4 $0xD8, Z15, Z15, Z15

	// K2 = the tile's pixels: all eight, or the row's last few.
	MOVQ left-16(SP), CX
	MOVL $0xff, AX
	CMPQ CX, $8
	JGE  vmask
	MOVL $1, AX
	SHLL CX, AX
	DECL AX

vmask:
	KMOVW    AX, K2
	MOVQ     planeStride+72(FP), R10
	SHLQ     $2, R10
	MOVQ     chans-8(SP), BX
	MOVQ     DX, AX
	STORELO(Y8, 1)
	STORELO(Y10, 2)
	STORELO(Y12, 3)
	STORELO(Y14, 4)
	STOREHI(Z8, 5)
	STOREHI(Z10, 6)
	STOREHI(Z12, 7)
	STOREHI(Z14, 8)
	STORELO(Y9, 9)
	STORELO(Y11, 10)
	STORELO(Y13, 11)
	STORELO(Y15, 12)
	STOREHI(Z9, 13)
	STOREHI(Z11, 14)
	STOREHI(Z13, 15)
	VEXTRACTF64X4 $1, Z15, Y16
	VMOVUPS       Y16, K2, (AX)

vstored:
	LEAQ (SI)(R8*8), SI
	ADDQ $32, DX
	SUBQ $8, left-16(SP)
	JGT  vtile

	MOVQ  kRows+24(FP), AX
	IMULQ pairs+32(FP), AX
	SHLQ  $7, AX
	ADDQ  AX, R11
	ADDQ  $128, R14
	MOVQ  planeStride+72(FP), AX
	SHLQ  $6, AX
	ADDQ  AX, DI
	SUBQ  $16, chans-8(SP)
	JGT   vblock
	VZEROUPPER
	RET

// QuantizeInt8Into's expression on sixteen floats, then the map's
// offset: f = z·inv (Z20), add 0.5 (Z22) carrying f's sign (Z21),
// truncate, clamp to [−127, 127] (Z23, Z24) — NaN and out-of-range
// values truncate to 0x80000000 and clamp to −127 exactly as the Go
// conversion and clamp do — and add 128 (Z25). Clobbers Z16.
#define MAPQ(z) \
	VMULPS     Z20, z, z \
	VPANDD     Z21, z, Z16 \
	VPORD      Z22, Z16, Z16 \
	VADDPS     Z16, z, z \
	VCVTTPS2DQ z, z \
	VPMAXSD    Z23, z, z \
	VPMINSD    Z24, z, z \
	VPADDD     Z25, z, z

// The constants MAPQ reads, with the multiplier at inv.
#define MAPQCONST(inv) \
	VBROADCASTSS inv, Z20 \
	MOVL         $0x80000000, AX \
	VPBROADCASTD AX, Z21 \
	MOVL         $0x3F000000, AX \
	VPBROADCASTD AX, Z22 \
	MOVL         $-127, AX \
	VPBROADCASTD AX, Z23 \
	MOVL         $127, AX \
	VPBROADCASTD AX, Z24 \
	MOVL         $128, AX \
	VPBROADCASTD AX, Z25

// Store pixel n−1's channel bytes under the channel mask K3 at AX,
// then stop after the tile's CX-th pixel or step AX to the next pixel.
#define STOREPIX(z, n) \
	VPMOVDB z, K3, (AX) \
	CMPQ    CX, $n \
	JLE     mstored \
	ADDQ    R8, AX

// func convRowInt8VNNIMap(src *byte, rowBytes, pixBytes, kRows, pairs int,
//	w *int8, sb *float32, nblk int, dst *byte, cols, outC int, inv float32)
//
// convRowInt8VNNI with ReLU whose output is the next convolution's
// input: each pixel's channels are quantized with multiplier inv,
// offset, narrowed to bytes and stored pixel-major at dst (pixBytes
// apart, the input's channel stride), so a block of residual
// convolutions never writes a float32 map. Only the outC real channels'
// bytes are written.
TEXT ·convRowInt8VNNIMap(SB), NOSPLIT, $16-92
	MOVQ   pixBytes+16(FP), R8
	LEAQ   (R8)(R8*2), R9
	MOVQ   w+40(FP), R11
	MOVQ   sb+48(FP), R14
	MOVQ   dst+64(FP), DI
	MOVQ   outC+80(FP), AX
	MOVQ   AX, chans-8(SP)
	VPXORD Z31, Z31, Z31

mblock:
	VMOVDQU32 (R11), Z28
	ADDQ      $64, R11
	VMOVUPS   (R14), Z29
	VMOVUPS   64(R14), Z30
	// K3 = this block's channel bytes: sixteen, or what is left.
	MOVQ chans-8(SP), CX
	MOVL $0xffff, AX
	CMPQ CX, $16
	JGE  mchans
	MOVL $1, AX
	SHLL CX, AX
	DECL AX

mchans:
	KMOVW AX, K3
	MOVQ  src+0(FP), SI
	MOVQ  DI, DX
	MOVQ  cols+72(FP), AX
	MOVQ  AX, left-16(SP)

mtile:
	VNNIACC
	MAPQCONST(inv+88(FP))
	VNNIREQ(Z0)
	VNNIREQ(Z1)
	VNNIREQ(Z2)
	VNNIREQ(Z3)
	VNNIREQ(Z4)
	VNNIREQ(Z5)
	VNNIREQ(Z6)
	VNNIREQ(Z7)
	VNNIRELU(Z0)
	VNNIRELU(Z1)
	VNNIRELU(Z2)
	VNNIRELU(Z3)
	VNNIRELU(Z4)
	VNNIRELU(Z5)
	VNNIRELU(Z6)
	VNNIRELU(Z7)
	MAPQ(Z0)
	MAPQ(Z1)
	MAPQ(Z2)
	MAPQ(Z3)
	MAPQ(Z4)
	MAPQ(Z5)
	MAPQ(Z6)
	MAPQ(Z7)
	MOVQ left-16(SP), CX
	MOVQ DX, AX
	STOREPIX(Z0, 1)
	STOREPIX(Z1, 2)
	STOREPIX(Z2, 3)
	STOREPIX(Z3, 4)
	STOREPIX(Z4, 5)
	STOREPIX(Z5, 6)
	STOREPIX(Z6, 7)
	VPMOVDB Z7, K3, (AX)

mstored:
	LEAQ (SI)(R8*8), SI
	LEAQ (DX)(R8*8), DX
	SUBQ $8, left-16(SP)
	JGT  mtile

	MOVQ  kRows+24(FP), AX
	IMULQ pairs+32(FP), AX
	SHLQ  $7, AX
	ADDQ  AX, R11
	ADDQ  $128, R14
	ADDQ  $16, DI
	SUBQ  $16, chans-8(SP)
	JGT   mblock
	VZEROUPPER
	RET

// Lane i holds i: with the channel stride multiplied in, the byte
// offsets of sixteen consecutive pixels.
DATA iota16<>+0(SB)/4, $0
DATA iota16<>+4(SB)/4, $1
DATA iota16<>+8(SB)/4, $2
DATA iota16<>+12(SB)/4, $3
DATA iota16<>+16(SB)/4, $4
DATA iota16<>+20(SB)/4, $5
DATA iota16<>+24(SB)/4, $6
DATA iota16<>+28(SB)/4, $7
DATA iota16<>+32(SB)/4, $8
DATA iota16<>+36(SB)/4, $9
DATA iota16<>+40(SB)/4, $10
DATA iota16<>+44(SB)/4, $11
DATA iota16<>+48(SB)/4, $12
DATA iota16<>+52(SB)/4, $13
DATA iota16<>+56(SB)/4, $14
DATA iota16<>+60(SB)/4, $15
GLOBL iota16<>(SB), RODATA|NOPTR, $64

// One channel of a group: quantize sixteen pixels of the plane at AX
// (lanes K1; none once DX, the channels left, reaches zero, so a
// padding channel quantizes zero to the offset 128) and merge the bytes
// into Z0 at bit shift. Steps AX to the next plane.
#define QCH(shift) \
	XORL       R12, R12 \
	CMPQ       DX, $0 \
	CMOVQGT    R13, R12 \
	KMOVW      R12, K3 \
	VMULPS.Z   (AX), Z20, K3, Z1 \
	VPANDD     Z21, Z1, Z2 \
	VPORD      Z22, Z2, Z2 \
	VADDPS     Z2, Z1, Z1 \
	VCVTTPS2DQ Z1, Z1 \
	VPMAXSD    Z23, Z1, Z1 \
	VPMINSD    Z24, Z1, Z1 \
	VPADDD     Z25, Z1, Z1 \
	VPSLLD     $shift, Z1, Z1 \
	VPORD      Z1, Z0, Z0 \
	ADDQ       R8, AX \
	DECQ       DX

// func quantizeMapRowAVX512(dst *byte, src *float32, planeStride, c, c4, w int, inv float32)
//
// Int8Map.Quantize for one row: for x < w and ch < c4, dst[x·c4 + ch] =
// 128 + QuantizeInt8Into's value of src[ch·planeStride + x] with
// multiplier inv (128 for the padding channels ch ≥ c). Four channels'
// bytes are assembled in each pixel's dword and scattered sixteen pixels
// at a time.
TEXT ·quantizeMapRowAVX512(SB), NOSPLIT, $0-52
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         planeStride+16(FP), R8
	SHLQ         $2, R8
	MOVQ         c4+32(FP), R9
	MAPQCONST(inv+48(FP))
	VPBROADCASTD R9, Z26
	VPMULLD      iota16<>(SB), Z26, Z26
	MOVQ         R9, R11
	SHLQ         $4, R11
	MOVQ         w+40(FP), CX

qchunk:
	MOVL $0xffff, R13
	CMPQ CX, $16
	JGE  qmask
	MOVL $1, R13
	SHLL CX, R13
	DECL R13

qmask:
	KMOVW R13, K1
	MOVQ  SI, AX
	MOVQ  DI, BX
	MOVQ  c+24(FP), DX
	MOVQ  R9, R10
	SHRQ  $2, R10

qgroup:
	VPXORD      Z0, Z0, Z0
	QCH(0)
	QCH(8)
	QCH(16)
	QCH(24)
	KMOVW       K1, K2
	VPSCATTERDD Z0, K2, (BX)(Z26*1)
	ADDQ        $4, BX
	DECQ        R10
	JNZ         qgroup

	ADDQ $64, SI
	ADDQ R11, DI
	SUBQ $16, CX
	JGT  qchunk
	VZEROUPPER
	RET
