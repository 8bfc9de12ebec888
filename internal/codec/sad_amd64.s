//go:build !purego

#include "textflag.h"

// Four rows of a 16-wide SAD: PSADBW leaves one partial sum in each
// 64-bit lane of X1, accumulated in X0.
#define SAD4ROWS \
	MOVOU (SI), X1;    MOVOU (DI), X2;    PSADBW X2, X1; \
	MOVOU (SI)(DX*1), X3; MOVOU (DI)(DX*1), X4; PSADBW X4, X3; \
	LEAQ (SI)(DX*2), SI; LEAQ (DI)(DX*2), DI; \
	PADDQ X3, X1; \
	MOVOU (SI), X0;    MOVOU (DI), X2;    PSADBW X2, X0; \
	MOVOU (SI)(DX*1), X3; MOVOU (DI)(DX*1), X4; PSADBW X4, X3; \
	LEAQ (SI)(DX*2), SI; LEAQ (DI)(DX*2), DI; \
	PADDQ X1, X0; \
	PADDQ X3, X0

// func sad16SSE2(cur, ref []uint8, stride, limit int) int
//
// Sum of absolute differences of two 16×16 blocks starting at cur[0] and
// ref[0], rows stride bytes apart. After every four rows the running sum
// is compared with limit and the kernel returns early once it has
// reached it (the portable loop checks every row; both return the exact
// sum when it is below limit and something ≥ limit otherwise). The
// caller has checked that both slices hold 15*stride+16 bytes.
TEXT ·sad16SSE2(SB), NOSPLIT, $0-72
	MOVQ cur_base+0(FP), SI
	MOVQ ref_base+24(FP), DI
	MOVQ stride+48(FP), DX
	MOVQ limit+56(FP), R8
	XORQ AX, AX
	MOVQ $4, CX
loop:
	CMPQ AX, R8
	JGE  done
	SAD4ROWS
	PSHUFD $0xEE, X0, X1
	PADDQ  X1, X0
	MOVQ   X0, BX
	ADDQ   BX, AX
	DECQ   CX
	JNZ    loop
done:
	MOVQ AX, ret+64(FP)
	RET
