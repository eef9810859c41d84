//go:build amd64 && !race

#include "textflag.h"

// TILE applies OP to the 32 lanes of one column run: x in X0-X7, y in
// X8-X15, x stays the destination operand so a NaN pair yields x's
// payload, as ADDSS/MULSS/SUBSS on x do.
#define TILE(OP) \
	MOVUPS 0(SI), X0; MOVUPS 16(SI), X1; MOVUPS 32(SI), X2; MOVUPS 48(SI), X3; \
	MOVUPS 64(SI), X4; MOVUPS 80(SI), X5; MOVUPS 96(SI), X6; MOVUPS 112(SI), X7; \
	MOVUPS 0(DX), X8; MOVUPS 16(DX), X9; MOVUPS 32(DX), X10; MOVUPS 48(DX), X11; \
	MOVUPS 64(DX), X12; MOVUPS 80(DX), X13; MOVUPS 96(DX), X14; MOVUPS 112(DX), X15; \
	OP X8, X0; OP X9, X1; OP X10, X2; OP X11, X3; \
	OP X12, X4; OP X13, X5; OP X14, X6; OP X15, X7; \
	MOVUPS X0, 0(DI); MOVUPS X1, 16(DI); MOVUPS X2, 32(DI); MOVUPS X3, 48(DI); \
	MOVUPS X4, 64(DI); MOVUPS X5, 80(DI); MOVUPS X6, 96(DI); MOVUPS X7, 112(DI); \
	ADDQ $4096, SI; ADDQ $4096, DX; ADDQ $4096, DI

// func arithTilesSSE2(op int, d, x, y *uint32, tiles int)
TEXT ·arithTilesSSE2(SB), NOSPLIT, $0-40
	MOVQ op+0(FP), AX
	MOVQ d+8(FP), DI
	MOVQ x+16(FP), SI
	MOVQ y+24(FP), DX
	MOVQ tiles+32(FP), CX
	TESTQ CX, CX
	JLE done
	CMPQ AX, $1
	JEQ mul
	CMPQ AX, $2
	JEQ sub
	TESTQ AX, AX
	JNZ done

add:
	TILE(ADDPS)
	DECQ CX
	JNZ add
	RET

mul:
	TILE(MULPS)
	DECQ CX
	JNZ mul
	RET

sub:
	TILE(SUBPS)
	DECQ CX
	JNZ sub

done:
	RET

// func fillRun(d []uint32, v uint32)
TEXT ·fillRun(SB), NOSPLIT, $0-28
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVL v+24(FP), AX
	MOVL AX, X0
	PSHUFD $0, X0, X0

vec:
	CMPQ CX, $4
	JLT tail
	MOVUPS X0, (DI)
	ADDQ $16, DI
	SUBQ $4, CX
	JMP vec

tail:
	TESTQ CX, CX
	JZ end
	MOVL AX, (DI)
	ADDQ $4, DI
	DECQ CX
	JMP tail

end:
	RET
