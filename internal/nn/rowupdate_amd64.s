#include "textflag.h"

// The row updates of rowupdate.go in SSE2, amd64's baseline: two lanes per
// instruction, four elements per loop turn, then one pair and one scalar.
// Each element gets the Go form's roundings in its order: a MULPD or MULSD
// per product, then an ADDPD or ADDSD per add, never a fused one.

// func rowUpdate4(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64)
TEXT ·rowUpdate4(SB), NOSPLIT, $0-152
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ b0_base+56(FP), R8
	MOVQ b1_base+80(FP), R9
	MOVQ b2_base+104(FP), R10
	MOVQ b3_base+128(FP), R11
	MOVSD a0+24(FP), X0
	UNPCKLPD X0, X0
	MOVSD a1+32(FP), X1
	UNPCKLPD X1, X1
	MOVSD a2+40(FP), X2
	UNPCKLPD X2, X2
	MOVSD a3+48(FP), X3
	UNPCKLPD X3, X3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

quad4:
	CMPQ AX, DX
	JGE  pair4
	MOVUPD (DI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	MOVUPD (R8)(AX*8), X6
	MOVUPD 16(R8)(AX*8), X7
	MULPD  X0, X6
	MULPD  X0, X7
	ADDPD  X6, X4
	ADDPD  X7, X5
	MOVUPD (R9)(AX*8), X6
	MOVUPD 16(R9)(AX*8), X7
	MULPD  X1, X6
	MULPD  X1, X7
	ADDPD  X6, X4
	ADDPD  X7, X5
	MOVUPD (R10)(AX*8), X6
	MOVUPD 16(R10)(AX*8), X7
	MULPD  X2, X6
	MULPD  X2, X7
	ADDPD  X6, X4
	ADDPD  X7, X5
	MOVUPD (R11)(AX*8), X6
	MOVUPD 16(R11)(AX*8), X7
	MULPD  X3, X6
	MULPD  X3, X7
	ADDPD  X6, X4
	ADDPD  X7, X5
	MOVUPD X4, (DI)(AX*8)
	MOVUPD X5, 16(DI)(AX*8)
	ADDQ   $4, AX
	JMP    quad4

pair4:
	MOVQ CX, DX
	ANDQ $-2, DX
	CMPQ AX, DX
	JGE  single4
	MOVUPD (DI)(AX*8), X4
	MOVUPD (R8)(AX*8), X6
	MULPD  X0, X6
	ADDPD  X6, X4
	MOVUPD (R9)(AX*8), X6
	MULPD  X1, X6
	ADDPD  X6, X4
	MOVUPD (R10)(AX*8), X6
	MULPD  X2, X6
	ADDPD  X6, X4
	MOVUPD (R11)(AX*8), X6
	MULPD  X3, X6
	ADDPD  X6, X4
	MOVUPD X4, (DI)(AX*8)
	ADDQ   $2, AX

single4:
	CMPQ AX, CX
	JGE  done4
	MOVSD (DI)(AX*8), X4
	MOVSD (R8)(AX*8), X6
	MULSD X0, X6
	ADDSD X6, X4
	MOVSD (R9)(AX*8), X6
	MULSD X1, X6
	ADDSD X6, X4
	MOVSD (R10)(AX*8), X6
	MULSD X2, X6
	ADDSD X6, X4
	MOVSD (R11)(AX*8), X6
	MULSD X3, X6
	ADDSD X6, X4
	MOVSD X4, (DI)(AX*8)

done4:
	RET

// func rowUpdate1(o []float64, a float64, b []float64)
TEXT ·rowUpdate1(SB), NOSPLIT, $0-56
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ b_base+32(FP), R8
	MOVSD a+24(FP), X0
	UNPCKLPD X0, X0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

quad1:
	CMPQ AX, DX
	JGE  pair1
	MOVUPD (DI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	MOVUPD (R8)(AX*8), X6
	MOVUPD 16(R8)(AX*8), X7
	MULPD  X0, X6
	MULPD  X0, X7
	ADDPD  X6, X4
	ADDPD  X7, X5
	MOVUPD X4, (DI)(AX*8)
	MOVUPD X5, 16(DI)(AX*8)
	ADDQ   $4, AX
	JMP    quad1

pair1:
	MOVQ CX, DX
	ANDQ $-2, DX
	CMPQ AX, DX
	JGE  single1
	MOVUPD (DI)(AX*8), X4
	MOVUPD (R8)(AX*8), X6
	MULPD  X0, X6
	ADDPD  X6, X4
	MOVUPD X4, (DI)(AX*8)
	ADDQ   $2, AX

single1:
	CMPQ AX, CX
	JGE  done1
	MOVSD (DI)(AX*8), X4
	MOVSD (R8)(AX*8), X6
	MULSD X0, X6
	ADDSD X6, X4
	MOVSD X4, (DI)(AX*8)

done1:
	RET
