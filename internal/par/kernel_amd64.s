#include "textflag.h"

// A day of the series is 24 float64s, 192 bytes: every kernel steps
// its pointers (or a byte offset) by that much, and one YMM register
// carries the group's four hours of one day. Products are rounded
// before they are added (VMULPD then VADDPD, never VFMADD), and each
// register accumulates in day order, so every lane is its Go lane.

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

// func ySumsAVX(acc *[16]float64, y, t *float64, head, days int)
//
// Y0 and Y1 sum y and y·t over every day, Y2 and Y3 over the days from
// head on; the last two pairs add the same register of products.
TEXT ·ySumsAVX(SB), NOSPLIT, $0-40
	MOVQ  y+8(FP), AX
	MOVQ  t+16(FP), BX
	MOVQ  head+24(FP), DX
	IMULQ $192, DX
	MOVQ  days+32(FP), DI
	IMULQ $192, DI
	XORQ  SI, SI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	CMPQ SI, DX
	JAE  observed

headloop:
	VMOVUPD (AX)(SI*1), Y4
	VMULPD  (BX)(SI*1), Y4, Y5
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	ADDQ    $192, SI
	CMPQ    SI, DX
	JB      headloop

observed:
	CMPQ SI, DI
	JAE  ydone

yloop:
	VMOVUPD (AX)(SI*1), Y4
	VMULPD  (BX)(SI*1), Y4, Y5
	VADDPD  Y4, Y0, Y0
	VADDPD  Y5, Y1, Y1
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	ADDQ    $192, SI
	CMPQ    SI, DI
	JB      yloop

ydone:
	MOVQ    acc+0(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func lagSumsAVX(acc *[24]float64, x, y, t, a, b, c *float64, n int)
//
// Y6 holds x; Y0 sums it, Y1..Y5 its products with y, t, a, b and c.
TEXT ·lagSumsAVX(SB), NOSPLIT, $0-64
	MOVQ  x+8(FP), AX
	MOVQ  y+16(FP), BX
	MOVQ  t+24(FP), CX
	MOVQ  a+32(FP), DX
	MOVQ  b+40(FP), R8
	MOVQ  c+48(FP), R9
	MOVQ  n+56(FP), DI
	IMULQ $192, DI
	XORQ  SI, SI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5

	CMPQ SI, DI
	JAE  lagdone

lagloop:
	VMOVUPD (AX)(SI*1), Y6
	VADDPD  Y6, Y0, Y0
	VMULPD  (BX)(SI*1), Y6, Y7
	VADDPD  Y7, Y1, Y1
	VMULPD  (CX)(SI*1), Y6, Y8
	VADDPD  Y8, Y2, Y2
	VMULPD  (DX)(SI*1), Y6, Y9
	VADDPD  Y9, Y3, Y3
	VMULPD  (R8)(SI*1), Y6, Y10
	VADDPD  Y10, Y4, Y4
	VMULPD  (R9)(SI*1), Y6, Y11
	VADDPD  Y11, Y5, Y5
	ADDQ    $192, SI
	CMPQ    SI, DI
	JB      lagloop

lagdone:
	MOVQ    acc+0(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VZEROUPPER
	RET

// func rSquaredAVX(ss *[8]float64, c, y, t, coef *float64, m *laneModel, order, n int)
//
// Y10..Y13 hold the lanes' constant, temperature coefficient, mean and
// temperature mask; Y2 is the day's prediction, Y0 and Y1 sum the
// squared residuals and deviations. The temperature term is masked to
// +0 where a lane's model has none: that can only turn a -0 prediction
// into +0, and the squared residual is the same for either.
TEXT ·rSquaredAVX(SB), NOSPLIT, $0-64
	MOVQ  c+8(FP), AX
	MOVQ  y+16(FP), BX
	MOVQ  t+24(FP), CX
	MOVQ  coef+32(FP), DX
	MOVQ  m+40(FP), R8
	MOVQ  order+48(FP), R9
	MOVQ  n+56(FP), DI
	IMULQ $192, DI
	LEAQ  -1(R9), R10
	IMULQ $192, R10          // lag 1 of a day lies order-1 days past c
	XORQ  SI, SI

	VMOVUPD 0(R8), Y10
	VMOVUPD 32(R8), Y11
	VMOVUPD 64(R8), Y12
	VMOVUPD 96(R8), Y13
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1

	CMPQ SI, DI
	JAE  r2done

day:
	VMOVAPD Y10, Y2
	LEAQ    (AX)(SI*1), R11
	ADDQ    R10, R11
	MOVQ    DX, R12
	MOVQ    R9, R13

lag:
	VMOVUPD (R12), Y3
	VMULPD  (R11), Y3, Y3
	VADDPD  Y3, Y2, Y2
	ADDQ    $32, R12
	SUBQ    $192, R11
	DECQ    R13
	JNZ     lag

	VMULPD  (CX)(SI*1), Y11, Y3
	VANDPD  Y13, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD (BX)(SI*1), Y4
	VSUBPD  Y2, Y4, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y0, Y0
	VSUBPD  Y12, Y4, Y6
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y1, Y1
	ADDQ    $192, SI
	CMPQ    SI, DI
	JB      day

r2done:
	MOVQ    ss+0(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func profileAVX(mean *[24]float64, readings, temps *float64, slope *[24]float64, days int)
//
// Y0..Y5 are the six groups' running means, Y6..Y11 their slopes; Y13
// counts the days as a float64 (exact for any series length), stepped
// by Y12's 1.0.
TEXT ·profileAVX(SB), NOSPLIT, $0-40
	MOVQ mean+0(FP), R8
	MOVQ readings+8(FP), AX
	MOVQ temps+16(FP), BX
	MOVQ slope+24(FP), CX
	MOVQ days+32(FP), DI

	VMOVUPD      0(R8), Y0
	VMOVUPD      32(R8), Y1
	VMOVUPD      64(R8), Y2
	VMOVUPD      96(R8), Y3
	VMOVUPD      128(R8), Y4
	VMOVUPD      160(R8), Y5
	VMOVUPD      0(CX), Y6
	VMOVUPD      32(CX), Y7
	VMOVUPD      64(CX), Y8
	VMOVUPD      96(CX), Y9
	VMOVUPD      128(CX), Y10
	VMOVUPD      160(CX), Y11
	VBROADCASTSD one<>(SB), Y12
	VXORPD       Y13, Y13, Y13

	TESTQ DI, DI
	JEQ   pdone

pday:
	VADDPD Y12, Y13, Y13

	VMULPD  0(BX), Y6, Y14
	VMOVUPD 0(AX), Y15
	VSUBPD  Y14, Y15, Y15
	VSUBPD  Y0, Y15, Y15
	VDIVPD  Y13, Y15, Y15
	VADDPD  Y15, Y0, Y0

	VMULPD  32(BX), Y7, Y14
	VMOVUPD 32(AX), Y15
	VSUBPD  Y14, Y15, Y15
	VSUBPD  Y1, Y15, Y15
	VDIVPD  Y13, Y15, Y15
	VADDPD  Y15, Y1, Y1

	VMULPD  64(BX), Y8, Y14
	VMOVUPD 64(AX), Y15
	VSUBPD  Y14, Y15, Y15
	VSUBPD  Y2, Y15, Y15
	VDIVPD  Y13, Y15, Y15
	VADDPD  Y15, Y2, Y2

	VMULPD  96(BX), Y9, Y14
	VMOVUPD 96(AX), Y15
	VSUBPD  Y14, Y15, Y15
	VSUBPD  Y3, Y15, Y15
	VDIVPD  Y13, Y15, Y15
	VADDPD  Y15, Y3, Y3

	VMULPD  128(BX), Y10, Y14
	VMOVUPD 128(AX), Y15
	VSUBPD  Y14, Y15, Y15
	VSUBPD  Y4, Y15, Y15
	VDIVPD  Y13, Y15, Y15
	VADDPD  Y15, Y4, Y4

	VMULPD  160(BX), Y11, Y14
	VMOVUPD 160(AX), Y15
	VSUBPD  Y14, Y15, Y15
	VSUBPD  Y5, Y15, Y15
	VDIVPD  Y13, Y15, Y15
	VADDPD  Y15, Y5, Y5

	ADDQ $192, AX
	ADDQ $192, BX
	DECQ DI
	JNZ  pday

pdone:
	VMOVUPD Y0, 0(R8)
	VMOVUPD Y1, 32(R8)
	VMOVUPD Y2, 64(R8)
	VMOVUPD Y3, 96(R8)
	VMOVUPD Y4, 128(R8)
	VMOVUPD Y5, 160(R8)
	VZEROUPPER
	RET
