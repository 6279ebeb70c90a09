#include "textflag.h"

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX     // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV                   // XCR0 into DX:AX
	ANDL $6, AX              // XMM (bit 1) and YMM (bit 2) state enabled
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func cpuidAVX2() bool
TEXT ·cpuidAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID                    // highest basic leaf into AX
	CMPL AX, $7
	JB   no2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX           // AVX2 (CPUID.(EAX=7,ECX=0):EBX bit 5)
	JZ   no2
	MOVB $1, ret+0(FP)
	RET

no2:
	MOVB $0, ret+0(FP)
	RET

// func dotPairs4x4(acc *[32]float64, q0, q1, q2, q3, c0, c1, c2, c3 *float64, pairs int)
//
// Y8 holds [c0[i], c0[i+1], c1[i], c1[i+1]] and Y9 the same for c2 and
// c3; Y10 holds [qk[i], qk[i+1]] twice. Y(2k) accumulates qk against c0
// (low half) and c1 (high half), Y(2k+1) qk against c2 and c3, each half
// as [even, odd]. Products are rounded before they are added (VMULPD
// then VADDPD, never VFMADD), in index order, so every lane is the Go
// lanes' s0 or s1.
TEXT ·dotPairs4x4(SB), NOSPLIT, $0-80
	MOVQ q0+8(FP), AX
	MOVQ q1+16(FP), BX
	MOVQ q2+24(FP), CX
	MOVQ q3+32(FP), DX
	MOVQ c0+40(FP), R8
	MOVQ c1+48(FP), R9
	MOVQ c2+56(FP), R10
	MOVQ c3+64(FP), R11
	MOVQ pairs+72(FP), DI
	SHLQ $4, DI              // bytes in 2·pairs float64s
	XORQ SI, SI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	CMPQ SI, DI
	JAE  done

loop:
	VMOVUPD     (R8)(SI*1), X8
	VINSERTF128 $1, (R9)(SI*1), Y8, Y8
	VMOVUPD     (R10)(SI*1), X9
	VINSERTF128 $1, (R11)(SI*1), Y9, Y9

	VBROADCASTF128 (AX)(SI*1), Y10
	VMULPD         Y8, Y10, Y11
	VMULPD         Y9, Y10, Y12
	VADDPD         Y11, Y0, Y0
	VADDPD         Y12, Y1, Y1

	VBROADCASTF128 (BX)(SI*1), Y13
	VMULPD         Y8, Y13, Y14
	VMULPD         Y9, Y13, Y15
	VADDPD         Y14, Y2, Y2
	VADDPD         Y15, Y3, Y3

	VBROADCASTF128 (CX)(SI*1), Y10
	VMULPD         Y8, Y10, Y11
	VMULPD         Y9, Y10, Y12
	VADDPD         Y11, Y4, Y4
	VADDPD         Y12, Y5, Y5

	VBROADCASTF128 (DX)(SI*1), Y13
	VMULPD         Y8, Y13, Y14
	VMULPD         Y9, Y13, Y15
	VADDPD         Y14, Y6, Y6
	VADDPD         Y15, Y7, Y7

	ADDQ $16, SI
	CMPQ SI, DI
	JB   loop

done:
	MOVQ    acc+0(FP), DI
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET
