#include "textflag.h"

// laneOffsets<> is each lane's byte offset within a bucket's four
// sub-histogram counters.
DATA laneOffsets<>+0(SB)/4, $0
DATA laneOffsets<>+4(SB)/4, $8
DATA laneOffsets<>+8(SB)/4, $16
DATA laneOffsets<>+12(SB)/4, $24
GLOBL laneOffsets<>(SB), RODATA|NOPTR, $16

// func addAllAVX2(counts *int64, xs *float64, m, n int, min, max, span, nf, top float64)
//
// The frame holds four sub-histograms interleaved: bucket b's counter
// for lane k is at 32·b + 8·k(SP), so readings side by side never
// increment the same counter. Each lane decides its bucket as
// addAllLanes does: x <= min is bucket 0, else x >= max is n-1, else a
// NaN frac = (x-min)/span is bucket 0, else int(frac·nf) clamped to
// n-1. For the lanes left to the last case frac·nf lies in [0, n] (x >
// min makes x-min positive, x < max keeps it at most span), so the
// truncation is exact in 32 bits and only the upper clamp can fire.
// The cases are blended in as floats before the truncation, in reverse
// order so that the first that holds wins. The clamp is unsigned, so a
// NaN that skipped its blend would land in bucket n-1, never at a
// negative offset.
TEXT ·addAllAVX2(SB), $2048-72
	MOVQ         counts+0(FP), DI
	MOVQ         xs+8(FP), SI
	MOVQ         m+16(FP), CX
	MOVQ         n+24(FP), DX
	VBROADCASTSD min+32(FP), Y10
	VBROADCASTSD max+40(FP), Y11
	VBROADCASTSD span+48(FP), Y12
	VBROADCASTSD nf+56(FP), Y13
	VBROADCASTSD top+64(FP), Y14
	LEAQ         -1(DX), AX
	VMOVQ        AX, X15
	VPBROADCASTD X15, X15              // n-1 in every dword
	VMOVDQU      laneOffsets<>(SB), X8
	VXORPD       Y9, Y9, Y9

	// Zero the 4·n counters.
	MOVQ DX, AX
	SHLQ $5, AX
	XORQ BX, BX

zero:
	VMOVDQU Y9, (SP)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, AX
	JB      zero

	SHLQ $3, CX                        // bytes in m float64s
	XORQ BX, BX

loop:
	VMOVUPD     (SI)(BX*1), Y0
	VCMPPD      $0x12, Y10, Y0, Y1     // x <= min (LE_OQ)
	VCMPPD      $0x1d, Y11, Y0, Y2     // x >= max (GE_OQ)
	VSUBPD      Y10, Y0, Y3
	VDIVPD      Y12, Y3, Y3            // frac
	VCMPPD      $0x03, Y3, Y3, Y4      // frac is NaN (UNORD_Q)
	VMULPD      Y13, Y3, Y3            // frac·nf
	VBLENDVPD   Y4, Y9, Y3, Y3         // NaN frac: 0
	VBLENDVPD   Y2, Y14, Y3, Y3        // x >= max: n-1
	VBLENDVPD   Y1, Y9, Y3, Y3         // x <= min: 0
	VCVTTPD2DQY Y3, X5
	VPMINUD     X15, X5, X5            // b >= n: n-1
	VPSLLD      $5, X5, X5
	VPADDD      X8, X5, X5             // 32·b + 8·lane

	VMOVQ   X5, AX
	VPEXTRQ $1, X5, R8
	MOVL    AX, R9
	SHRQ    $32, AX
	INCQ    (SP)(R9*1)
	INCQ    (SP)(AX*1)
	MOVL    R8, R9
	SHRQ    $32, R8
	INCQ    (SP)(R9*1)
	INCQ    (SP)(R8*1)

	ADDQ $32, BX
	CMPQ BX, CX
	JB   loop

	// counts[b] += the four lanes' counters of bucket b.
	XORQ BX, BX

sum:
	MOVQ 0(SP)(BX*1), AX
	ADDQ 8(SP)(BX*1), AX
	ADDQ 16(SP)(BX*1), AX
	ADDQ 24(SP)(BX*1), AX
	ADDQ AX, (DI)
	ADDQ $8, DI
	ADDQ $32, BX
	DECQ DX
	JNZ  sum

	VZEROUPPER
	RET
