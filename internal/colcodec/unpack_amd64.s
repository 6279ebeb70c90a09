#include "textflag.h"

// magic<> is 2^52 + 2^51 as a float64. Adding an integer v in
// [-2^51, 2^51) to its bits leaves the exponent alone and gives the
// float 2^52 + 2^51 + v exactly; subtracting magic<> as a float then
// leaves float64(v) exactly (+0 for 0).
DATA magic<>+0(SB)/8, $0x4338000000000000
GLOBL magic<>(SB), RODATA|NOPTR, $8

// laneSteps<> is lane k's bit offset in units of w: 0, 1, 2, 3.
DATA laneSteps<>+0(SB)/8, $0
DATA laneSteps<>+8(SB)/8, $1
DATA laneSteps<>+16(SB)/8, $2
DATA laneSteps<>+24(SB)/8, $3
GLOBL laneSteps<>(SB), RODATA|NOPTR, $32

// func unpackAVX2(body *byte, dst *float64, k int, w uint, mask uint64, cur int64, p float64) int64
//
// Four deltas per iteration, the running integer carried across them
// in Y13 (broadcast). Lane k's delta starts at bit R10 + k·w: each lane
// loads the little-endian word at that bit's byte and shifts it right
// by the bit's offset in the byte (VPSRLVQ), then masks it, as the Go
// word loop does. The deltas are un-zigzagged, summed in the register
// as a prefix sum (VPADDQ wraps as Go's int64 addition does), converted
// to float64 through magic<> and divided by p (VDIVPD: the Go lanes'
// one division, rounded once).
TEXT ·unpackAVX2(SB), NOSPLIT, $0-64
	MOVQ         body+0(FP), SI
	MOVQ         dst+8(FP), DI
	MOVQ         k+16(FP), CX
	MOVQ         w+24(FP), R11
	VPBROADCASTQ mask+32(FP), Y15
	VPBROADCASTQ cur+40(FP), Y13
	VBROADCASTSD p+48(FP), Y11
	VPBROADCASTQ magic<>(SB), Y12

	VPXOR        Y6, Y6, Y6          // zero
	VPCMPEQQ     Y14, Y14, Y14
	VPSRLQ       $61, Y14, Y7        // 7 in every lane
	VPSRLQ       $63, Y14, Y14       // 1 in every lane

	// Y9 holds each lane's bit offset k·w, Y8 the step 4·w.
	VMOVQ        R11, X8
	VPBROADCASTQ X8, Y8
	VMOVDQU      laneSteps<>(SB), Y9
	VPMULUDQ     Y8, Y9, Y9
	VPSLLQ       $2, Y8, Y8

	SHLQ $3, CX                      // bytes in k float64s
	XORQ BX, BX
	XORQ R10, R10                    // lane 0's bit

loop:
	MOVQ        R10, AX
	SHRQ        $3, AX
	VMOVQ       (SI)(AX*1), X0
	LEAQ        (R10)(R11*1), DX
	MOVQ        DX, AX
	SHRQ        $3, AX
	VPINSRQ     $1, (SI)(AX*1), X0, X0
	ADDQ        R11, DX
	MOVQ        DX, AX
	SHRQ        $3, AX
	VMOVQ       (SI)(AX*1), X1
	ADDQ        R11, DX
	MOVQ        DX, AX
	SHRQ        $3, AX
	VPINSRQ     $1, (SI)(AX*1), X1, X1
	VINSERTI128 $1, X1, Y0, Y0
	LEAQ        (DX)(R11*1), R10     // next lane 0's bit

	VPAND   Y7, Y9, Y10              // each lane's bit within its byte
	VPSRLVQ Y10, Y0, Y0
	VPAND   Y15, Y0, Y0              // u
	VPADDQ  Y8, Y9, Y9

	VPAND  Y14, Y0, Y2
	VPSUBQ Y2, Y6, Y2                // -(u&1)
	VPSRLQ $1, Y0, Y1
	VPXOR  Y2, Y1, Y0                // delta = u>>1 ^ -(u&1)

	VPSLLDQ  $8, Y0, Y1              // [0, d0, 0, d2]
	VPADDQ   Y1, Y0, Y0              // [d0, d0+d1, d2, d2+d3]
	VPERMQ   $0x55, Y0, Y1           // d0+d1 in every lane
	VPBLENDD $0x0f, Y6, Y1, Y1       // [0, 0, d0+d1, d0+d1]
	VPADDQ   Y1, Y0, Y0              // prefix sums
	VPADDQ   Y13, Y0, Y0             // running integers
	VPERMQ   $0xff, Y0, Y13          // carry the last one

	VPADDQ  Y12, Y0, Y0
	VSUBPD  Y12, Y0, Y0              // float64(cur), exactly
	VDIVPD  Y11, Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)

	ADDQ $32, BX
	CMPQ BX, CX
	JB   loop

	VMOVQ      X13, AX
	MOVQ       AX, ret+56(FP)
	VZEROUPPER
	RET
