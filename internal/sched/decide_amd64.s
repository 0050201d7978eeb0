#include "textflag.h"

// AVX2 decision kernels (decide.go): four machines per instruction, every
// lane doing the portable body's IEEE operations in its order, no FMA.
// Between the first 256-bit instruction and VZEROUPPER only VEX-encoded
// instructions run: a legacy SSE move there costs a state transition on
// every call.  Constants come from RODATA or are built in registers, and
// the lanes are reduced in registers.
//
// Lane state: Y0/Y1 the lane's least completion and its machine (+Inf
// and -1 for none), Y8/Y9 its runner-up (fill and pair only), Y2 the
// four machines under way, Y3 the step (4).  A lane replaces its minimum
// only on a strict <, so it keeps its first index on a tie, and LEXMIN4
// merges lanes in (value, machine) order, so the merged minimum is the
// first-index minimum of the row, as the scalar scan's.

DATA iota<>+0(SB)/8, $0
DATA iota<>+8(SB)/8, $1
DATA iota<>+16(SB)/8, $2
DATA iota<>+24(SB)/8, $3
GLOBL iota<>(SB), RODATA|NOPTR, $32

DATA four<>+0(SB)/8, $4
GLOBL four<>(SB), RODATA|NOPTR, $8

DATA inf<>+0(SB)/8, $0x7ff0000000000000
GLOBL inf<>(SB), RODATA|NOPTR, $8

DATA hundred<>+0(SB)/8, $0x4059000000000000
GLOBL hundred<>(SB), RODATA|NOPTR, $8

// deint reorders the factor table's dwords to [lo0 lo1 lo2 lo3 hi0 hi1
// hi2 hi3], so slot s's double is dwords (s, s+4) of it.
DATA deint<>+0(SB)/4, $0
DATA deint<>+4(SB)/4, $2
DATA deint<>+8(SB)/4, $4
DATA deint<>+12(SB)/4, $6
DATA deint<>+16(SB)/4, $1
DATA deint<>+20(SB)/4, $3
DATA deint<>+24(SB)/4, $5
DATA deint<>+28(SB)/4, $7
GLOBL deint<>(SB), RODATA|NOPTR, $32

// hi4 is (0, 4) in every qword's dwords: (s, s) | hi4 = (s, s+4).
DATA hi4<>+0(SB)/8, $0x0000000400000000
DATA hi4<>+8(SB)/8, $0x0000000400000000
DATA hi4<>+16(SB)/8, $0x0000000400000000
DATA hi4<>+24(SB)/8, $0x0000000400000000
GLOBL hi4<>(SB), RODATA|NOPTR, $32

// LANES sets up the lane state.
#define LANES \
	VBROADCASTSD inf<>(SB), Y0; \
	VPCMPEQQ     Y1, Y1, Y1; \
	VMOVAPD      Y0, Y8; \
	VMOVDQU      Y1, Y9; \
	VMOVDQU      iota<>(SB), Y2; \
	VPBROADCASTQ four<>(SB), Y3

// TABLE loads the factor table at R8, deinterleaved, into Y14, and the
// constants FACTOR and LINEAR read into Y12 and Y13.  The table is read
// by 8-byte loads: the caller has just stored it, and one 32-byte load of
// several smaller stores cannot be forwarded from the store buffer, which
// cost a short row about 25 ns.
#define TABLE \
	VMOVSD       (R8), X14; \
	VMOVHPD      8(R8), X14, X14; \
	VMOVSD       16(R8), X13; \
	VMOVHPD      24(R8), X13, X13; \
	VINSERTF128  $1, X13, Y14, Y14; \
	VMOVDQU      deint<>(SB), Y13; \
	VPERMD       Y14, Y13, Y14; \
	VMOVDQU      hi4<>(SB), Y12; \
	VBROADCASTSD hundred<>(SB), Y13

// FACTOR looks up the factors of the four machines whose slots are at
// idx (four int32) into Y6.
#define FACTOR(idx) \
	VPMOVZXDQ idx, Y6; \
	VPSHUFD   $0xa0, Y6, Y6; \
	VPOR      Y12, Y6, Y6; \
	VPERMD    Y14, Y6, Y6

// LINEAR turns the factors in Y6 and the EECs in E into the decision
// ECCs e + e*f/100 in E, in the portable body's order.
#define LINEAR(E) \
	VMULPD Y6, E, Y6; \
	VDIVPD Y13, Y6, Y6; \
	VADDPD Y6, E, E

// MIN folds the completions in D into the lane minima (Y0, Y1).
#define MIN(D) \
	VCMPPD    $0x11, Y0, D, Y6; \
	VMINPD    Y0, D, Y0; \
	VBLENDVPD Y6, Y2, Y1, Y1

// TOP2 folds the completions in D into the lane minima (Y0, Y1) and
// runner-ups (Y8, Y9) as pair.see does: a completion under the minimum
// demotes it to runner-up, one under the runner-up only replaces it.
#define TOP2(D) \
	VCMPPD    $0x11, Y0, D, Y6; \
	VCMPPD    $0x11, Y8, D, Y7; \
	VBLENDVPD Y7, D, Y8, Y8; \
	VBLENDVPD Y7, Y2, Y9, Y9; \
	VBLENDVPD Y6, Y0, Y8, Y8; \
	VBLENDVPD Y6, Y1, Y9, Y9; \
	VMINPD    Y0, D, Y0; \
	VBLENDVPD Y6, Y2, Y1, Y1

// LEXSTEP replaces each lane of (V, I) by the lane of (HV, HI) that
// comes first in (value, machine) order; clobbers X12-X14.
#define LEXSTEP(V, I, HV, HI) \
	VCMPPD    $0x11, V, HV, X12; \
	VCMPPD    $0x00, V, HV, X13; \
	VPCMPGTQ  HI, I, X14; \
	VPAND     X14, X13, X13; \
	VPOR      X13, X12, X12; \
	VBLENDVPD X12, HV, V, V; \
	VBLENDVPD X12, HI, I, I

// LEXMIN4 reduces the four lanes of (YV, YI) to the first in (value,
// machine) order, in lane 0 of XV and XI, their low halves; clobbers
// X10-X14.
#define LEXMIN4(YV, YI, XV, XI) \
	VEXTRACTF128 $1, YV, X10; \
	VEXTRACTI128 $1, YI, X11; \
	LEXSTEP(XV, XI, X10, X11); \
	VPERMILPD    $1, XV, X10; \
	VPSHUFD      $0x4e, XI, X11; \
	LEXSTEP(XV, XI, X10, X11)

// PAIR reduces the lane state to the row's pair: the best is the first
// minimum over the lanes' minima (X4, X5), the runner-up the first
// minimum over the other lanes' minima and the best lane's runner-up
// (X0, X1).
#define PAIR \
	VMOVAPD      Y0, Y4; \
	VMOVDQU      Y1, Y5; \
	LEXMIN4(Y4, Y5, X4, X5); \
	VPBROADCASTQ X5, Y6; \
	VPCMPEQQ     Y6, Y1, Y6; \
	VBLENDVPD    Y6, Y8, Y0, Y0; \
	VBLENDVPD    Y6, Y9, Y1, Y1; \
	LEXMIN4(Y0, Y1, X0, X1)

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE and AVX
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX          // XMM and YMM state enabled by the OS
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX          // AVX2
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func scanZeroAVX2(eec, ft *float64, n int, now float64) (best int, val float64)
TEXT ·scanZeroAVX2(SB), NOSPLIT, $0-48
	MOVQ         eec+0(FP), SI
	MOVQ         ft+8(FP), DI
	MOVQ         n+16(FP), CX
	VBROADCASTSD now+24(FP), Y15
	LANES
	XORQ         AX, AX

scanzero:
	VMAXPD (DI)(AX*8), Y15, Y4
	VADDPD (SI)(AX*8), Y4, Y4
	MIN(Y4)
	VPADDQ Y3, Y2, Y2
	ADDQ   $4, AX
	CMPQ   AX, CX
	JB     scanzero

	LEXMIN4(Y0, Y1, X0, X1)
	VMOVQ  X1, best+32(FP)
	VMOVSD X0, val+40(FP)
	VZEROUPPER
	RET

// func scanLinearAVX2(eec *float64, rdOf *int32, ft *float64, n int, tab *[4]float64, now float64) (best int, val float64)
TEXT ·scanLinearAVX2(SB), NOSPLIT, $0-64
	MOVQ         eec+0(FP), SI
	MOVQ         rdOf+8(FP), DX
	MOVQ         ft+16(FP), DI
	MOVQ         n+24(FP), CX
	MOVQ         tab+32(FP), R8
	VBROADCASTSD now+40(FP), Y15
	TABLE
	LANES
	XORQ         AX, AX

scanlinear:
	FACTOR((DX)(AX*4))
	VMOVUPD (SI)(AX*8), Y5
	LINEAR(Y5)
	VMAXPD  (DI)(AX*8), Y15, Y4
	VADDPD  Y5, Y4, Y4
	MIN(Y4)
	VPADDQ  Y3, Y2, Y2
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      scanlinear

	LEXMIN4(Y0, Y1, X0, X1)
	VMOVQ  X1, best+48(FP)
	VMOVSD X0, val+56(FP)
	VZEROUPPER
	RET

// func fillZeroAVX2(dst, eec, avail *float64, n int) (bestD, secondD float64, bestM, secondM int)
TEXT ·fillZeroAVX2(SB), NOSPLIT, $0-64
	MOVQ   dst+0(FP), BX
	MOVQ   eec+8(FP), SI
	MOVQ   avail+16(FP), DI
	MOVQ   n+24(FP), CX
	VXORPD Y11, Y11, Y11
	LANES
	XORQ   AX, AX

fillzero:
	VADDPD  (SI)(AX*8), Y11, Y5 // eec + 0: -0 becomes +0
	VMOVUPD Y5, (BX)(AX*8)
	VADDPD  (DI)(AX*8), Y5, Y5
	TOP2(Y5)
	VPADDQ  Y3, Y2, Y2
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      fillzero

	PAIR
	VMOVSD X4, bestD+32(FP)
	VMOVSD X0, secondD+40(FP)
	VMOVQ  X5, bestM+48(FP)
	VMOVQ  X1, secondM+56(FP)
	VZEROUPPER
	RET

// func fillLinearAVX2(dst, eec *float64, rdOf *int32, avail *float64, n int, tab *[4]float64) (bestD, secondD float64, bestM, secondM int)
TEXT ·fillLinearAVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), BX
	MOVQ eec+8(FP), SI
	MOVQ rdOf+16(FP), DX
	MOVQ avail+24(FP), DI
	MOVQ n+32(FP), CX
	MOVQ tab+40(FP), R8
	TABLE
	LANES
	XORQ AX, AX

filllinear:
	FACTOR((DX)(AX*4))
	VMOVUPD (SI)(AX*8), Y5
	LINEAR(Y5)
	VMOVUPD Y5, (BX)(AX*8)
	VADDPD  (DI)(AX*8), Y5, Y5
	TOP2(Y5)
	VPADDQ  Y3, Y2, Y2
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      filllinear

	PAIR
	VMOVSD X4, bestD+48(FP)
	VMOVSD X0, secondD+56(FP)
	VMOVQ  X5, bestM+64(FP)
	VMOVQ  X1, secondM+72(FP)
	VZEROUPPER
	RET

// func pairAVX2(row, avail *float64, n int) (bestD, secondD float64, bestM, secondM int)
TEXT ·pairAVX2(SB), NOSPLIT, $0-56
	MOVQ row+0(FP), SI
	MOVQ avail+8(FP), DI
	MOVQ n+16(FP), CX
	LANES
	XORQ AX, AX

pairloop:
	VMOVUPD (DI)(AX*8), Y5
	VADDPD  (SI)(AX*8), Y5, Y5
	TOP2(Y5)
	VPADDQ  Y3, Y2, Y2
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      pairloop

	PAIR
	VMOVSD X4, bestD+24(FP)
	VMOVSD X0, secondD+32(FP)
	VMOVQ  X5, bestM+40(FP)
	VMOVQ  X1, secondM+48(FP)
	VZEROUPPER
	RET
