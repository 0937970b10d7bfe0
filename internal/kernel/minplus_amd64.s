//go:build amd64 && !purego && !race

#include "textflag.h"

// AVX2 bodies of the min-plus kernels. Each lane holds one int32 distance;
// all compares are unsigned (see minplus_generic.go for why that needs no
// InfDist mask). Rules the two functions share:
//
//   - n is a positive multiple of 8 and nothing at or past element n is
//     loaded or stored: rows are views into a shared arena.
//   - A block is stored only when one of its lanes improved, as the scalar
//     loop stores only improved elements.
//   - Every vector instruction is VEX-encoded (VMOVD, never MOVQ/MOVD, to
//     bring a scalar into a vector register) and the function leaves through
//     VZEROUPPER: one legacy-SSE instruction between 256-bit ones costs an
//     SSE/AVX state transition, measured at ~145 ns per call (DESIGN.md §8).
//   - 32 lanes at a time while all of them stay unchanged (the four
//     "min == dst" compares ANDed into one mask and one predicted branch);
//     a 32-lane group with an improvement, and the last n mod 32 lanes, go
//     through the 8-lane block, which recomputes its own min.

// UNCHANGED32 relaxes the 32 lanes at element AX of dst (DI) through src
// (DX) and add (Y0) without storing, and leaves the flags equal exactly
// when none of them would improve.
#define UNCHANGED32 \
	VMOVDQU  (DI)(AX*4), Y6; \
	VMOVDQU  32(DI)(AX*4), Y7; \
	VMOVDQU  64(DI)(AX*4), Y8; \
	VMOVDQU  96(DI)(AX*4), Y9; \
	VPADDD   (DX)(AX*4), Y0, Y2; \
	VPADDD   32(DX)(AX*4), Y0, Y3; \
	VPADDD   64(DX)(AX*4), Y0, Y4; \
	VPADDD   96(DX)(AX*4), Y0, Y5; \
	VPMINUD  Y6, Y2, Y2; \
	VPMINUD  Y7, Y3, Y3; \
	VPMINUD  Y8, Y4, Y4; \
	VPMINUD  Y9, Y5, Y5; \
	VPCMPEQD Y6, Y2, Y2; \
	VPCMPEQD Y7, Y3, Y3; \
	VPCMPEQD Y8, Y4, Y4; \
	VPCMPEQD Y9, Y5, Y5; \
	VPAND    Y3, Y2, Y2; \
	VPAND    Y5, Y4, Y4; \
	VPAND    Y4, Y2, Y2; \
	VPMOVMSKB Y2, BX; \
	CMPL BX, $-1

// func minPlusHopsAVX2(dst, nh, src *int32, n int, add, hop int32) (lo, hi int)
//
// Returns the changed window [lo, hi) over [0, n); (n, 0) when no lane
// improved.
TEXT ·minPlusHopsAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ nh+8(FP), SI
	MOVQ src+16(FP), DX
	MOVQ n+24(FP), CX
	MOVL add+32(FP), AX
	MOVL hop+36(FP), BX
	VMOVD AX, X0
	VMOVD BX, X1
	VPBROADCASTD X0, Y0
	VPBROADCASTD X1, Y1
	XORQ AX, AX             // t, in elements
	MOVQ CX, R8             // lo
	XORQ R9, R9             // hi
	MOVQ CX, R10
	ANDQ $~31, R10          // end of the 32-lane groups

hopsWide:
	CMPQ AX, R10
	JGE  hopsNarrow
	UNCHANGED32
	JNE  hopsGroup
	ADDQ $32, AX
	JMP  hopsWide

hopsGroup:
	LEAQ 32(AX), R11        // relax this group block by block
	JMP  hopsBlock

hopsNarrow:
	MOVQ CX, R11            // relax what is left block by block
	CMPQ AX, R11
	JGE  hopsDone

hopsBlock:
	VPADDD    (DX)(AX*4), Y0, Y2
	VMOVDQU   (DI)(AX*4), Y3
	VPMINUD   Y3, Y2, Y2
	VPCMPEQD  Y3, Y2, Y3    // all ones where the lane did not improve
	VPMOVMSKB Y3, BX
	XORL $-1, BX            // four mask bits per improved lane
	JZ   hopsNext
	VMOVDQU   Y2, (DI)(AX*4)
	VPBLENDVB Y3, (SI)(AX*4), Y1, Y4
	VMOVDQU   Y4, (SI)(AX*4)
	BSFL BX, R12
	SHRL $2, R12
	ADDQ AX, R12
	CMPQ R12, R8
	CMOVQLT R12, R8
	BSRL BX, R12
	SHRL $2, R12
	LEAQ 1(AX)(R12*1), R9

hopsNext:
	ADDQ $8, AX
	CMPQ AX, R11
	JLT  hopsBlock
	CMPQ AX, CX
	JLT  hopsWide

hopsDone:
	VZEROUPPER
	MOVQ R8, lo+40(FP)
	MOVQ R9, hi+48(FP)
	RET

// func minPlusAVX2(dst, src *int32, n int, add int32) bool
//
// minPlusHopsAVX2 without next hops and window: reports whether any lane
// improved.
TEXT ·minPlusAVX2(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), DX
	MOVQ n+16(FP), CX
	MOVL add+24(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y0
	XORQ AX, AX             // t, in elements
	XORL R9, R9             // changed
	MOVQ CX, R10
	ANDQ $~31, R10          // end of the 32-lane groups

distWide:
	CMPQ AX, R10
	JGE  distNarrow
	UNCHANGED32
	JNE  distGroup
	ADDQ $32, AX
	JMP  distWide

distGroup:
	LEAQ 32(AX), R11
	JMP  distBlock

distNarrow:
	MOVQ CX, R11
	CMPQ AX, R11
	JGE  distDone

distBlock:
	VPADDD    (DX)(AX*4), Y0, Y2
	VMOVDQU   (DI)(AX*4), Y3
	VPMINUD   Y3, Y2, Y2
	VPCMPEQD  Y3, Y2, Y3
	VPMOVMSKB Y3, BX
	CMPL BX, $-1
	JEQ  distNext
	VMOVDQU   Y2, (DI)(AX*4)
	MOVL $1, R9

distNext:
	ADDQ $8, AX
	CMPQ AX, R11
	JLT  distBlock
	CMPQ AX, CX
	JLT  distWide

distDone:
	VZEROUPPER
	MOVB R9, ret+32(FP)
	RET

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

// func xgetbv0() (eax uint32)
//
// XCR0, the register states the OS saves: only read once CPUID reports
// OSXSAVE.
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
