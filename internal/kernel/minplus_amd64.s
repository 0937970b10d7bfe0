//go:build amd64 && !purego && !race

#include "textflag.h"

// AVX2 bodies of the min-plus kernels. Each lane holds one int32 distance;
// all compares are unsigned (see minplus_generic.go for why that needs no
// InfDist mask). Rules the bodies share:
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

// func minPlusWindowAVX2(dst, src *int32, n int, add int32) (lo, hi int)
//
// Returns the changed window [lo, hi) over [0, n); (n, 0) when no lane
// improved.
TEXT ·minPlusWindowAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), DX
	MOVQ n+16(FP), CX
	MOVL add+24(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y0
	XORQ AX, AX             // t, in elements
	MOVQ CX, R8             // lo
	XORQ R9, R9             // hi
	MOVQ CX, R10
	ANDQ $~31, R10          // end of the 32-lane groups

windowWide:
	CMPQ AX, R10
	JGE  windowNarrow
	UNCHANGED32
	JNE  windowGroup
	ADDQ $32, AX
	JMP  windowWide

windowGroup:
	LEAQ 32(AX), R11        // relax this group block by block
	JMP  windowBlock

windowNarrow:
	MOVQ CX, R11            // relax what is left block by block
	CMPQ AX, R11
	JGE  windowDone

windowBlock:
	VPADDD    (DX)(AX*4), Y0, Y2
	VMOVDQU   (DI)(AX*4), Y3
	VPMINUD   Y3, Y2, Y2
	VPCMPEQD  Y3, Y2, Y3    // all ones where the lane did not improve
	VPMOVMSKB Y3, BX
	XORL $-1, BX            // four mask bits per improved lane
	JZ   windowNext
	VMOVDQU   Y2, (DI)(AX*4)
	BSFL BX, R12
	SHRL $2, R12
	ADDQ AX, R12
	CMPQ R12, R8
	CMOVQLT R12, R8
	BSRL BX, R12
	SHRL $2, R12
	LEAQ 1(AX)(R12*1), R9

windowNext:
	ADDQ $8, AX
	CMPQ AX, R11
	JLT  windowBlock
	CMPQ AX, CX
	JLT  windowWide

windowDone:
	VZEROUPPER
	MOVQ R8, lo+32(FP)
	MOVQ R9, hi+40(FP)
	RET

// laneBits holds 1 << i in lane i: ANDed with a broadcast block word and
// compared with zero, it expands the block's 8 mask bits into 8 lanes.
DATA laneBits<>+0(SB)/4, $1
DATA laneBits<>+4(SB)/4, $2
DATA laneBits<>+8(SB)/4, $4
DATA laneBits<>+12(SB)/4, $8
DATA laneBits<>+16(SB)/4, $16
DATA laneBits<>+20(SB)/4, $32
DATA laneBits<>+24(SB)/4, $64
DATA laneBits<>+28(SB)/4, $128
GLOBL laneBits<>(SB), RODATA|NOPTR, $32

// func minPlusBlocksAVX2(dst, src *int32, blocks *uint32, nb, n int, rec *uint64, base int, add int32) (lo, hi int)
//
// Relaxes the nb whole blocks of a compiled mask (see BlockMask: column
// index/8 in bits 8 and up, lane bits in bits 0-7; every block ends at or
// below n) in list order. Only lanes whose mask bit is set may change: the
// store blends the old value back into every other lane. Improved lanes are
// ORed into rec's byte (base+t)/8 when rec is not nil, which needs base to
// be a multiple of 8. Returns the changed window [lo, hi); (n, 0) when no
// lane improved.
TEXT ·minPlusBlocksAVX2(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), DX
	MOVQ blocks+16(FP), R8
	MOVQ nb+24(FP), CX
	MOVQ n+32(FP), R9       // lo
	MOVQ rec+40(FP), R10
	MOVQ base+48(FP), R14
	MOVL add+56(FP), AX
	VMOVD AX, X0
	VPBROADCASTD X0, Y0
	VMOVDQU laneBits<>(SB), Y14
	VPXOR   Y15, Y15, Y15
	XORQ R11, R11           // hi
	XORQ R12, R12           // block

blocksLoop:
	CMPQ R12, CX
	JGE  blocksDone
	MOVL (R8)(R12*4), AX
	MOVL AX, BX
	SHRL $5, BX
	ANDL $~7, BX            // t: the block's first column
	VMOVD        AX, X5
	VPBROADCASTD X5, Y5
	VPAND        Y14, Y5, Y5
	VPCMPEQD     Y15, Y5, Y5 // all ones on the lanes outside the mask
	VPADDD    (DX)(BX*4), Y0, Y2
	VMOVDQU   (DI)(BX*4), Y3
	VPMINUD   Y3, Y2, Y4
	VPCMPEQD  Y3, Y4, Y4    // all ones where the lane did not improve
	VPOR      Y5, Y4, Y4    // ... or may not change: keep the old value
	VMOVMSKPS Y4, AX
	XORL $0xff, AX          // one bit per improved lane
	JZ   blocksNext
	VPBLENDVB Y4, Y3, Y2, Y6
	VMOVDQU   Y6, (DI)(BX*4)
	TESTQ R10, R10
	JZ    blocksWindow
	LEAQ (R14)(BX*1), R13
	SHRQ $3, R13
	ORB  AL, (R10)(R13*1)

blocksWindow:
	BSFL AX, R13
	ADDQ BX, R13
	CMPQ R13, R9
	CMOVQLT R13, R9
	BSRL AX, R13
	LEAQ 1(BX)(R13*1), R11

blocksNext:
	INCQ R12
	JMP  blocksLoop

blocksDone:
	VZEROUPPER
	MOVQ R9, lo+64(FP)
	MOVQ R11, hi+72(FP)
	RET

// The grouped body: one row relaxed through k = 2..8 pivots in one pass.
// While nothing improves it runs one of seven loops, one per k, that keep
// pivot j's row pointer in a register (BX, DX, SI, R8-R12) and its add
// broadcast in Y8+j; each 32-lane iteration folds add_j + src_j into a
// running unsigned minimum (Y0-Y3) and compares that once with dst. A
// 32-lane group that improves, and the last n mod 32 lanes, go through the
// 8-lane replay, which reads the pivots from memory, checks the block's
// minimum first and then applies the pivots in order.

// GROUPFIRST and GROUPNEXT fold pivot (src, add) into the running minimum
// of the 32 lanes at element AX.
#define GROUPFIRST(src, add) \
	VPADDD   (src)(AX*4), add, Y0; \
	VPADDD 32(src)(AX*4), add, Y1; \
	VPADDD 64(src)(AX*4), add, Y2; \
	VPADDD 96(src)(AX*4), add, Y3

#define GROUPNEXT(src, add) \
	VPADDD   (src)(AX*4), add, Y4; \
	VPADDD 32(src)(AX*4), add, Y5; \
	VPADDD 64(src)(AX*4), add, Y6; \
	VPADDD 96(src)(AX*4), add, Y7; \
	VPMINUD  Y4, Y0, Y0; \
	VPMINUD  Y5, Y1, Y1; \
	VPMINUD  Y6, Y2, Y2; \
	VPMINUD  Y7, Y3, Y3

// GROUPKEEPS32 leaves the flags equal exactly when the running minimum is
// at least dst (DI) on all 32 lanes at element AX: no pivot improves them.
#define GROUPKEEPS32 \
	VPMAXUD   (DI)(AX*4), Y0, Y4; \
	VPMAXUD 32(DI)(AX*4), Y1, Y5; \
	VPMAXUD 64(DI)(AX*4), Y2, Y6; \
	VPMAXUD 96(DI)(AX*4), Y3, Y7; \
	VPCMPEQD Y0, Y4, Y4; \
	VPCMPEQD Y1, Y5, Y5; \
	VPCMPEQD Y2, Y6, Y6; \
	VPCMPEQD Y3, Y7, Y7; \
	VPAND    Y5, Y4, Y4; \
	VPAND    Y7, Y6, Y6; \
	VPAND    Y6, Y4, Y4; \
	VPMOVMSKB Y4, R14; \
	CMPL R14, $-1

// GROUPREPLAY applies the k pivots (row pointers at DX, state at R8) in
// order to the 8 lanes at element AX of dst (DI), lowering them in Y0 and
// storing once, and folds each pivot's improved lanes into its window. It
// has no data-dependent branch: which pivots improve which lanes of a
// replayed block is close to random, so the window update is made with
// conditional moves (BX, R10, R11 scratch). The label names its loop.
#define GROUPREPLAY(pivot) \
	VMOVDQU (DI)(AX*4), Y0; \
	XORQ R9, R9; \
pivot: \
	MOVQ (DX)(R9*8), R10; \
	VPBROADCASTD (R8)(R9*4), Y2; \
	VPADDD   (R10)(AX*4), Y2, Y2; \
	VPMINUD  Y0, Y2, Y3; \
	VPCMPEQD Y0, Y3, Y4; \
	VMOVDQU  Y3, Y0; \
	VMOVMSKPS Y4, R11; \
	XORL $0xff, R11; \
	MOVQ 32(R8)(R9*8), BX; \
	BSFL R11, R10; \
	ADDQ AX, R10; \
	CMPQ R10, BX; \
	CMOVQLT R10, BX; \
	TESTL R11, R11; \
	CMOVQEQ 32(R8)(R9*8), BX; \
	MOVQ BX, 32(R8)(R9*8); \
	MOVQ 96(R8)(R9*8), BX; \
	BSRL R11, R10; \
	LEAQ 1(AX)(R10*1), R10; \
	TESTL R11, R11; \
	CMOVQNE R10, BX; \
	MOVQ BX, 96(R8)(R9*8); \
	INCQ R9; \
	CMPQ R9, R13; \
	JLT  pivot; \
	VMOVDQU Y0, (DI)(AX*4)

// func groupAVX2(dst *int32, srcs *[8]*int32, st *groupState, k, n int)
//
// Relaxes dst[0:n) (n a positive multiple of 8) through the k pivots whose
// rows srcs[0:k] are aligned with dst, with st's adds (offset 0), in order
// per lane. Pivot j's changed window is folded into st's lo (offset 32)
// and hi (offset 96) as lo = min(lo, first), hi = last+1.
TEXT ·groupAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ st+16(FP), R14
	VPBROADCASTD 0(R14), Y8
	VPBROADCASTD 4(R14), Y9
	VPBROADCASTD 8(R14), Y10
	VPBROADCASTD 12(R14), Y11
	VPBROADCASTD 16(R14), Y12
	VPBROADCASTD 20(R14), Y13
	VPBROADCASTD 24(R14), Y14
	VPBROADCASTD 28(R14), Y15
	MOVQ k+24(FP), R13
	MOVQ n+32(FP), CX
	ANDQ $~31, CX           // end of the 32-lane groups
	XORQ AX, AX             // t, in elements

groupResume:
	CMPQ AX, CX
	JGE  groupNarrow
	MOVQ srcs+8(FP), R14
	MOVQ 0(R14), BX
	MOVQ 8(R14), DX
	MOVQ 16(R14), SI
	MOVQ 24(R14), R8
	MOVQ 32(R14), R9
	MOVQ 40(R14), R10
	MOVQ 48(R14), R11
	MOVQ 56(R14), R12
	CMPQ R13, $5
	JLT  groupLow
	JEQ  group5
	CMPQ R13, $7
	JLT  group6
	JEQ  group7
	JMP  group8

groupLow:
	CMPQ R13, $3
	JLT  group2
	JEQ  group3
	JMP  group4

group2:
	CMPQ AX, CX
	JGE  groupNarrow
	GROUPFIRST(BX, Y8)
	GROUPNEXT(DX, Y9)
	GROUPKEEPS32
	JNE  groupReplay32
	ADDQ $32, AX
	JMP  group2

group3:
	CMPQ AX, CX
	JGE  groupNarrow
	GROUPFIRST(BX, Y8)
	GROUPNEXT(DX, Y9)
	GROUPNEXT(SI, Y10)
	GROUPKEEPS32
	JNE  groupReplay32
	ADDQ $32, AX
	JMP  group3

group4:
	CMPQ AX, CX
	JGE  groupNarrow
	GROUPFIRST(BX, Y8)
	GROUPNEXT(DX, Y9)
	GROUPNEXT(SI, Y10)
	GROUPNEXT(R8, Y11)
	GROUPKEEPS32
	JNE  groupReplay32
	ADDQ $32, AX
	JMP  group4

group5:
	CMPQ AX, CX
	JGE  groupNarrow
	GROUPFIRST(BX, Y8)
	GROUPNEXT(DX, Y9)
	GROUPNEXT(SI, Y10)
	GROUPNEXT(R8, Y11)
	GROUPNEXT(R9, Y12)
	GROUPKEEPS32
	JNE  groupReplay32
	ADDQ $32, AX
	JMP  group5

group6:
	CMPQ AX, CX
	JGE  groupNarrow
	GROUPFIRST(BX, Y8)
	GROUPNEXT(DX, Y9)
	GROUPNEXT(SI, Y10)
	GROUPNEXT(R8, Y11)
	GROUPNEXT(R9, Y12)
	GROUPNEXT(R10, Y13)
	GROUPKEEPS32
	JNE  groupReplay32
	ADDQ $32, AX
	JMP  group6

group7:
	CMPQ AX, CX
	JGE  groupNarrow
	GROUPFIRST(BX, Y8)
	GROUPNEXT(DX, Y9)
	GROUPNEXT(SI, Y10)
	GROUPNEXT(R8, Y11)
	GROUPNEXT(R9, Y12)
	GROUPNEXT(R10, Y13)
	GROUPNEXT(R11, Y14)
	GROUPKEEPS32
	JNE  groupReplay32
	ADDQ $32, AX
	JMP  group7

group8:
	CMPQ AX, CX
	JGE  groupNarrow
	GROUPFIRST(BX, Y8)
	GROUPNEXT(DX, Y9)
	GROUPNEXT(SI, Y10)
	GROUPNEXT(R8, Y11)
	GROUPNEXT(R9, Y12)
	GROUPNEXT(R10, Y13)
	GROUPNEXT(R11, Y14)
	GROUPNEXT(R12, Y15)
	GROUPKEEPS32
	JNE  groupReplay32
	ADDQ $32, AX
	JMP  group8

// A 32-lane group that improves: Y0-Y3 still hold its running minima, so
// R14 gets one bit per lane some pivot improves and only the blocks with
// one replay.
groupReplay32:
	VPMAXUD    (DI)(AX*4), Y0, Y4
	VPMAXUD  32(DI)(AX*4), Y1, Y5
	VPMAXUD  64(DI)(AX*4), Y2, Y6
	VPMAXUD  96(DI)(AX*4), Y3, Y7
	VPCMPEQD Y0, Y4, Y4
	VPCMPEQD Y1, Y5, Y5
	VPCMPEQD Y2, Y6, Y6
	VPCMPEQD Y3, Y7, Y7
	VMOVMSKPS Y4, R14
	VMOVMSKPS Y5, R10
	SHLL $8, R10
	ORL  R10, R14
	VMOVMSKPS Y6, R10
	SHLL $16, R10
	ORL  R10, R14
	VMOVMSKPS Y7, R10
	SHLL $24, R10
	ORL  R10, R14
	NOTL R14
	LEAQ 32(AX), R12
	MOVQ srcs+8(FP), DX
	MOVQ st+16(FP), R8

groupBlock32:
	TESTL $0xff, R14
	JZ    groupBlock32Next
	GROUPREPLAY(groupPivot32)

groupBlock32Next:
	SHRL $8, R14
	ADDQ $8, AX
	CMPQ AX, R12
	JLT  groupBlock32
	JMP  groupResume

// The last n mod 32 lanes: each block's minimum over the pivots first.
groupNarrow:
	MOVQ n+32(FP), R12
	CMPQ AX, R12
	JGE  groupDone
	MOVQ srcs+8(FP), DX
	MOVQ st+16(FP), R8

groupBlock:
	VPCMPEQD Y6, Y6, Y6
	XORQ R9, R9

groupBlockMin:
	MOVQ (DX)(R9*8), R10
	VPBROADCASTD (R8)(R9*4), Y2
	VPADDD  (R10)(AX*4), Y2, Y2
	VPMINUD Y2, Y6, Y6
	INCQ R9
	CMPQ R9, R13
	JLT  groupBlockMin
	VPMAXUD  (DI)(AX*4), Y6, Y7
	VPCMPEQD Y6, Y7, Y7
	VPMOVMSKB Y7, R11
	CMPL R11, $-1
	JEQ  groupBlockNext
	GROUPREPLAY(groupPivot)

groupBlockNext:
	ADDQ $8, AX
	CMPQ AX, R12
	JLT  groupBlock
	JMP  groupDone

groupDone:
	VZEROUPPER
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
