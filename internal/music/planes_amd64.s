// 4-wide AVX2 bodies for the bin-parallel loops of packed.go.
//
// Every routine takes the leading len(p)&^3 bins of its loop, four per
// instruction, and returns how many it finished; the Go loop it is
// called from takes the rest, and takes every bin when the routine
// returns 0 — which each does at once when useAVX2 is unset (a CPU
// without AVX2; the test hook). Contract, common to all:
//
//   - A lane performs exactly the Go loop's operations, in the Go
//     loop's order: separate VMULPD / VSUBPD / VADDPD / VDIVPD, each
//     rounding once as MULSD / SUBSD / ADDSD / DIVSD do. No FMA, no
//     reassociation, no reciprocal approximation. Lanes never mix, so
//     p[i] is the bits the Go loop writes (TestPlaneKernelsMatchGo).
//   - An `if x < y` is VCMPPD with the ordered, quiet predicate (false
//     on NaN, like the Go comparison) and a VBLENDVPD on its mask, so
//     NaN, ±Inf and −0 lanes leave as the if statement leaves them.
//   - Loads and stores are unaligned (VMOVUPD / memory operands); the
//     routines keep no state, touch no stack, and end in VZEROUPPER.
//   - The caller guarantees the slice lengths the Go loop would index:
//     every bin plane at least len(p) long, the steering planes at
//     least (len(cRe)−1)·stride + len(p).
//
// planeSumsVec     p[i] = c0 + Σ_d (cRe[d]·re[d·stride+i] − cIm[d]·im[d·stride+i]),
//                  terms added in order d; all terms of four bins are
//                  taken in registers, which is the sum planeSums'
//                  fused-six and one-term passes both produce.
// musicFinishVec   musicWithTable's finishing pass: clamp at 1e-12,
//                  reciprocal, running maximum (seeded with max). It
//                  stops before the first group of four holding a bin
//                  under guard and leaves that group untouched for the
//                  scalar body, which alone recomputes and counts.
// divVec           p[i] /= m.
// voteCombineVec   p[i] += er·sre[i] + ei·sim[i] + ree·(er² + ei²),
//                  er, ei = re[i], im[i]; then p[i] = 0 where p[i] < 0.
// cpuHasAVX2       CPUID leaf 1 OSXSAVE and AVX, XCR0 bits 1–2 (the OS
//                  saves XMM and YMM state), CPUID leaf 7 AVX2.

#include "textflag.h"

#define LT_OQ $0x11
#define GT_OQ $0x1e

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (27) and AVX (28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX // AVX2
	SETCS ret+0(FP)
no:
	RET

// func planeSumsVec(p []float64, c0 float64, cRe, cIm, re, im []float64, stride int) int
TEXT ·planeSumsVec(SB), NOSPLIT, $0-144
	CMPB ·useAVX2(SB), $0
	JEQ  none
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), AX
	ANDQ $~3, AX
	MOVQ cRe_base+32(FP), R8
	MOVQ cRe_len+40(FP), R9
	MOVQ cIm_base+56(FP), R10
	MOVQ re_base+80(FP), SI
	MOVQ im_base+104(FP), DX
	MOVQ stride+128(FP), R11
	SHLQ $3, R11 // bytes from one column to the next
	VBROADCASTSD c0+24(FP), Y0
	XORQ CX, CX
bins8:
	LEAQ 8(CX), BX
	CMPQ BX, AX
	JGT  bins4
	VMOVAPD Y0, Y1
	VMOVAPD Y0, Y4
	LEAQ (SI)(CX*8), R12
	LEAQ (DX)(CX*8), R13
	XORQ BX, BX
	TESTQ R9, R9
	JEQ  store8
terms8:
	VBROADCASTSD (R8)(BX*8), Y2
	VBROADCASTSD (R10)(BX*8), Y3
	VMULPD (R12), Y2, Y5
	VMULPD (R13), Y3, Y6
	VSUBPD Y6, Y5, Y5 // cRe·re − cIm·im
	VADDPD Y5, Y1, Y1
	VMULPD 32(R12), Y2, Y5
	VMULPD 32(R13), Y3, Y6
	VSUBPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4
	ADDQ R11, R12
	ADDQ R11, R13
	INCQ BX
	CMPQ BX, R9
	JLT  terms8
store8:
	VMOVUPD Y1, (DI)(CX*8)
	VMOVUPD Y4, 32(DI)(CX*8)
	ADDQ $8, CX
	JMP  bins8
bins4:
	CMPQ CX, AX
	JGE  done
	VMOVAPD Y0, Y1
	LEAQ (SI)(CX*8), R12
	LEAQ (DX)(CX*8), R13
	XORQ BX, BX
	TESTQ R9, R9
	JEQ  store4
terms4:
	VBROADCASTSD (R8)(BX*8), Y2
	VBROADCASTSD (R10)(BX*8), Y3
	VMULPD (R12), Y2, Y2
	VMULPD (R13), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VADDPD Y2, Y1, Y1
	ADDQ R11, R12
	ADDQ R11, R13
	INCQ BX
	CMPQ BX, R9
	JLT  terms4
store4:
	VMOVUPD Y1, (DI)(CX*8)
	ADDQ $4, CX
done:
	VZEROUPPER
	MOVQ AX, ret+136(FP)
	RET
none:
	MOVQ $0, ret+136(FP)
	RET

// func musicFinishVec(p []float64, guard, max float64) (n int, m float64)
TEXT ·musicFinishVec(SB), NOSPLIT, $0-56
	CMPB ·useAVX2(SB), $0
	JEQ  none
	XORQ CX, CX
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), AX
	ANDQ $~3, AX
	VBROADCASTSD guard+24(FP), Y5
	VBROADCASTSD max+32(FP), Y4
	MOVQ $0x3d719799812dea11, BX // 1e-12
	VMOVQ BX, X6
	VBROADCASTSD X6, Y6
	MOVQ $0x3ff0000000000000, BX // 1
	VMOVQ BX, X7
	VBROADCASTSD X7, Y7
loop:
	CMPQ CX, AX
	JGE  reduce
	VMOVUPD (DI)(CX*8), Y0
	VCMPPD LT_OQ, Y5, Y0, Y1 // denom < guard: the scalar body's group
	VMOVMSKPD Y1, BX
	TESTL BX, BX
	JNZ  reduce
	VCMPPD LT_OQ, Y6, Y0, Y1 // if denom < 1e-12 { denom = 1e-12 }
	VBLENDVPD Y1, Y6, Y0, Y0
	VDIVPD Y0, Y7, Y0 // v = 1 / denom
	VCMPPD GT_OQ, Y4, Y0, Y1 // if v > max { max = v }
	VBLENDVPD Y1, Y0, Y4, Y4
	VMOVUPD Y0, (DI)(CX*8)
	ADDQ $4, CX
	JMP  loop
reduce:
	// No lane of the maximum is NaN (a NaN v never passes v > max), so
	// the order the four are compared in cannot change the result.
	VEXTRACTF128 $1, Y4, X0
	VMAXPD X0, X4, X4
	VPERMILPD $1, X4, X0
	VMAXSD X0, X4, X4
	VMOVSD X4, m+48(FP)
	VZEROUPPER
	MOVQ CX, n+40(FP)
	RET
none:
	MOVQ max+32(FP), AX
	MOVQ AX, m+48(FP)
	MOVQ $0, n+40(FP)
	RET

// func divVec(p []float64, m float64) int
TEXT ·divVec(SB), NOSPLIT, $0-40
	CMPB ·useAVX2(SB), $0
	JEQ  none
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), AX
	ANDQ $~3, AX
	VBROADCASTSD m+24(FP), Y1
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVUPD (DI)(CX*8), Y0
	VDIVPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)(CX*8)
	ADDQ $4, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET
none:
	MOVQ $0, ret+32(FP)
	RET

// func voteCombineVec(p, sre, sim, re, im []float64, ree float64) int
TEXT ·voteCombineVec(SB), NOSPLIT, $0-136
	CMPB ·useAVX2(SB), $0
	JEQ  none
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), AX
	ANDQ $~3, AX
	MOVQ sre_base+24(FP), R8
	MOVQ sim_base+48(FP), R9
	MOVQ re_base+72(FP), SI
	MOVQ im_base+96(FP), DX
	VBROADCASTSD ree+120(FP), Y5
	VXORPD Y6, Y6, Y6
	XORQ CX, CX
loop:
	CMPQ CX, AX
	JGE  done
	VMOVUPD (SI)(CX*8), Y0 // er
	VMOVUPD (DX)(CX*8), Y1 // ei
	VMULPD (R8)(CX*8), Y0, Y2
	VMULPD (R9)(CX*8), Y1, Y3
	VADDPD Y3, Y2, Y2 // er·sre + ei·sim
	VMULPD Y0, Y0, Y0
	VMULPD Y1, Y1, Y1
	VADDPD Y1, Y0, Y0 // er² + ei²
	VMULPD Y0, Y5, Y0
	VADDPD Y0, Y2, Y2
	VMOVUPD (DI)(CX*8), Y3
	VADDPD Y2, Y3, Y3 // p[i] + (…)
	VCMPPD LT_OQ, Y6, Y3, Y1 // if v < 0 { v = 0 }
	VBLENDVPD Y1, Y6, Y3, Y3
	VMOVUPD Y3, (DI)(CX*8)
	ADDQ $4, CX
	JMP  loop
done:
	VZEROUPPER
	MOVQ AX, ret+128(FP)
	RET
none:
	MOVQ $0, ret+128(FP)
	RET
