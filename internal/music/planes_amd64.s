// 4-wide AVX2 bodies for the bin-parallel loops of packed.go and for
// the log table and window maximum of music.go.
//
// Every routine takes the leading len(p)&^3 bins of its loop (maxVec:
// all), four per instruction, and returns how many it finished; the Go
// loop it is called from takes the rest, and takes every bin when the
// routine returns 0 — which each does at once when useAVX2 is unset (a
// CPU without AVX2; the test hook). Contract, common to all:
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
// logVec           dst[i] = math.Log(max(src[i], floor)); dst may be src.
// maxVec           `if v > m { m = v }` over all of p, at least four bins.
// cpuHasAVX2       CPUID leaf 1 OSXSAVE and AVX, XCR0 bits 1–2 (the OS
//                  saves XMM and YMM state), CPUID leaf 7 AVX2.
//
// logVec is math.Log, four at a time. math.Log on amd64 is archLog
// ($GOROOT/src/math/log_amd64.s), a fixed run of MULSD / ADDSD / SUBSD /
// DIVSD; each instruction group below is headed by the archLog source line
// it transcribes, with archLog's constants (bit patterns in logK), operands
// and order, so a lane is math.Log's bits. Two steps are respelt, exactly:
// k = float64(exponent − 0x3FE) is the exponent field ORed into 2⁵², minus
// 2⁵² + 0x3FE; CMPSD's cmpnlt mask is VCMPPD's. archLog's special cases are
// not transcribed: logVec stops before the first group with a lane that,
// once clamped, is not a positive normal finite number, and the Go loop
// calls math.Log. If a toolchain ever changes math.Log on amd64,
// TestLogTableEqualsMathLog fails and this body is deleted, never patched.
//
// maxVec keeps eight lanes of m, seeded with the caller's. VMAXPD with v as
// first source and m as second is the if statement: it yields m unless
// v > m, so also when v is NaN, and no NaN enters m. A maximum of non-NaN
// values depends neither on the order of the comparisons nor on how often a
// value is compared — so the tail is the last four bins, overlapping the
// leading groups — except between −0 and +0, which are ==; and a log table
// holds no −0 (math.Log(1) is +0).

#include "textflag.h"

#define LT_OQ $0x11
#define GE_OQ $0x1d
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

// The constants of logVec, each on four lanes.
#define Q2(o, v) DATA logK<>+o(SB)/8, $v; DATA logK<>+o+8(SB)/8, $v
#define Q4(i, v) Q2(32*i, v); Q2(32*i+16, v)
#define K(i) logK<>+32*i(SB)
Q4(0, 0x0010000000000000); Q4(1, 0x7ff0000000000000) // the smallest normal, +Inf
Q4(2, 0x000fffffffffffff); Q4(3, 0x3fe0000000000000) // mantissa mask, 0.5
Q4(4, 0x4330000000000000); Q4(5, 0x43300000000003fe) // 2⁵², 2⁵² + 0x3FE
Q4(6, 0x3fe6a09e667f3bcd); Q4(7, 0x3ff0000000000000); Q4(8, 0x4000000000000000) // HSqrt2, 1, 2
Q4(9, 0x3fe5555555555593); Q4(10, 0x3fd999999997fa04) // L1, L2
Q4(11, 0x3fd2492494229359); Q4(12, 0x3fcc71c51d8e78af) // L3, L4
Q4(13, 0x3fc7466496cb03de); Q4(14, 0x3fc39a09d078c69f) // L5, L6
Q4(15, 0x3fc2f112df3e5244); Q4(16, 0x3dea39ef35793c76); Q4(17, 0x3fe62e42fee00000) // L7, Ln2Lo, Ln2Hi
GLOBL logK<>(SB), RODATA|NOPTR, $576

// func logVec(dst, src []float64, floor float64) int
TEXT ·logVec(SB), NOSPLIT, $0-64
	XORQ CX, CX
	CMPB ·useAVX2(SB), $0
	JEQ  out
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), AX
	ANDQ $~3, AX
	VBROADCASTSD floor+48(FP), Y7
loop:
	CMPQ CX, AX
	JGE  done
	VMOVUPD (SI)(CX*8), Y0
	VCMPPD LT_OQ, Y7, Y0, Y1 // if v < floor { v = floor }
	VBLENDVPD Y1, Y7, Y0, Y0
	VCMPPD GE_OQ, K(0), Y0, Y1 // positive, normal, finite: archLog's
	VCMPPD LT_OQ, K(1), Y0, Y2 // main path, or the group is the Go loop's
	VANDPD Y2, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPL BX, $15
	JNE  done
	// f1, ki := math.Frexp(x); k := float64(ki)
	VANDPD K(2), Y0, Y2
	VORPD  K(3), Y2, Y2 // f1
	VPSRLQ $52, Y0, Y1
	VORPD  K(4), Y1, Y1
	VSUBPD K(5), Y1, Y1 // k
	// if f1 < math.Sqrt2/2 { k -= 1; f1 *= 2 }
	VMOVUPD K(6), Y3
	VCMPPD $5, Y2, Y3, Y3 // cmpnlt: !(HSqrt2 < f1)
	VANDPD K(7), Y3, Y3 // 0 or 1
	VSUBPD Y3, Y1, Y1
	VADDPD K(7), Y3, Y3 // 1 or 2
	VMULPD Y3, Y2, Y2
	// f := f1 - 1; s := f / (2 + f)
	VSUBPD K(7), Y2, Y2
	VADDPD K(8), Y2, Y0
	VDIVPD Y0, Y2, Y3
	// s2 := s * s; s4 := s2 * s2
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD K(15), Y5, Y6
	VADDPD K(13), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD K(11), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD K(9), Y6, Y6
	VMULPD Y6, Y4, Y4
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD K(14), Y5, Y6
	VADDPD K(12), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD K(10), Y6, Y6
	VMULPD Y6, Y5, Y5
	// R := t1 + t2; hfsq := 0.5 * f * f
	VADDPD Y5, Y4, Y4
	VMULPD K(3), Y2, Y0
	VMULPD Y2, Y0, Y0
	// return k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y0, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD K(16), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y0, Y0
	VSUBPD Y2, Y0, Y0
	VMULPD K(17), Y1, Y1
	VSUBPD Y0, Y1, Y1
	VMOVUPD Y1, (DI)(CX*8)
	ADDQ $4, CX
	JMP  loop
done:
	VZEROUPPER
out:
	MOVQ CX, ret+56(FP)
	RET

// func maxVec(p []float64, m float64) (n int, max float64)
TEXT ·maxVec(SB), NOSPLIT, $0-48
	MOVQ m+24(FP), AX
	MOVQ AX, max+40(FP)
	XORQ AX, AX
	CMPB ·useAVX2(SB), $0
	JEQ  out
	MOVQ p_base+0(FP), SI
	MOVQ p_len+8(FP), AX
	VBROADCASTSD m+24(FP), Y4
	VMOVUPD -32(SI)(AX*8), Y5 // the tail: the last four bins
	VMAXPD Y4, Y5, Y5
	XORQ CX, CX
loop8:
	LEAQ 8(CX), BX
	CMPQ BX, AX
	JGT  last4
	VMOVUPD (SI)(CX*8), Y0
	VMOVUPD 32(SI)(CX*8), Y1
	VMAXPD Y4, Y0, Y4 // v > m ? v : m
	VMAXPD Y5, Y1, Y5
	MOVQ BX, CX
	JMP  loop8
last4:
	LEAQ 4(CX), BX
	CMPQ BX, AX
	JGT  reduce
	VMOVUPD (SI)(CX*8), Y0
	VMAXPD Y4, Y0, Y4
reduce:
	VMAXPD Y5, Y4, Y4
	VEXTRACTF128 $1, Y4, X0
	VMAXPD X0, X4, X4
	VPERMILPD $1, X4, X0
	VMAXSD X0, X4, X4
	VMOVSD X4, max+40(FP)
	VZEROUPPER
out:
	MOVQ AX, n+32(FP)
	RET
