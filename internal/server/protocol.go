package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file holds the wire's sample arithmetic — how one capture's
// I/Q samples become int16 pairs under a float32 scale and back — and
// the limits and errors the decoders share; the frame layout itself is
// in batch.go.

// Encoding limits. A record never legitimately exceeds these; they
// bound allocation when decoding untrusted input.
const (
	MaxAntennas = 64
	MaxSamples  = 4096
)

var (
	// ErrBadMagic means the stream is not an ArrayTrack sample feed.
	ErrBadMagic = errors.New("server: bad protocol magic")
	// ErrTooLarge means a frame header declared an implausible size.
	ErrTooLarge = errors.New("server: record exceeds protocol limits")
)

// ErrBadSamples means a capture's samples cannot be carried by the
// fixed-point payload: one is NaN or ±Inf, or the record's peak lies
// beyond the float32 scale field. Encoders return it instead of writing
// a record whose scale or samples would be garbage on the wire.
var ErrBadSamples = errors.New("server: samples not representable on the wire")

// captureDims validates a capture's stream geometry and returns its
// dimensions.
func captureDims(c *Capture) (nAnt, nSamp int, err error) {
	nAnt = len(c.Streams)
	if nAnt == 0 || nAnt > MaxAntennas {
		return 0, 0, fmt.Errorf("%w: %d antennas", ErrTooLarge, nAnt)
	}
	nSamp = len(c.Streams[0])
	if nSamp == 0 || nSamp > MaxSamples {
		return 0, 0, fmt.Errorf("%w: %d samples", ErrTooLarge, nSamp)
	}
	for _, st := range c.Streams[1:] {
		if len(st) != nSamp {
			return 0, 0, errors.New("server: ragged antenna streams")
		}
	}
	return nAnt, nSamp, nil
}

// samplePeak returns the quantization peak of a record: the largest
// |I| or |Q| over all streams, 1 for an all-zero record, and never
// below the smallest scale a float32 can carry. The scan compares
// sign-cleared IEEE bit patterns as integers — the same order as the
// magnitudes, with every NaN above +Inf — so one pass both finds the
// peak and proves every sample finite.
func samplePeak(streams [][]complex128) (float64, error) {
	const signBit = 1 << 63
	var mi, mq uint64
	for _, st := range streams {
		for _, v := range st {
			mi = max(mi, math.Float64bits(real(v))&^signBit)
			mq = max(mq, math.Float64bits(imag(v))&^signBit)
		}
	}
	peak := math.Float64frombits(max(mi, mq))
	switch {
	case peak == 0:
		return 1, nil
	case !(peak <= math.MaxFloat32):
		// A NaN or ±Inf sample, or a peak past the scale field's range.
		return 0, ErrBadSamples
	case peak < math.SmallestNonzeroFloat32:
		// The scale field would round to zero, which decoders refuse.
		return math.SmallestNonzeroFloat32, nil
	}
	return peak, nil
}

// growSlice extends dst by n bytes in place, reallocating only when
// the capacity runs out, and returns the extended slice.
func growSlice(dst []byte, n int) []byte {
	l := len(dst)
	if cap(dst)-l >= n {
		return dst[:l+n]
	}
	nd := make([]byte, l+n, 2*(l+n))
	copy(nd, dst)
	return nd
}

// quantizeRef is the wire's definition of a sample component: the
// nearest int16 step of x at full scale peak, halves away from zero.
func quantizeRef(x, peak float64) int16 {
	return int16(math.Round(x / peak * 32767))
}

// dequantRef is the wire's definition of a decoded component: the int16
// bits u as a fraction of full scale, times the capture's scale. The
// decode table is built from it, and the decoders are tested against it
// (TestDequantMatchesReference).
func dequantRef(u uint16, scale float64) float64 {
	return float64(int16(u)) / 32767 * scale
}

// quantizePayloadRef is the retained reference loop: quantizeRef on
// every component, as all encoders ran before quantizePayload. It is
// what the kernel's bytes are tested against.
func quantizePayloadRef(dst []byte, streams [][]complex128, peak float64) {
	for _, st := range streams {
		for _, v := range st {
			binary.BigEndian.PutUint16(dst, uint16(quantizeRef(real(v), peak)))
			binary.BigEndian.PutUint16(dst[2:], uint16(quantizeRef(imag(v), peak)))
			dst = dst[4:]
		}
	}
}

const (
	// roundShift is 1.5·2⁵²: adding it to |t| < 2⁵¹ leaves a float
	// whose unit in the last place is 1, so the sum is t rounded to the
	// nearest integer, and subtracting it again recovers that integer.
	roundShift = 3 << 51
	// quantGuard bounds the squared distance from x·k to its nearest
	// integer under which the fast form is trusted: (0.5 − 1e-6)².
	quantGuard = 0.249999
)

// quantizePayload writes the int16 I/Q quantization of streams into
// dst (4 bytes per sample, len(dst) covering every stream) and returns
// how many samples took the guard's reference path.
//
// The wire value of a component is quantizeRef(x, peak): two divisions
// and two software math.Round calls per sample. The loop computes
// t = x·k with k = 32767/peak once per record, rounds by the shift
// trick, and keeps the result only while t sits more than 1e-6 from a
// rounding boundary. t and the reference product x/peak·32767 differ
// by under 3e-11 (three roundings of magnitudes ≤ 32767), so away from
// a boundary both round to the same integer; within the guard — and
// for a NaN, or a k that overflowed on a subnormal peak — the sample
// is recomputed by quantizeRef. Ties, the only place the shift's
// half-to-even and math.Round's half-away disagree, always land there,
// so the bytes equal the reference loop's by construction
// (TestQuantizerMatchesReference, FuzzQuantizeMatchesReference).
func quantizePayload(dst []byte, streams [][]complex128, peak float64) (fallbacks int) {
	k := 32767 / peak
	for _, st := range streams {
		out := dst[:4*len(st)]
		dst = dst[4*len(st):]
		for _, v := range st {
			// The conversions keep a fused multiply-add from skipping
			// the product's own rounding.
			ti, tq := float64(real(v)*k), float64(imag(v)*k)
			ri, rq := (ti+roundShift)-roundShift, (tq+roundShift)-roundShift
			di, dq := ti-ri, tq-rq
			if di*di < quantGuard && dq*dq < quantGuard {
				binary.BigEndian.PutUint32(out, uint32(uint16(int32(ri)))<<16|uint32(uint16(int32(rq))))
			} else {
				fallbacks++
				binary.BigEndian.PutUint32(out, uint32(uint16(quantizeRef(real(v), peak)))<<16|uint32(uint16(quantizeRef(imag(v), peak))))
			}
			out = out[4:]
		}
	}
	return fallbacks
}

// readScale reads a record's float32 scale field and reports whether it
// is usable. A scale that is not finite and positive is refused with
// errBadScale: no encoder writes one (an all-zero record carries 1),
// and it would decode into NaN or ±Inf streams that fail the whole fix
// downstream instead of the sender's frame here.
func readScale(b []byte) (float64, bool) {
	scale := math.Float32frombits(binary.BigEndian.Uint32(b))
	return float64(scale), scale > 0 && scale <= math.MaxFloat32
}

func errBadScale(scale float64) error {
	return fmt.Errorf("%w: sample scale %v", ErrBadFrame, scale)
}

// errSampleRange refuses a payload with a sample that would decode
// beyond the float32 range. The largest magnitude a record decodes to
// is the scale of its re-encoding, so without the refusal a capture
// could decode and then never be encoded again — failing when a
// rebalance extracts it from a shard's pending groups instead of at the
// AP that sent it. The frame parse runs it, so a router refuses such a
// frame just as a backend does. Only an int16 of -32768
// (one step past full scale, which no encoder writes) under a scale in
// the top 1/32768th of the range gets there: decoders scan a payload
// (hasMinInt16) only when its scale is that high (pastFullScale).
var errSampleRange = fmt.Errorf("%w: sample beyond the float32 range", ErrBadFrame)

// pastFullScale reports whether an int16 of -32768 decodes, at scale,
// to a magnitude beyond the float32 range.
func pastFullScale(scale float64) bool {
	return scale*(32768.0/32767) > math.MaxFloat32
}

// hasMinInt16 reports whether any big-endian int16 of payload is -32768.
func hasMinInt16(payload []byte) bool {
	for o := 0; o+1 < len(payload); o += 2 {
		if payload[o] == 0x80 && payload[o+1] == 0 {
			return true
		}
	}
	return false
}
