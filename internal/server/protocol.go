package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// Wire protocol: each capture travels as one length-prefixed record.
//
//	magic    uint32  'A''T' + version tag (1 or 2)
//	apID     uint32
//	clientID uint32
//	seq      uint32
//	tstampUS uint64  microseconds since Unix epoch
//	scale    float32 amplitude of a full-scale int16 sample
//	nAnt     uint16
//	nSamp    uint16
//	-- version 2 only --
//	flags    uint8   bit0 = has region, bit1 = priority
//	region   5 × float64  minX minY maxX maxY cell (big-endian bits)
//	-- all versions --
//	payload  nAnt × nSamp × (int16 I, int16 Q)
//
// Samples are 32 bits each — 16-bit I plus 16-bit Q — matching the
// paper's "(10 samples)(32 bits/sample)(8 radios)" overhead arithmetic
// (§4.3.3, §4.4). A per-record scale factor preserves absolute
// amplitude despite the fixed-point encoding.
//
// Version 2 extends a record with an ad-hoc search region (the
// per-request bounding box the backend threads into synthesis) and a
// latency-priority flag. Writers emit version 1 whenever neither is
// set, so v1 readers keep working for plain sample feeds; readers
// accept both. A v2 record whose region fails core-side validation
// (NaN/Inf corners, inverted or degenerate boxes, out-of-range cell
// pitches) is rejected at decode with ErrBadRegion — hostile bytes
// never reach the localization engine.

const (
	protocolMagic   = 0x41540001 // "AT" + version 1
	protocolMagicV2 = 0x41540002 // "AT" + version 2: region + priority
)

// regionExtSize is the v2 header extension: flags byte plus five
// float64 region fields.
const regionExtSize = 1 + 5*8

const (
	flagHasRegion = 1 << 0
	flagPriority  = 1 << 1
)

// Encoding limits. A record never legitimately exceeds these; they
// bound allocation when decoding untrusted input.
const (
	MaxAntennas = 64
	MaxSamples  = 4096
)

var (
	// ErrBadMagic means the stream is not an ArrayTrack sample feed.
	ErrBadMagic = errors.New("server: bad protocol magic")
	// ErrTooLarge means a record header declared an implausible size.
	ErrTooLarge = errors.New("server: record exceeds protocol limits")
	// ErrBadRegion means a v2 record carried a malformed search
	// region (it wraps the core-side validation error).
	ErrBadRegion = errors.New("server: bad search region")
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

// AppendCapture appends c's wire encoding (a v1 record, or v2 when a
// region or priority flag is set) to dst and returns the extended
// slice. It is the allocation-free building block behind WriteCapture:
// callers that reuse dst across records encode with zero per-record
// allocations.
func AppendCapture(dst []byte, c *Capture) ([]byte, error) {
	nAnt, nSamp, err := captureDims(c)
	if err != nil {
		return dst, err
	}
	peak, err := samplePeak(c.Streams)
	if err != nil {
		return dst, err
	}
	v2 := !c.Region.IsZero() || c.Priority
	size := 32
	if v2 {
		size += regionExtSize
		if err := c.Region.Validate(); err != nil {
			return dst, fmt.Errorf("%w: %v", ErrBadRegion, err)
		}
	}
	base := len(dst)
	dst = growSlice(dst, size+nAnt*nSamp*4)
	head := dst[base:]
	magic := uint32(protocolMagic)
	if v2 {
		magic = protocolMagicV2
	}
	binary.BigEndian.PutUint32(head[0:], magic)
	binary.BigEndian.PutUint32(head[4:], c.APID)
	binary.BigEndian.PutUint32(head[8:], c.ClientID)
	binary.BigEndian.PutUint32(head[12:], c.Seq)
	binary.BigEndian.PutUint64(head[16:], uint64(c.Timestamp.UnixMicro()))
	binary.BigEndian.PutUint32(head[24:], math.Float32bits(float32(peak)))
	binary.BigEndian.PutUint16(head[28:], uint16(nAnt))
	binary.BigEndian.PutUint16(head[30:], uint16(nSamp))
	if v2 {
		var flags byte
		if !c.Region.IsZero() {
			flags |= flagHasRegion
		}
		if c.Priority {
			flags |= flagPriority
		}
		head[32] = flags
		binary.BigEndian.PutUint64(head[33:], math.Float64bits(c.Region.Min.X))
		binary.BigEndian.PutUint64(head[41:], math.Float64bits(c.Region.Min.Y))
		binary.BigEndian.PutUint64(head[49:], math.Float64bits(c.Region.Max.X))
		binary.BigEndian.PutUint64(head[57:], math.Float64bits(c.Region.Max.Y))
		binary.BigEndian.PutUint64(head[65:], math.Float64bits(c.Region.Cell))
	}
	quantizePayload(head[size:], c.Streams, peak)
	return dst, nil
}

// encodeBufPool recycles encoder scratch across WriteCapture and
// WriteBatch calls: the seed writer allocated a fresh head and payload
// buffer per record, which dominated the AP-side upload profile.
var encodeBufPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteCapture encodes c to w in wire format — one Write call per
// record, from a pooled buffer (no per-record allocations steady
// state).
func WriteCapture(w io.Writer, c *Capture) error {
	bp := encodeBufPool.Get().(*[]byte)
	buf, err := AppendCapture((*bp)[:0], c)
	if err == nil {
		_, err = w.Write(buf)
	}
	*bp = buf
	encodeBufPool.Put(bp)
	return err
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
// could decode and then never be encoded again — failing in a router's
// forward instead of at the AP that sent it. Only an int16 of -32768
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

// ReadCapture decodes one record from r. io.EOF is returned unchanged
// at a clean record boundary.
func ReadCapture(r io.Reader) (*Capture, error) {
	head := make([]byte, 32)
	if _, err := io.ReadFull(r, head); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("server: short header: %w", err)
	}
	magic := binary.BigEndian.Uint32(head[0:])
	if magic != protocolMagic && magic != protocolMagicV2 {
		return nil, ErrBadMagic
	}
	c := &Capture{
		APID:      binary.BigEndian.Uint32(head[4:]),
		ClientID:  binary.BigEndian.Uint32(head[8:]),
		Seq:       binary.BigEndian.Uint32(head[12:]),
		Timestamp: time.UnixMicro(int64(binary.BigEndian.Uint64(head[16:]))).UTC(),
	}
	scale, ok := readScale(head[24:])
	if !ok {
		return nil, errBadScale(scale)
	}
	nAnt := int(binary.BigEndian.Uint16(head[28:]))
	nSamp := int(binary.BigEndian.Uint16(head[30:]))
	if nAnt == 0 || nAnt > MaxAntennas || nSamp == 0 || nSamp > MaxSamples {
		return nil, ErrTooLarge
	}
	if magic == protocolMagicV2 {
		ext := make([]byte, regionExtSize)
		if _, err := io.ReadFull(r, ext); err != nil {
			return nil, fmt.Errorf("server: short region extension: %w", err)
		}
		flags := ext[0]
		if flags&^(flagHasRegion|flagPriority) != 0 {
			return nil, fmt.Errorf("%w: unknown flags %#x", ErrBadRegion, flags)
		}
		c.Priority = flags&flagPriority != 0
		region := core.Region{
			Min:  geom.Pt(math.Float64frombits(binary.BigEndian.Uint64(ext[1:])), math.Float64frombits(binary.BigEndian.Uint64(ext[9:]))),
			Max:  geom.Pt(math.Float64frombits(binary.BigEndian.Uint64(ext[17:])), math.Float64frombits(binary.BigEndian.Uint64(ext[25:]))),
			Cell: math.Float64frombits(binary.BigEndian.Uint64(ext[33:])),
		}
		if flags&flagHasRegion != 0 {
			// A present region must be well-formed and non-zero: NaN or
			// Inf corners, inverted/degenerate boxes, and out-of-range
			// pitches are rejected here, before the bytes ever reach the
			// grouping backend or the engine.
			if region.IsZero() {
				return nil, fmt.Errorf("%w: region flag set on zero box", ErrBadRegion)
			}
			if err := region.Validate(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadRegion, err)
			}
			c.Region = region
		} else if region != (core.Region{}) {
			return nil, fmt.Errorf("%w: region bytes without region flag", ErrBadRegion)
		}
	}
	payload := make([]byte, nAnt*nSamp*4)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("server: short payload: %w", err)
	}
	if pastFullScale(scale) && hasMinInt16(payload) {
		return nil, errSampleRange
	}
	c.Streams = make([][]complex128, nAnt)
	off := 0
	for a := 0; a < nAnt; a++ {
		st := make([]complex128, nSamp)
		for s := 0; s < nSamp; s++ {
			i16 := int16(binary.BigEndian.Uint16(payload[off:]))
			q16 := int16(binary.BigEndian.Uint16(payload[off+2:]))
			st[s] = complex(float64(i16)/32767*scale, float64(q16)/32767*scale)
			off += 4
		}
		c.Streams[a] = st
	}
	return c, nil
}

// RecordSize returns the on-wire size in bytes of a version-1 capture
// with the given dimensions — the quantity behind §4.4's
// serialization-time estimate. A version-2 record (region query or
// priority fix) adds RegionExtSize bytes.
func RecordSize(nAnt, nSamp int) int { return 32 + nAnt*nSamp*4 }

// RegionExtSize is the extra on-wire bytes of a version-2 record: the
// flags byte plus the five float64 region fields.
const RegionExtSize = regionExtSize
