package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// The wire protocol: an AP ships its captures to the backend in
// length-prefixed frames of up to MaxBatchCaptures each, so the server
// ingests a burst with a single ReadFull and the AP ships it with a
// single Write (one syscall — the batched-RX idiom of user-space fast
// paths, applied to the sample feed of §4.4).
//
//	frame header (12 bytes):
//	  magic    uint32  'A''T' + version 3
//	  bodyLen  uint32  bytes that follow the header
//	  count    uint16  captures in the frame (1..MaxBatchCaptures)
//	  fflags   uint16  reserved: must be zero
//	body (bodyLen bytes):
//	  count sub-headers, back to back:
//	    apID     uint32
//	    clientID uint32
//	    seq      uint32
//	    tstampUS uint64  microseconds since the Unix epoch
//	    scale    float32 amplitude of a full-scale int16 sample
//	    nAnt     uint16
//	    nSamp    uint16
//	    flags    uint8   reserved: must be zero
//	  contiguous payloads, capture order: nAnt × nSamp × (int16 I, int16 Q)
//
// Samples are 32 bits each — 16-bit I plus 16-bit Q — matching the
// paper's "(10 samples)(32 bits/sample)(8 radios)" overhead arithmetic
// (§4.3.3, §4.4). A per-capture scale factor preserves absolute
// amplitude despite the fixed-point encoding. Versions 1 and 2, one
// record per capture, are retired: their magic is ErrBadMagic. So are
// the sub-header's region box and priority flag (bits 0 and 1): a set
// flag bit is ErrBadFrame, like a set frame-flag bit.
//
// The body length, capture count, sub-header dimensions, and payload
// bytes must be mutually consistent to the byte — a lying count, an
// oversized sub-header, or a truncated payload fails decode with
// ErrBadFrame before any sample is touched: hostile bytes never reach
// the localization engine. Validation is one parse (ReadFrame,
// ParseFrame) that locates every capture's sub-header and payload in
// the frame without touching a sample; a router splits frames by owner
// on that parse alone (AppendSplice). Decoding is zero-copy and pooled:
// ReadFrameInto parses into an IngestWorkspace whose flat sample
// backing and capture structs are reused frame after frame (grown,
// never shrunk), and every decoded Capture carries a reference on its
// workspace that the consumer drops with Release. Every encoder runs
// the one guarded quantizer (quantizePayload, whose fast form hands any
// value within 1e-6 of a rounding boundary to quantizeRef), and the
// decoder multiplies by a table of dequantRef's quotients.
//
// A capture decoded from a stream also remembers the payload bytes it
// came from (they sit in the workspace's frame buffer for as long as
// the lease lasts). Encoding it again — a pending-group extraction
// moving it to another shard — copies those bytes and their scale field
// instead of scanning for a peak and re-quantizing 5760 samples, and so
// reproduces what the AP sent to the byte. The samples of a leased
// capture are therefore read-only. One
// whose Streams were re-sliced to another shape or pointed at other
// memory, or that was released, or that came from a datagram (whose
// buffer the caller reuses), goes through the quantizer like any other;
// a sample overwritten in place is the one edit the encoder cannot see.

const (
	// batchMagic tags a version-3 batch frame.
	batchMagic = 0x41540003
	// frameHeadSize is the fixed v3 frame header.
	frameHeadSize = 12
	// subHeadSize is one per-capture sub-header.
	subHeadSize = 29
)

// MaxBatchCaptures bounds the captures one frame may carry.
const MaxBatchCaptures = 1024

// MaxFrameBytes bounds a frame body when decoding untrusted input: a
// hostile bodyLen can make the reader allocate at most this much.
const MaxFrameBytes = 8 << 20

// MaxDatagramBytes is the largest batch frame that fits a UDP
// datagram (65535 minus the UDP/IP headers); APNode.Upload over UDP
// takes it as UploadOptions.FrameBytes.
const MaxDatagramBytes = 65507

// ErrBadFrame means a v3 batch frame's header, sub-headers, and
// payload do not describe the same bytes.
var ErrBadFrame = fmt.Errorf("server: malformed batch frame")

// SubRecord locates one capture of a parsed frame in the frame's bytes:
// its sub-header and its payload. ParseFrame and
// ReadFrame fill one per capture; the decoder reads samples through
// them, and a router splices them into per-owner frames (AppendSplice)
// without reading a sample at all.
type SubRecord struct {
	// ClientID is the capture's client, read from its sub-header.
	ClientID uint32
	// sub and pay are the offsets of the sub-header and the payload in
	// the frame.
	sub, pay    int
	scale       float64
	nAnt, nSamp int
}

func (s *SubRecord) payLen() int { return 4 * s.nAnt * s.nSamp }

// Frame is one v3 frame read and validated but not decoded: its bytes
// as received and where each capture lies in them. ReadFrame and
// ParseFrame refuse exactly the bytes ReadFrameInto and
// DecodeDatagramInto refuse, with the same errors: both decoders parse
// through them.
type Frame struct {
	// Bytes is the whole frame: the 12-byte head, then the body.
	Bytes []byte
	// Subs lists the frame's captures in wire order.
	Subs []SubRecord
}

// IngestWorkspace owns the reusable backing store for pooled decode:
// one frame read buffer, one flat complex128 sample array sliced per
// antenna, and the capture structs themselves. Workspaces are
// refcounted — each decoded Capture holds one reference, dropped by
// Capture.Release — and return to the package pool when the last
// capture of a frame is released, so steady-state ingest recycles the
// same few workspaces with no per-capture allocation. Buffers grow to
// the largest frame seen and never shrink.
type IngestWorkspace struct {
	// raw is the frame last read from a stream; its Subs also describe a
	// datagram's captures after a datagram decode.
	raw      Frame
	samples  []complex128
	streams  [][]complex128
	captures []Capture
	// wire is the frame last decoded from a stream (raw.Bytes, which
	// nothing overwrites while a capture of it is leased); nil after a
	// datagram decode, whose buffer is the caller's.
	wire []byte
	refs atomic.Int32
}

var ingestPool = sync.Pool{New: func() any { return new(IngestWorkspace) }}

// leasedWorkspaces counts workspaces currently out of the pool —
// fetched by GetIngestWorkspace and not yet returned via Discard or
// the final capture Release. It is the pool-leak invariant the fault
// tests assert: once every in-flight flush has completed, the gauge
// must be back at zero, whatever connections died or groups went
// stale along the way.
var leasedWorkspaces atomic.Int64

// LeasedIngestWorkspaces returns the number of ingest workspaces
// currently leased from the pool. Zero in a quiescent process; a
// steady positive residue after drain means some path dropped a flush
// without releasing its captures.
func LeasedIngestWorkspaces() int64 { return leasedWorkspaces.Load() }

// dequantLUT maps raw int16 bits to dequantRef's quotient at unit
// scale, so decoding multiplies by the capture's scale and skips a
// float division per component (the hottest operation in the ingest
// profile; 512 KiB, built once).
var dequantLUT [1 << 16]float64

func init() {
	for u := range dequantLUT {
		dequantLUT[u] = dequantRef(uint16(u), 1)
	}
}

// dequantRow fills row from raw big-endian int16 I/Q pairs, four
// samples per 16-byte load: complex(dequantRef(i, scale),
// dequantRef(q, scale)) to the bit (TestDequantMatchesReference).
func dequantRow(row []complex128, raw []byte, scale float64) {
	// Slice-advance so the compiler proves every index in bounds once
	// per iteration; each 16-byte load covers four samples.
	for len(row) >= 4 && len(raw) >= 16 {
		v0 := binary.BigEndian.Uint64(raw)
		v1 := binary.BigEndian.Uint64(raw[8:])
		row[0] = complex(dequantLUT[uint16(v0>>48)]*scale, dequantLUT[uint16(v0>>32)]*scale)
		row[1] = complex(dequantLUT[uint16(v0>>16)]*scale, dequantLUT[uint16(v0)]*scale)
		row[2] = complex(dequantLUT[uint16(v1>>48)]*scale, dequantLUT[uint16(v1>>32)]*scale)
		row[3] = complex(dequantLUT[uint16(v1>>16)]*scale, dequantLUT[uint16(v1)]*scale)
		row = row[4:]
		raw = raw[16:]
	}
	for len(row) >= 1 && len(raw) >= 4 {
		v := binary.BigEndian.Uint32(raw)
		row[0] = complex(dequantLUT[uint16(v>>16)]*scale, dequantLUT[uint16(v)]*scale)
		row = row[1:]
		raw = raw[4:]
	}
}

// GetIngestWorkspace fetches a workspace from the package pool. Pass
// it to ReadFrameInto or DecodeDatagramInto; on success the workspace
// belongs to the decoded captures (drop it by Releasing each of them),
// on failure hand it back with Discard.
func GetIngestWorkspace() *IngestWorkspace {
	leasedWorkspaces.Add(1)
	return ingestPool.Get().(*IngestWorkspace)
}

// Discard returns a workspace no captures were decoded into. Calling
// it after a successful decode corrupts the pool; use Capture.Release
// instead.
func (ws *IngestWorkspace) Discard() {
	leasedWorkspaces.Add(-1)
	ingestPool.Put(ws)
}

func (ws *IngestWorkspace) release() {
	switch n := ws.refs.Add(-1); {
	case n == 0:
		leasedWorkspaces.Add(-1)
		ingestPool.Put(ws)
	case n < 0:
		// A double release corrupts the pool silently (two goroutines
		// decoding into one workspace); fail loudly instead.
		panic("server: ingest workspace over-released")
	}
}

// wirePayload returns the payload bytes and scale field c was decoded
// from, when it was read from a stream, is still leased, and its
// Streams are still what was decoded: the same shape, starting at the
// same sample of the workspace. A capture that was re-sliced or given
// other streams gets nil and is quantized like any other. (A sample
// overwritten in place is the one edit this cannot see, which is why
// borrowed streams are read-only.)
func (c *Capture) wirePayload() ([]byte, float32) {
	ws := c.owner
	if ws == nil || c.received == 0 || ws.wire == nil {
		return nil, 0
	}
	m := &ws.raw.Subs[c.received-1]
	samp := (m.pay - ws.raw.Subs[0].pay) / 4
	if len(c.Streams) != m.nAnt || len(c.Streams[0]) != m.nSamp || &c.Streams[0][0] != &ws.samples[samp] {
		return nil, 0
	}
	return ws.wire[m.pay : m.pay+m.payLen()], float32(m.scale)
}

// Release returns the capture's decode buffers to their workspace
// pool. Decoded captures borrow their Streams memory from an
// IngestWorkspace; whoever consumes a capture (the quorum flush's
// Dispatcher, or the backend itself for stale drops)
// must call Release exactly once when the samples are no longer
// needed. Copies of a Capture share the underlying
// reference, so release each logical capture once, not each copy. On
// captures that own their streams (built, not decoded) it is a no-op.
func (c *Capture) Release() {
	if o := c.owner; o != nil {
		c.owner = nil
		o.release()
	}
}

// ReleaseAll releases every capture in the slice.
func ReleaseAll(caps []Capture) {
	for i := range caps {
		caps[i].Release()
	}
}

// parseFrameHead validates the 8 post-magic frame header bytes.
func parseFrameHead(head []byte) (bodyLen, count int, err error) {
	bodyLen = int(binary.BigEndian.Uint32(head[4:]))
	count = int(binary.BigEndian.Uint16(head[8:]))
	if fflags := binary.BigEndian.Uint16(head[10:]); fflags != 0 {
		return 0, 0, fmt.Errorf("%w: reserved frame-flag bits %#x", ErrBadFrame, fflags)
	}
	if count == 0 || count > MaxBatchCaptures {
		return 0, 0, fmt.Errorf("%w: %d captures per frame", ErrTooLarge, count)
	}
	if bodyLen > MaxFrameBytes {
		return 0, 0, fmt.Errorf("%w: %d-byte frame body", ErrTooLarge, bodyLen)
	}
	// Every capture needs its fixed sub-header plus at least one 4-byte
	// sample.
	if bodyLen < count*(subHeadSize+4) {
		return 0, 0, fmt.Errorf("%w: %d-byte body cannot hold %d captures", ErrBadFrame, bodyLen, count)
	}
	return bodyLen, count, nil
}

// parseBody validates the body of a frame whose head parsed to count
// captures, and locates each capture in it: the parse both decoders and
// a router share. Dimensions, flags and scales are checked
// before any sample is looked at, so a hostile frame costs O(count);
// the only payload scan is the -32768 search behind errSampleRange,
// which only a scale in the top 1/32768th of the float32 range triggers.
func parseBody(frame []byte, count int, subs []SubRecord) ([]SubRecord, error) {
	if cap(subs) < count {
		subs = make([]SubRecord, count)
	}
	subs = subs[:count]
	off := frameHeadSize
	totalSamp := 0
	for i := range subs {
		if len(frame)-off < subHeadSize {
			return subs[:0], fmt.Errorf("%w: truncated sub-header %d", ErrBadFrame, i)
		}
		sub := frame[off : off+subHeadSize]
		nAnt := int(binary.BigEndian.Uint16(sub[24:]))
		nSamp := int(binary.BigEndian.Uint16(sub[26:]))
		if nAnt == 0 || nAnt > MaxAntennas || nSamp == 0 || nSamp > MaxSamples {
			return subs[:0], fmt.Errorf("%w: capture %d declares %d×%d", ErrTooLarge, i, nAnt, nSamp)
		}
		if flags := sub[28]; flags != 0 {
			return subs[:0], fmt.Errorf("%w: reserved sub-header flag bits %#x on capture %d", ErrBadFrame, flags, i)
		}
		scale, ok := readScale(sub[20:])
		if !ok {
			return subs[:0], errBadScale(scale)
		}
		// pay holds the first sample's index until the payload block's
		// offset is known.
		subs[i] = SubRecord{ClientID: binary.BigEndian.Uint32(sub[4:]), sub: off,
			pay: totalSamp, scale: scale, nAnt: nAnt, nSamp: nSamp}
		off += subHeadSize
		totalSamp += nAnt * nSamp
	}
	if len(frame)-off != totalSamp*4 {
		return subs[:0], fmt.Errorf("%w: %d payload bytes for %d declared samples", ErrBadFrame, len(frame)-off, totalSamp)
	}
	for i := range subs {
		s := &subs[i]
		s.pay = off + 4*s.pay
		if pastFullScale(s.scale) && hasMinInt16(frame[s.pay:s.pay+s.payLen()]) {
			return subs[:0], errSampleRange
		}
	}
	return subs, nil
}

// decode turns the frame ws.raw.Subs describes into ws's captures, its
// samples dequantized into the workspace's own backing. With keepWire
// false no reference to frame is retained, so frame may be a UDP
// datagram; with keepWire true frame must live as long as the workspace
// lease (ws.raw.Bytes does), and its captures re-encode as copies of it
// (Capture.wirePayload).
func (ws *IngestWorkspace) decode(frame []byte, keepWire bool) []Capture {
	subs := ws.raw.Subs
	count := len(subs)
	if cap(ws.captures) < count {
		ws.captures = make([]Capture, count)
	}
	caps := ws.captures[:count]
	ws.captures = caps
	totalSamp, totalAnt := (len(frame)-subs[0].pay)/4, 0
	for i := range subs {
		totalAnt += subs[i].nAnt
	}
	if cap(ws.samples) < totalSamp {
		ws.samples = make([]complex128, totalSamp)
	}
	if cap(ws.streams) < totalAnt {
		ws.streams = make([][]complex128, totalAnt)
	}
	samples := ws.samples[:totalSamp]
	streams := ws.streams[:totalAnt]
	so, ao := 0, 0
	for i := range subs {
		m := &subs[i]
		sub := frame[m.sub : m.sub+subHeadSize]
		caps[i] = Capture{
			APID:      binary.BigEndian.Uint32(sub[0:]),
			ClientID:  m.ClientID,
			Seq:       binary.BigEndian.Uint32(sub[8:]),
			Timestamp: time.UnixMicro(int64(binary.BigEndian.Uint64(sub[12:]))).UTC(),
			received:  uint32(i) + 1,
		}
		// One pass over the whole capture — its rows are contiguous on
		// both sides — then slice it per antenna.
		n := m.nAnt * m.nSamp
		dequantRow(samples[so:so+n], frame[m.pay:m.pay+4*n], m.scale)
		st := streams[ao : ao+m.nAnt : ao+m.nAnt]
		ao += m.nAnt
		for a := range st {
			st[a] = samples[so : so+m.nSamp : so+m.nSamp]
			so += m.nSamp
		}
		caps[i].Streams = st
		caps[i].owner = ws
	}
	ws.wire = nil
	if keepWire {
		ws.wire = frame
	}
	ws.refs.Store(int32(count))
	return caps
}

// ReadFrame reads the next frame of r into f, reusing f's buffers, and
// parses it without decoding a sample. io.EOF is returned unchanged at
// a clean frame boundary.
func ReadFrame(r io.Reader, f *Frame) error {
	if cap(f.Bytes) < frameHeadSize {
		f.Bytes = make([]byte, frameHeadSize)
	}
	head := f.Bytes[:frameHeadSize]
	// The magic is read alone so a stream that is not a sample feed dies
	// on its first four bytes, not after a full header's wait.
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("server: short header: %w", err)
	}
	if binary.BigEndian.Uint32(head) != batchMagic {
		return ErrBadMagic
	}
	if _, err := io.ReadFull(r, head[4:]); err != nil {
		return fmt.Errorf("server: short frame header: %w", err)
	}
	bodyLen, count, err := parseFrameHead(head)
	if err != nil {
		return err
	}
	if n := frameHeadSize + bodyLen; cap(f.Bytes) < n {
		f.Bytes = append(make([]byte, 0, n), head...)
	}
	f.Bytes = f.Bytes[:frameHeadSize+bodyLen]
	if _, err := io.ReadFull(r, f.Bytes[frameHeadSize:]); err != nil {
		return fmt.Errorf("server: short frame body: %w", err)
	}
	f.Subs, err = parseBody(f.Bytes, count, f.Subs)
	return err
}

// ParseFrame parses b, which must hold exactly one frame, into f
// without decoding a sample. f keeps b as its Bytes.
func ParseFrame(b []byte, f *Frame) error {
	if len(b) < frameHeadSize {
		return fmt.Errorf("%w: %d-byte frame", ErrBadFrame, len(b))
	}
	if binary.BigEndian.Uint32(b) != batchMagic {
		return ErrBadMagic
	}
	bodyLen, count, err := parseFrameHead(b[:frameHeadSize])
	if err != nil {
		return err
	}
	if bodyLen != len(b)-frameHeadSize {
		return fmt.Errorf("%w: bodyLen %d in %d-byte frame", ErrBadFrame, bodyLen, len(b))
	}
	f.Bytes = b
	f.Subs, err = parseBody(b, count, f.Subs)
	return err
}

// AppendSplice appends to dst one frame carrying the captures subs of f,
// in the order given: a fresh head, their sub-headers, then their
// payloads, copied from f.Bytes. subs must be a non-empty selection of
// f.Subs. The bytes are those AppendBatch writes for the same captures
// decoded, since every field a capture decodes to re-encodes exactly
// (TestRouterSplicesByteIdentical).
func AppendSplice(dst []byte, f *Frame, subs []SubRecord) []byte {
	bodyLen := 0
	for i := range subs {
		bodyLen += subHeadSize + subs[i].payLen()
	}
	off := len(dst)
	dst = growSlice(dst, frameHeadSize+bodyLen)
	binary.BigEndian.PutUint32(dst[off:], batchMagic)
	binary.BigEndian.PutUint32(dst[off+4:], uint32(bodyLen))
	binary.BigEndian.PutUint16(dst[off+8:], uint16(len(subs)))
	binary.BigEndian.PutUint16(dst[off+10:], 0)
	off += frameHeadSize
	for i := range subs {
		s := &subs[i]
		off += copy(dst[off:], f.Bytes[s.sub:s.sub+subHeadSize])
	}
	for i := range subs {
		s := &subs[i]
		off += copy(dst[off:], f.Bytes[s.pay:s.pay+s.payLen()])
	}
	return dst
}

// ReadFrameInto decodes the next frame of r into ws: the stream reader
// behind ServeConn. io.EOF is returned unchanged at a clean frame
// boundary. On success the returned captures collectively own ws —
// Release every one when consumed. On error the caller keeps ws and
// should Discard it.
func ReadFrameInto(r io.Reader, ws *IngestWorkspace) ([]Capture, error) {
	if err := ReadFrame(r, &ws.raw); err != nil {
		return nil, err
	}
	return ws.decode(ws.raw.Bytes, true), nil
}

// DecodeDatagramInto decodes one UDP datagram holding exactly one
// frame. The datagram buffer may be reused immediately after return —
// samples are copied into ws. Ownership is as in ReadFrameInto.
func DecodeDatagramInto(data []byte, ws *IngestWorkspace) ([]Capture, error) {
	// Parse into a Frame of its own so ws.raw keeps its stream buffer.
	f := Frame{Subs: ws.raw.Subs}
	err := ParseFrame(data, &f)
	ws.raw.Subs = f.Subs
	if err != nil {
		return nil, err
	}
	return ws.decode(data, false), nil
}

// BatchFrameSize returns the exact on-wire bytes of a v3 frame
// carrying caps — the planning quantity for datagram packing. A
// capture with no streams counts as its sub-header alone; AppendBatch
// refuses it.
func BatchFrameSize(caps []Capture) int {
	size := frameHeadSize
	for i := range caps {
		c := &caps[i]
		size += subHeadSize
		if len(c.Streams) > 0 {
			size += len(c.Streams) * len(c.Streams[0]) * 4
		}
	}
	return size
}

// AppendBatch appends one frame carrying caps to dst and returns the
// extended slice. Callers reusing dst encode with zero per-frame
// allocations. On error dst is returned as it was given.
func AppendBatch(dst []byte, caps []Capture) ([]byte, error) {
	n := len(caps)
	if n == 0 || n > MaxBatchCaptures {
		return dst, fmt.Errorf("%w: %d captures per frame", ErrTooLarge, n)
	}
	// Size the whole frame first: sub-headers sit in one block with the
	// payloads behind it, and geometry is validated before a byte
	// lands.
	subTotal, payloadTotal := 0, 0
	for i := range caps {
		c := &caps[i]
		nAnt, nSamp, err := captureDims(c)
		if err != nil {
			return dst, err
		}
		subTotal += subHeadSize
		payloadTotal += nAnt * nSamp * 4
	}
	bodyLen := subTotal + payloadTotal
	if bodyLen > MaxFrameBytes {
		return dst, fmt.Errorf("%w: %d-byte frame body", ErrTooLarge, bodyLen)
	}
	base := len(dst)
	dst = growSlice(dst, frameHeadSize+bodyLen)
	binary.BigEndian.PutUint32(dst[base:], batchMagic)
	binary.BigEndian.PutUint32(dst[base+4:], uint32(bodyLen))
	binary.BigEndian.PutUint16(dst[base+8:], uint16(n))
	binary.BigEndian.PutUint16(dst[base+10:], 0)
	off := base + frameHeadSize
	payload := dst[base+frameHeadSize+subTotal:]
	for i := range caps {
		c := &caps[i]
		nAnt, nSamp := len(c.Streams), len(c.Streams[0])
		raw := payload[:nAnt*nSamp*4]
		payload = payload[len(raw):]
		wire, scale := c.wirePayload()
		if wire != nil {
			// Received, and still what was received: the bytes it
			// arrived in are its encoding.
			copy(raw, wire)
		} else {
			peak, err := samplePeak(c.Streams)
			if err != nil {
				return dst[:base], fmt.Errorf("capture %d: %w", i, err)
			}
			scale = float32(peak)
			quantizePayload(raw, c.Streams, peak)
		}
		sub := dst[off : off+subHeadSize]
		binary.BigEndian.PutUint32(sub[0:], c.APID)
		binary.BigEndian.PutUint32(sub[4:], c.ClientID)
		binary.BigEndian.PutUint32(sub[8:], c.Seq)
		binary.BigEndian.PutUint64(sub[12:], uint64(c.Timestamp.UnixMicro()))
		binary.BigEndian.PutUint32(sub[20:], math.Float32bits(scale))
		binary.BigEndian.PutUint16(sub[24:], uint16(nAnt))
		binary.BigEndian.PutUint16(sub[26:], uint16(nSamp))
		sub[28] = 0
		off += subHeadSize
	}
	return dst, nil
}

// AppendFrames appends caps to dst as consecutive frames of at most
// MaxBatchCaptures captures each — how a pending-group extraction ships
// any number of captures. On error dst is returned as it was given.
func AppendFrames(dst []byte, caps []Capture) ([]byte, error) {
	base := len(dst)
	for off := 0; off < len(caps); off += MaxBatchCaptures {
		var err error
		if dst, err = AppendBatch(dst, caps[off:min(off+MaxBatchCaptures, len(caps))]); err != nil {
			return dst[:base], err
		}
	}
	return dst, nil
}

// encodeBufPool recycles WriteBatch's scratch: the seed writer
// allocated a fresh head and payload buffer per record, which dominated
// the AP-side upload profile.
var encodeBufPool = sync.Pool{New: func() any { return new([]byte) }}

// WriteBatch encodes caps as one frame and writes it with a single
// Write call — one syscall per burst, from a pooled buffer.
func WriteBatch(w io.Writer, caps []Capture) error {
	bp := encodeBufPool.Get().(*[]byte)
	buf, err := AppendBatch((*bp)[:0], caps)
	if err == nil {
		_, err = w.Write(buf)
	}
	*bp = buf
	encodeBufPool.Put(bp)
	return err
}
