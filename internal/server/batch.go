package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// Version 3 of the wire protocol amortizes the per-record framing cost
// over a whole burst of captures: one length-prefixed frame carries up
// to MaxBatchCaptures records, so the server ingests a burst with a
// single ReadFull instead of two framed reads per capture, and the AP
// ships it with a single Write (one syscall — the batched-RX idiom of
// user-space fast paths, applied to the sample feed of §4.4).
//
//	frame header (12 bytes):
//	  magic    uint32  'A''T' + version 3
//	  bodyLen  uint32  bytes that follow the header
//	  count    uint16  captures in the frame (1..MaxBatchCaptures)
//	  fflags   uint16  frame flags: bit0 = delta timestamps; others must be zero
//	body (bodyLen bytes):
//	  baseUS   uint64  per-frame base timestamp (µs) — present only with fflags bit0
//	  count sub-headers, back to back:
//	    apID     uint32
//	    clientID uint32
//	    seq      uint32
//	    tstampUS uint64  absolute µs — or deltaUS uint32 (µs past baseUS) with fflags bit0
//	    scale    float32
//	    nAnt     uint16
//	    nSamp    uint16
//	    flags    uint8   bit0 = has region, bit1 = priority
//	    region   5 × float64, present only when bit0 is set
//	  contiguous payloads, capture order: nAnt × nSamp × (int16 I, int16 Q)
//
// The delta form spends 4 bytes per capture on the timestamp plus 8
// per frame instead of 8 per capture — about half the fixed sub-header
// timestamp overhead for the small 4×16 records — and decodes
// bit-identical to the absolute form whenever every timestamp in the
// frame lies within 2³²−1 µs (~71 min) of the earliest one.
// AppendBatchDelta falls back to the absolute form otherwise, and
// every reader accepts both.
//
// The body length, capture count, sub-header dimensions, and payload
// bytes must be mutually consistent to the byte — a lying count, an
// oversized sub-header, or a truncated payload fails decode with
// ErrBadFrame before any sample is touched. Decoding is zero-copy and
// pooled: ReadBatchInto parses into an IngestWorkspace whose flat
// sample backing and capture structs are reused frame after frame
// (grown, never shrunk), and every decoded Capture carries a reference
// on its workspace that the consumer drops with Release. Samples are
// quantized and de-quantized to exactly the values of the v1 path, so
// batch-decoded streams are bit-identical to ReadCapture's: every
// encoder runs the one guarded kernel (quantizePayload, whose fast form
// hands any value within 1e-6 of a rounding boundary to the reference
// expression), and the decoder multiplies by a table of the reference
// quotients.
//
// A capture decoded from a stream — a batch frame or a v1/v2 record —
// also remembers the payload bytes it came from (they sit in the
// workspace's frame buffer for as long as the lease lasts). Encoding it
// again as a batch — a router forwarding it to its shard, a hold flush,
// a pending-group extraction — copies those bytes and their scale field
// instead of scanning for a peak and re-quantizing 5760 samples, and so
// reproduces what the AP sent to the byte. The samples of a leased
// capture are therefore read-only. One whose Streams were re-sliced to
// another shape or pointed at other memory, or that was released, or
// that came from a datagram (whose buffer the caller reuses), goes
// through the quantizer like any other; a sample overwritten in place
// is the one edit the encoder cannot see.

const (
	// batchMagic tags a version-3 batch frame.
	batchMagic = 0x41540003
	// frameHeadSize is the fixed v3 frame header.
	frameHeadSize = 12
	// subHeadSize is the fixed part of one per-capture sub-header.
	subHeadSize = 29
	// subHeadSizeDelta is the fixed sub-header with a uint32 timestamp
	// delta in place of the absolute uint64 (frame flag bit0).
	subHeadSizeDelta = 25
	// baseTSSize is the per-frame base timestamp prefix of a delta
	// frame's body.
	baseTSSize = 8
	// regionBoxSize is the optional region extension of a sub-header
	// (five float64 fields; the flags byte lives in the fixed part).
	regionBoxSize = 5 * 8
	// frameFlagDeltaTS marks a frame whose body carries a base
	// timestamp and per-capture uint32 deltas.
	frameFlagDeltaTS = 1 << 0
)

// MaxBatchCaptures bounds the captures one frame may carry.
const MaxBatchCaptures = 1024

// MaxFrameBytes bounds a frame body when decoding untrusted input: a
// hostile bodyLen can make the reader allocate at most this much.
const MaxFrameBytes = 8 << 20

// MaxDatagramBytes is the largest batch frame that fits a UDP
// datagram (65535 minus the UDP/IP headers); UploadDatagrams packs
// frames below it.
const MaxDatagramBytes = 65507

// ErrBadFrame means a v3 batch frame's header, sub-headers, and
// payload do not describe the same bytes.
var ErrBadFrame = fmt.Errorf("server: malformed batch frame")

// batchMeta is per-capture decode scratch carried between the
// sub-header pass and the sample pass: the capture's scale field, its
// shape, and the index of its first sample in the frame — in the
// workspace's sample backing, and times four in the payload. After a
// stream decode it is also how a capture finds the bytes it arrived in
// (Capture.received, wirePayload).
type batchMeta struct {
	scale             float64
	nAnt, nSamp, samp int
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
	head     [frameHeadSize]byte
	frame    []byte
	samples  []complex128
	streams  [][]complex128
	captures []Capture
	meta     []batchMeta
	// wire is the int16 I/Q payload block of the frame or record last
	// decoded from a stream (it lies in frame, which nothing overwrites
	// while a capture of it is leased); nil after a datagram decode,
	// whose buffer is the caller's.
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

// dequantLUT maps raw int16 bits to float64(int16)/32767 — each entry
// is exactly the quotient ReadCapture computes, so pooled decode
// multiplied by the record scale stays bit-identical to the v1 path
// while skipping a float division per component (the hottest operation
// in the batched ingest profile; 512 KiB, built once).
var dequantLUT [1 << 16]float64

func init() {
	for u := 0; u < 1<<16; u++ {
		dequantLUT[u] = float64(int16(u)) / 32767
	}
}

// dequantRow fills row from raw big-endian int16 I/Q pairs, two
// samples per 8-byte load. Bit-identical to the v1 expression
// complex(float64(i16)/32767*scale, float64(q16)/32767*scale).
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
// it to ReadCaptureInto / ReadBatchInto / ReadFrameInto /
// DecodeDatagramInto; on success the workspace belongs to the decoded
// captures (drop it by Releasing each of them), on failure hand it
// back with Discard.
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
	m := &ws.meta[c.received-1]
	if len(c.Streams) != m.nAnt || len(c.Streams[0]) != m.nSamp || &c.Streams[0][0] != &ws.samples[m.samp] {
		return nil, 0
	}
	return ws.wire[4*m.samp : 4*(m.samp+m.nAnt*m.nSamp)], float32(m.scale)
}

// Release returns the capture's decode buffers to their workspace
// pool. Captures decoded by the pooled readers borrow their Streams
// memory from an IngestWorkspace; whoever consumes a capture (the
// quorum flush's Dispatcher, or the backend itself for stale drops and
// inline Locate) must call Release exactly once when the samples are
// no longer needed. Copies of a Capture share the underlying
// reference, so release each logical capture once, not each copy. On
// captures from the plain allocating readers it is a no-op.
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
func parseFrameHead(head []byte) (bodyLen, count int, deltaTS bool, err error) {
	bodyLen = int(binary.BigEndian.Uint32(head[4:]))
	count = int(binary.BigEndian.Uint16(head[8:]))
	fflags := binary.BigEndian.Uint16(head[10:])
	if fflags&^uint16(frameFlagDeltaTS) != 0 {
		return 0, 0, false, fmt.Errorf("%w: reserved frame-flag bits %#x", ErrBadFrame, fflags)
	}
	deltaTS = fflags&frameFlagDeltaTS != 0
	if count == 0 || count > MaxBatchCaptures {
		return 0, 0, false, fmt.Errorf("%w: %d captures per frame", ErrTooLarge, count)
	}
	if bodyLen > MaxFrameBytes {
		return 0, 0, false, fmt.Errorf("%w: %d-byte frame body", ErrTooLarge, bodyLen)
	}
	// Every capture needs its fixed sub-header plus at least one
	// 4-byte sample; a delta frame also needs its base timestamp.
	minBody := count * (subHeadSize + 4)
	if deltaTS {
		minBody = baseTSSize + count*(subHeadSizeDelta+4)
	}
	if bodyLen < minBody {
		return 0, 0, false, fmt.Errorf("%w: %d-byte body cannot hold %d captures", ErrBadFrame, bodyLen, count)
	}
	return bodyLen, count, deltaTS, nil
}

// decodeBatchBody parses a frame body (sub-headers plus contiguous
// payload) into ws and returns ws's captures. Samples are decoded into
// the workspace's own backing. With keepWire false no reference to body
// is retained, so body may be a reused read buffer or a UDP datagram;
// with keepWire true body must live as long as the workspace lease
// (ws.frame does), and the workspace remembers its payload block for
// its captures (Capture.wirePayload).
func decodeBatchBody(body []byte, count int, deltaTS, keepWire bool, ws *IngestWorkspace) ([]Capture, error) {
	if cap(ws.captures) < count {
		ws.captures = make([]Capture, count)
	}
	if cap(ws.meta) < count {
		ws.meta = make([]batchMeta, count)
	}
	ws.captures = ws.captures[:count]
	caps := ws.captures
	meta := ws.meta[:count]

	// Pass 1: sub-headers. Dimensions and regions are validated here,
	// before any sample work, so a hostile frame costs O(count).
	off := 0
	var baseUS int64
	subSize := subHeadSize
	if deltaTS {
		// parseFrameHead's minimum-body check guarantees the base
		// timestamp prefix is present.
		baseUS = int64(binary.BigEndian.Uint64(body))
		off = baseTSSize
		subSize = subHeadSizeDelta
	}
	totalSamp, totalAnt := 0, 0
	for i := 0; i < count; i++ {
		if len(body)-off < subSize {
			return nil, fmt.Errorf("%w: truncated sub-header %d", ErrBadFrame, i)
		}
		sub := body[off : off+subSize]
		off += subSize
		// The dimension/scale/flags tail sits right after the timestamp
		// field, whose width is the only difference between the forms.
		tail := sub[subHeadSize-9:]
		var tstamp time.Time
		if deltaTS {
			tail = sub[subHeadSizeDelta-9:]
			tstamp = time.UnixMicro(baseUS + int64(binary.BigEndian.Uint32(sub[12:]))).UTC()
		} else {
			tstamp = time.UnixMicro(int64(binary.BigEndian.Uint64(sub[12:]))).UTC()
		}
		nAnt := int(binary.BigEndian.Uint16(tail[4:]))
		nSamp := int(binary.BigEndian.Uint16(tail[6:]))
		if nAnt == 0 || nAnt > MaxAntennas || nSamp == 0 || nSamp > MaxSamples {
			return nil, fmt.Errorf("%w: capture %d declares %d×%d", ErrTooLarge, i, nAnt, nSamp)
		}
		flags := tail[8]
		if flags&^(flagHasRegion|flagPriority) != 0 {
			return nil, fmt.Errorf("%w: unknown flags %#x", ErrBadRegion, flags)
		}
		caps[i] = Capture{
			APID:      binary.BigEndian.Uint32(sub[0:]),
			ClientID:  binary.BigEndian.Uint32(sub[4:]),
			Seq:       binary.BigEndian.Uint32(sub[8:]),
			Timestamp: tstamp,
			Priority:  flags&flagPriority != 0,
			received:  uint32(i) + 1,
		}
		if flags&flagHasRegion != 0 {
			if len(body)-off < regionBoxSize {
				return nil, fmt.Errorf("%w: truncated region on capture %d", ErrBadFrame, i)
			}
			box := body[off : off+regionBoxSize]
			off += regionBoxSize
			region := core.Region{
				Min:  geom.Pt(math.Float64frombits(binary.BigEndian.Uint64(box[0:])), math.Float64frombits(binary.BigEndian.Uint64(box[8:]))),
				Max:  geom.Pt(math.Float64frombits(binary.BigEndian.Uint64(box[16:])), math.Float64frombits(binary.BigEndian.Uint64(box[24:]))),
				Cell: math.Float64frombits(binary.BigEndian.Uint64(box[32:])),
			}
			if region.IsZero() {
				return nil, fmt.Errorf("%w: region flag set on zero box", ErrBadRegion)
			}
			if err := region.Validate(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadRegion, err)
			}
			caps[i].Region = region
		}
		scale, ok := readScale(tail)
		if !ok {
			return nil, errBadScale(scale)
		}
		meta[i] = batchMeta{scale: scale, nAnt: nAnt, nSamp: nSamp, samp: totalSamp}
		totalSamp += nAnt * nSamp
		totalAnt += nAnt
	}
	payload := body[off:]
	if len(payload) != totalSamp*4 {
		return nil, fmt.Errorf("%w: %d payload bytes for %d declared samples", ErrBadFrame, len(payload), totalSamp)
	}
	ws.wire = nil
	if keepWire {
		ws.wire = payload
	}

	// Pass 2: samples, decoded into the workspace's flat backing and
	// sliced per antenna — the same de-quantization expression as
	// ReadCapture, so the streams are bit-identical.
	if cap(ws.samples) < totalSamp {
		ws.samples = make([]complex128, totalSamp)
	}
	if cap(ws.streams) < totalAnt {
		ws.streams = make([][]complex128, totalAnt)
	}
	samples := ws.samples[:totalSamp]
	streams := ws.streams[:totalAnt]
	po, so, ao := 0, 0, 0
	for i := range caps {
		m := &meta[i]
		st := streams[ao : ao+m.nAnt : ao+m.nAnt]
		ao += m.nAnt
		n := m.nAnt * m.nSamp
		raw := payload[po : po+4*n]
		po += 4 * n
		if pastFullScale(m.scale) && hasMinInt16(raw) {
			return nil, errSampleRange
		}
		// One pass over the whole capture — its rows are contiguous on
		// both sides — then slice it per antenna.
		dequantRow(samples[so:so+n], raw, m.scale)
		for a := 0; a < m.nAnt; a++ {
			st[a] = samples[so : so+m.nSamp : so+m.nSamp]
			so += m.nSamp
		}
		caps[i].Streams = st
		caps[i].owner = ws
	}
	ws.refs.Store(int32(count))
	return caps, nil
}

// readBatchBody reads and decodes a frame whose magic has already been
// consumed into ws.head[:4].
func readBatchBody(r io.Reader, ws *IngestWorkspace) ([]Capture, error) {
	if _, err := io.ReadFull(r, ws.head[4:frameHeadSize]); err != nil {
		return nil, fmt.Errorf("server: short frame header: %w", err)
	}
	bodyLen, count, deltaTS, err := parseFrameHead(ws.head[:])
	if err != nil {
		return nil, err
	}
	if cap(ws.frame) < bodyLen {
		ws.frame = make([]byte, bodyLen)
	}
	body := ws.frame[:bodyLen]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("server: short frame body: %w", err)
	}
	return decodeBatchBody(body, count, deltaTS, true, ws)
}

// readCaptureBody decodes one v1/v2 record whose magic has already
// been consumed, into ws (zero-copy pooled variant of ReadCapture).
func readCaptureBody(r io.Reader, magic uint32, ws *IngestWorkspace) (*Capture, error) {
	// The fixed header tail, the optional region extension, and the
	// payload all stage through ws.frame.
	if cap(ws.frame) < 28+regionExtSize {
		ws.frame = make([]byte, 28+regionExtSize)
	}
	head := ws.frame[:28]
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("server: short header: %w", err)
	}
	if cap(ws.captures) < 1 {
		ws.captures = make([]Capture, 1)
	}
	ws.captures = ws.captures[:1]
	c := &ws.captures[0]
	*c = Capture{
		APID:      binary.BigEndian.Uint32(head[0:]),
		ClientID:  binary.BigEndian.Uint32(head[4:]),
		Seq:       binary.BigEndian.Uint32(head[8:]),
		Timestamp: time.UnixMicro(int64(binary.BigEndian.Uint64(head[12:]))).UTC(),
	}
	scale, ok := readScale(head[20:])
	if !ok {
		return nil, errBadScale(scale)
	}
	nAnt := int(binary.BigEndian.Uint16(head[24:]))
	nSamp := int(binary.BigEndian.Uint16(head[26:]))
	if nAnt == 0 || nAnt > MaxAntennas || nSamp == 0 || nSamp > MaxSamples {
		return nil, ErrTooLarge
	}
	if magic == protocolMagicV2 {
		ext := ws.frame[28 : 28+regionExtSize]
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
	payloadLen := nAnt * nSamp * 4
	if cap(ws.frame) < payloadLen {
		ws.frame = make([]byte, payloadLen)
	}
	payload := ws.frame[:payloadLen]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("server: short payload: %w", err)
	}
	if pastFullScale(scale) && hasMinInt16(payload) {
		return nil, errSampleRange
	}
	if cap(ws.samples) < nAnt*nSamp {
		ws.samples = make([]complex128, nAnt*nSamp)
	}
	if cap(ws.streams) < nAnt {
		ws.streams = make([][]complex128, nAnt)
	}
	samples := ws.samples[:nAnt*nSamp]
	streams := ws.streams[:nAnt:nAnt]
	dequantRow(samples, payload, scale)
	for a := 0; a < nAnt; a++ {
		streams[a] = samples[a*nSamp : (a+1)*nSamp : (a+1)*nSamp]
	}
	c.Streams = streams
	c.owner = ws
	// The payload stays in ws.frame for the whole lease, as a batch
	// frame's does, and is remembered the same way.
	if cap(ws.meta) < 1 {
		ws.meta = make([]batchMeta, 1)
	}
	ws.meta[0] = batchMeta{scale: scale, nAnt: nAnt, nSamp: nSamp}
	ws.wire = payload
	c.received = 1
	ws.refs.Store(1)
	return c, nil
}

// readMagic consumes the 4-byte version tag, passing a clean EOF
// through unchanged.
func readMagic(r io.Reader, ws *IngestWorkspace) (uint32, error) {
	if _, err := io.ReadFull(r, ws.head[:4]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("server: short header: %w", err)
	}
	return binary.BigEndian.Uint32(ws.head[:4]), nil
}

// ReadCaptureInto decodes one v1/v2 record from r into ws — the
// pooled, zero-copy variant of ReadCapture (bit-identical streams).
// On success the returned capture owns ws; drop it with Release. On
// error (and clean EOF) the caller keeps ws and should Discard it.
func ReadCaptureInto(r io.Reader, ws *IngestWorkspace) (*Capture, error) {
	magic, err := readMagic(r, ws)
	if err != nil {
		return nil, err
	}
	if magic != protocolMagic && magic != protocolMagicV2 {
		return nil, ErrBadMagic
	}
	return readCaptureBody(r, magic, ws)
}

// ReadBatchInto decodes one v3 batch frame from r into ws. On success
// the returned captures collectively own ws — Release every one when
// consumed. On error the caller keeps ws and should Discard it.
func ReadBatchInto(r io.Reader, ws *IngestWorkspace) ([]Capture, error) {
	magic, err := readMagic(r, ws)
	if err != nil {
		return nil, err
	}
	if magic != batchMagic {
		return nil, ErrBadMagic
	}
	return readBatchBody(r, ws)
}

// ReadFrameInto decodes whatever the stream carries next — a v1/v2
// single record or a v3 batch frame — into ws. The mixed-version
// reader behind ServeConn: existing per-record writers and batch
// writers share one port. Ownership is as in ReadBatchInto.
func ReadFrameInto(r io.Reader, ws *IngestWorkspace) ([]Capture, error) {
	magic, err := readMagic(r, ws)
	if err != nil {
		return nil, err
	}
	switch magic {
	case protocolMagic, protocolMagicV2:
		if _, err := readCaptureBody(r, magic, ws); err != nil {
			return nil, err
		}
		return ws.captures[:1], nil
	case batchMagic:
		return readBatchBody(r, ws)
	default:
		return nil, ErrBadMagic
	}
}

// DecodeDatagramInto decodes one UDP datagram holding exactly one v3
// batch frame. The datagram buffer may be reused immediately after
// return — samples are copied into ws. Ownership is as in
// ReadBatchInto.
func DecodeDatagramInto(data []byte, ws *IngestWorkspace) ([]Capture, error) {
	if len(data) < frameHeadSize {
		return nil, fmt.Errorf("%w: %d-byte datagram", ErrBadFrame, len(data))
	}
	if binary.BigEndian.Uint32(data[0:]) != batchMagic {
		return nil, ErrBadMagic
	}
	bodyLen, count, deltaTS, err := parseFrameHead(data[:frameHeadSize])
	if err != nil {
		return nil, err
	}
	// A datagram is self-delimiting: the frame must fill it exactly.
	if bodyLen != len(data)-frameHeadSize {
		return nil, fmt.Errorf("%w: bodyLen %d in %d-byte datagram", ErrBadFrame, bodyLen, len(data))
	}
	return decodeBatchBody(data[frameHeadSize:], count, deltaTS, false, ws)
}

// subSizeOf returns capture c's sub-header size on the wire.
func subSizeOf(c *Capture) int {
	if !c.Region.IsZero() {
		return subHeadSize + regionBoxSize
	}
	return subHeadSize
}

// BatchFrameSize returns the exact on-wire bytes of a v3 frame
// carrying caps — the planning quantity for datagram packing.
func BatchFrameSize(caps []Capture) int {
	size := frameHeadSize
	for i := range caps {
		c := &caps[i]
		size += subSizeOf(c) + len(c.Streams)*len(c.Streams[0])*4
	}
	return size
}

// AppendBatch appends one v3 batch frame carrying caps to dst and
// returns the extended slice. Callers reusing dst encode with zero
// per-frame allocations.
func AppendBatch(dst []byte, caps []Capture) ([]byte, error) {
	return appendBatch(dst, caps, false, 0)
}

// AppendBatchDelta is AppendBatch with the compact timestamp form:
// the frame carries one base timestamp and a uint32 µs delta per
// capture, saving 4 bytes per sub-header. When the frame's timestamp
// span cannot be represented (a capture more than 2³²−1 µs past the
// earliest), it transparently falls back to the absolute form — both
// decode to bit-identical captures.
func AppendBatchDelta(dst []byte, caps []Capture) ([]byte, error) {
	if len(caps) == 0 {
		return AppendBatch(dst, caps) // same error path
	}
	baseUS := caps[0].Timestamp.UnixMicro()
	for i := 1; i < len(caps); i++ {
		if us := caps[i].Timestamp.UnixMicro(); us < baseUS {
			baseUS = us
		}
	}
	for i := range caps {
		// A negative difference can only mean int64 wraparound on
		// far-future/far-past extremes — not representable either.
		if d := caps[i].Timestamp.UnixMicro() - baseUS; d < 0 || d > math.MaxUint32 {
			return appendBatch(dst, caps, false, 0)
		}
	}
	return appendBatch(dst, caps, true, baseUS)
}

func appendBatch(dst []byte, caps []Capture, deltaTS bool, baseUS int64) ([]byte, error) {
	n := len(caps)
	if n == 0 || n > MaxBatchCaptures {
		return dst, fmt.Errorf("%w: %d captures per frame", ErrTooLarge, n)
	}
	subSize := subHeadSize
	if deltaTS {
		subSize = subHeadSizeDelta
	}
	// Size the whole frame first: sub-headers sit in one block with the
	// payloads behind it, and geometry and regions are validated before
	// a byte lands.
	subTotal, payloadTotal := 0, 0
	if deltaTS {
		subTotal = baseTSSize
	}
	for i := range caps {
		c := &caps[i]
		nAnt, nSamp, err := captureDims(c)
		if err != nil {
			return dst, err
		}
		subTotal += subSize
		if !c.Region.IsZero() {
			if err := c.Region.Validate(); err != nil {
				return dst, fmt.Errorf("%w: %v", ErrBadRegion, err)
			}
			subTotal += regionBoxSize
		}
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
	var fflags uint16
	if deltaTS {
		fflags |= frameFlagDeltaTS
	}
	binary.BigEndian.PutUint16(dst[base+10:], fflags)
	off := base + frameHeadSize
	if deltaTS {
		binary.BigEndian.PutUint64(dst[off:], uint64(baseUS))
		off += baseTSSize
	}
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
		sub := dst[off : off+subSize]
		binary.BigEndian.PutUint32(sub[0:], c.APID)
		binary.BigEndian.PutUint32(sub[4:], c.ClientID)
		binary.BigEndian.PutUint32(sub[8:], c.Seq)
		var tail []byte
		if deltaTS {
			binary.BigEndian.PutUint32(sub[12:], uint32(c.Timestamp.UnixMicro()-baseUS))
			tail = sub[16:]
		} else {
			binary.BigEndian.PutUint64(sub[12:], uint64(c.Timestamp.UnixMicro()))
			tail = sub[20:]
		}
		binary.BigEndian.PutUint32(tail[0:], math.Float32bits(scale))
		binary.BigEndian.PutUint16(tail[4:], uint16(nAnt))
		binary.BigEndian.PutUint16(tail[6:], uint16(nSamp))
		var flags byte
		if !c.Region.IsZero() {
			flags |= flagHasRegion
		}
		if c.Priority {
			flags |= flagPriority
		}
		tail[8] = flags
		off += subSize
		if flags&flagHasRegion != 0 {
			box := dst[off : off+regionBoxSize]
			binary.BigEndian.PutUint64(box[0:], math.Float64bits(c.Region.Min.X))
			binary.BigEndian.PutUint64(box[8:], math.Float64bits(c.Region.Min.Y))
			binary.BigEndian.PutUint64(box[16:], math.Float64bits(c.Region.Max.X))
			binary.BigEndian.PutUint64(box[24:], math.Float64bits(c.Region.Max.Y))
			binary.BigEndian.PutUint64(box[32:], math.Float64bits(c.Region.Cell))
			off += regionBoxSize
		}
	}
	return dst, nil
}

// WriteBatch encodes caps as one v3 batch frame and writes it with a
// single Write call — one syscall per burst, from a pooled buffer.
func WriteBatch(w io.Writer, caps []Capture) error {
	return writeBatch(w, caps, AppendBatch)
}

// WriteBatchDelta is WriteBatch with AppendBatchDelta's compact
// timestamp form (absolute fallback included).
func WriteBatchDelta(w io.Writer, caps []Capture) error {
	return writeBatch(w, caps, AppendBatchDelta)
}

func writeBatch(w io.Writer, caps []Capture, enc func([]byte, []Capture) ([]byte, error)) error {
	bp := encodeBufPool.Get().(*[]byte)
	buf, err := enc((*bp)[:0], caps)
	if err == nil {
		_, err = w.Write(buf)
	}
	*bp = buf
	encodeBufPool.Put(bp)
	return err
}
