package server

// Fuzzing for the wire decoder: the backend reads frames from whatever
// connects to its TCP port, so ReadFrameInto and ServeConn must reject
// arbitrary garbage with an error — never a panic, and never an
// unbounded allocation. `go test` runs the seed corpora; `go test
// -fuzz=FuzzReadBatch ./internal/server` (or FuzzReadCapture) explores
// further.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// The retired wire forms, kept as bytes so their refusal stays tested
// and the fuzzer starts from them: version 1 and 2 records, one capture
// each (v2 adds a flags byte and a region box after the 32-byte
// header); frames whose sub-header flags asked for a search region
// (bit 0, a region box following the sub-header) or the latency lane
// (bit 1); and frames with frame flag bit0 set, whose body opened with
// an 8-byte base timestamp and whose sub-headers carried a uint32 delta
// in place of the absolute uint64.
const (
	retiredV1Magic  = 0x41540001
	retiredV2Magic  = 0x41540002
	retiredBaseTS   = 8
	retiredRegion   = 1 << 0
	retiredPriority = 1 << 1
	// retiredBoxSize is a region box: minX, minY, maxX, maxY and a
	// cell pitch, five big-endian float64s.
	retiredBoxSize = 5 * 8
)

// retiredBox is the region box the retired seeds carry.
var retiredBox = [5]float64{3, 2, 11.5, 9.25, 0.25}

// retiredRecord lays c out as a v1 record, or, with flags set, as a v2
// record carrying them and retiredBox.
func retiredRecord(tb testing.TB, c *Capture, flags byte) []byte {
	tb.Helper()
	peak, err := samplePeak(c.Streams)
	if err != nil {
		tb.Fatal(err)
	}
	head := 32
	if flags != 0 {
		head += 1 + retiredBoxSize
	}
	rec := make([]byte, head+4*len(c.Streams)*len(c.Streams[0]))
	binary.BigEndian.PutUint32(rec[0:], retiredV1Magic)
	binary.BigEndian.PutUint32(rec[4:], c.APID)
	binary.BigEndian.PutUint32(rec[8:], c.ClientID)
	binary.BigEndian.PutUint32(rec[12:], c.Seq)
	binary.BigEndian.PutUint64(rec[16:], uint64(c.Timestamp.UnixMicro()))
	binary.BigEndian.PutUint32(rec[24:], math.Float32bits(float32(peak)))
	binary.BigEndian.PutUint16(rec[28:], uint16(len(c.Streams)))
	binary.BigEndian.PutUint16(rec[30:], uint16(len(c.Streams[0])))
	if flags != 0 {
		binary.BigEndian.PutUint32(rec[0:], retiredV2Magic)
		rec[32] = flags
		rec = putRegion(rec, 33, retiredBox)
	}
	quantizePayload(rec[head:], c.Streams, peak)
	return rec
}

// retiredRegionFrame rewrites a frame's last capture in the retired
// form that asked for a region and the latency lane: both flag bits
// set and retiredBox behind its sub-header.
func retiredRegionFrame(frame []byte) []byte {
	count := int(binary.BigEndian.Uint16(frame[8:]))
	boxAt := frameHeadSize + count*subHeadSize
	out := append([]byte(nil), frame[:boxAt]...)
	out[boxAt-1] = retiredRegion | retiredPriority
	out = putRegion(append(out, make([]byte, retiredBoxSize)...), boxAt, retiredBox)
	out = append(out, frame[boxAt:]...)
	binary.BigEndian.PutUint32(out[4:], uint32(len(out)-frameHeadSize))
	return out
}

// retiredDeltaFrame rewrites a frame in the retired delta-timestamp
// form.
func retiredDeltaFrame(frame []byte) []byte {
	count := int(binary.BigEndian.Uint16(frame[8:]))
	var subs [][]byte
	off := frameHeadSize
	base := int64(math.MaxInt64)
	for i := 0; i < count; i++ {
		subs = append(subs, frame[off:off+subHeadSize])
		base = min(base, int64(binary.BigEndian.Uint64(frame[off+12:])))
		off += subHeadSize
	}
	out := append([]byte(nil), frame[:frameHeadSize]...)
	out[11] |= 1
	out = binary.BigEndian.AppendUint64(out, uint64(base))
	for _, sub := range subs {
		out = append(out, sub[:12]...)
		out = binary.BigEndian.AppendUint32(out, uint32(int64(binary.BigEndian.Uint64(sub[12:]))-base))
		out = append(out, sub[20:]...)
	}
	out = append(out, frame[off:]...)
	binary.BigEndian.PutUint32(out[4:], uint32(len(out)-frameHeadSize))
	return out
}

// validRecord is one well-formed v1 record.
func validRecord(tb testing.TB) []byte {
	return retiredRecord(tb, &Capture{
		APID:      3,
		ClientID:  7,
		Seq:       1,
		Timestamp: time.UnixMicro(1700000000000000).UTC(),
		Streams: [][]complex128{
			{complex(0.5, -0.25), complex(-1, 0.125)},
			{complex(0.75, 0.5), complex(0.25, -0.75)},
		},
	}, 0)
}

// validRegionRecord is one well-formed v2 record (region + priority).
func validRegionRecord(tb testing.TB) []byte {
	return retiredRecord(tb, &Capture{
		APID:      2,
		ClientID:  9,
		Seq:       4,
		Timestamp: time.UnixMicro(1700000000000000).UTC(),
		Streams: [][]complex128{
			{complex(0.5, -0.25), complex(-1, 0.125)},
			{complex(0.75, 0.5), complex(0.25, -0.75)},
		},
	}, retiredRegion|retiredPriority)
}

// putRegion returns a copy of rec with the region box at off replaced.
func putRegion(rec []byte, off int, box [5]float64) []byte {
	out := append([]byte(nil), rec...)
	for i, v := range box {
		binary.BigEndian.PutUint64(out[off+8*i:], math.Float64bits(v))
	}
	return out
}

// hostileScales are float32 scale fields no encoder writes: decoders
// must refuse each before touching a sample.
var hostileScales = []uint32{
	0x7FC00000, // NaN
	0x7F800001, // signalling NaN
	0x7F800000, // +Inf
	0xFF800000, // -Inf
	0x00000000, // 0
	0x80000000, // -0
	0xBF800000, // -1
}

// withUint32 returns a copy of rec with the 4 bytes at off replaced.
func withUint32(rec []byte, off int, v uint32) []byte {
	out := append([]byte(nil), rec...)
	binary.BigEndian.PutUint32(out[off:], v)
	return out
}

// assertFinite fails the test on a decoded NaN or ±Inf sample.
func assertFinite(t *testing.T, streams [][]complex128) {
	t.Helper()
	for _, st := range streams {
		for _, v := range st {
			for _, x := range [2]float64{real(v), imag(v)} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("decoded a non-finite sample %v", v)
				}
			}
		}
	}
}

// validBatchFrame encodes one well-formed frame to seed the corpus.
func validBatchFrame(tb testing.TB) []byte {
	tb.Helper()
	caps := []Capture{
		{
			APID: 3, ClientID: 7, Seq: 1,
			Timestamp: time.UnixMicro(1700000000000000).UTC(),
			Streams: [][]complex128{
				{complex(0.5, -0.25), complex(-1, 0.125)},
				{complex(0.75, 0.5), complex(0.25, -0.75)},
			},
		},
		{
			APID: 2, ClientID: 9, Seq: 4,
			Timestamp: time.UnixMicro(1700000000000001).UTC(),
			Streams: [][]complex128{
				{complex(0.5, -0.25), complex(-1, 0.125)},
			},
		},
	}
	frame, err := AppendBatch(nil, caps)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// shippedBatchFrame encodes one capture of the shape arraytrack-ap
// ships (nine antennas by the detector's window), so the fuzzer starts
// from the frame size production traffic has, not only toy records.
func shippedBatchFrame(tb testing.TB) []byte {
	tb.Helper()
	n := DefaultDetector().CaptureLen
	streams := make([][]complex128, 9)
	for k := range streams {
		streams[k] = make([]complex128, n)
		for i := range streams[k] {
			streams[k][i] = complex(float64((k*31+i*17)%64-32)/32, float64((k*13+i*29)%64-32)/32)
		}
	}
	frame, err := AppendBatch(nil, []Capture{{
		APID: 4, ClientID: 11, Seq: 2,
		Timestamp: time.UnixMicro(1700000000000002).UTC(),
		Streams:   streams,
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// FuzzReadBatch explores the frame decoder and the datagram path:
// truncated frames, lying counts, oversized sub-headers, set flag bits
// and the retired formats must all error — never panic, never
// allocate past the frame limits, never leave a workspace with a
// dangling reference.
func FuzzReadBatch(f *testing.F) {
	frame := validBatchFrame(f)
	f.Add(frame)
	f.Add([]byte{})
	f.Add(frame[:8])                                   // truncated frame header
	f.Add(frame[:frameHeadSize])                       // header only, no body
	f.Add(frame[:len(frame)-3])                        // truncated payload
	f.Add(append(append([]byte(nil), frame...), 0xAA)) // trailing byte
	shipped := shippedBatchFrame(f)
	f.Add(shipped)                  // the 9 x 10 capture the APs ship
	f.Add(shipped[:len(shipped)/2]) // ...cut mid-payload

	lyingCount := append([]byte(nil), frame...)
	binary.BigEndian.PutUint16(lyingCount[8:], 700) // count >> sub-headers present
	f.Add(lyingCount)
	zeroCount := append([]byte(nil), frame...)
	binary.BigEndian.PutUint16(zeroCount[8:], 0)
	f.Add(zeroCount)
	reserved := append([]byte(nil), frame...)
	reserved[10] = 0x80
	f.Add(reserved)
	hugeBody := append([]byte(nil), frame...)
	binary.BigEndian.PutUint32(hugeBody[4:], 0xFFFFFFFF) // bodyLen over MaxFrameBytes
	f.Add(hugeBody)
	hostileSub := append([]byte(nil), frame...)
	binary.BigEndian.PutUint16(hostileSub[frameHeadSize+24:], 0xFFFF) // nAnt over MaxAntennas
	f.Add(hostileSub)
	badFlags := append([]byte(nil), frame...)
	badFlags[frameHeadSize+28] = 0xFF
	f.Add(badFlags)
	f.Add(retiredRegionFrame(frame)) // region box and priority flag on a capture
	v1Magic := append([]byte(nil), frame...)
	binary.BigEndian.PutUint32(v1Magic[0:], retiredV1Magic) // v1 magic on a frame body
	f.Add(v1Magic)
	f.Add(validRecord(f))       // v1 record through the frame reader
	f.Add(validRegionRecord(f)) // v2 record through the frame reader
	for _, bits := range hostileScales {
		f.Add(withUint32(frame, frameHeadSize+20, bits))
	}
	top := withUint32(frame, frameHeadSize+20, 0x7F7FFFFF) // largest finite scale...
	f.Add(top)
	top = append([]byte(nil), top...)
	binary.BigEndian.PutUint16(top[len(top)-24:], 0x8000) // ...and -32768 in that capture's payload: refused
	f.Add(top)
	f.Add(withUint32(frame, frameHeadSize+20, 0x00000001)) // smallest subnormal scale

	// Retired delta-timestamp frames (frame flag bit0): a valid one, then
	// the hostile mutations against its compact sub-header layout.
	deltaFrame := retiredDeltaFrame(frame)
	f.Add(deltaFrame)
	f.Add(deltaFrame[:frameHeadSize+4])   // truncated base timestamp
	f.Add(deltaFrame[:len(deltaFrame)-3]) // truncated payload
	deltaLying := append([]byte(nil), deltaFrame...)
	binary.BigEndian.PutUint16(deltaLying[8:], 700)
	f.Add(deltaLying)
	deltaBadFF := append([]byte(nil), deltaFrame...)
	deltaBadFF[10] = 0x80 // reserved frame-flag bits beyond bit0
	f.Add(deltaBadFF)
	deltaHostileSub := append([]byte(nil), deltaFrame...)
	binary.BigEndian.PutUint16(deltaHostileSub[frameHeadSize+retiredBaseTS+20:], 0xFFFF) // nAnt
	f.Add(deltaHostileSub)
	deltaBadFlags := append([]byte(nil), deltaFrame...)
	deltaBadFlags[frameHeadSize+retiredBaseTS+24] = 0xFF
	f.Add(deltaBadFlags)
	for _, bits := range hostileScales {
		f.Add(withUint32(deltaFrame, frameHeadSize+retiredBaseTS+16, bits))
	}
	// The delta flag on an absolute body.
	flagMismatch := append([]byte(nil), frame...)
	flagMismatch[11] = 0x01
	f.Add(flagMismatch)

	f.Fuzz(fuzzIngest)
}

// FuzzReadCapture explores the same decoder from the retired
// per-record captures: v1 and v2 records with hostile headers,
// dimensions, scales and region boxes (the retired validation's cases),
// as a stale AP would still send them, must be refused as garbage is.
func FuzzReadCapture(f *testing.F) {
	valid := validRecord(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:8])                   // truncated header
	f.Add(valid[:len(valid)-3])        // truncated payload
	f.Add(bytes.Repeat([]byte{0}, 64)) // zero magic
	hostile := append([]byte(nil), valid...)
	binary.BigEndian.PutUint16(hostile[28:], 0xFFFF) // nAnt far over MaxAntennas
	binary.BigEndian.PutUint16(hostile[30:], 0xFFFF) // nSamp far over MaxSamples
	f.Add(hostile)
	zeroDims := append([]byte(nil), valid...)
	binary.BigEndian.PutUint16(zeroDims[28:], 0)
	f.Add(zeroDims)
	for _, bits := range hostileScales {
		f.Add(withUint32(valid, 24, bits))
	}
	f.Add(withUint32(valid, 24, 0x00000001)) // smallest subnormal scale
	recTop := withUint32(valid, 24, 0x7F7FFFFF)
	f.Add(recTop)
	recTop = append([]byte(nil), recTop...)
	binary.BigEndian.PutUint16(recTop[32:], 0x8000)
	f.Add(recTop)
	f.Add(append(append([]byte(nil), valid...), valid...)) // two records
	validV2 := validRegionRecord(f)
	f.Add(validV2)
	f.Add(validV2[:40])             // truncated region extension
	f.Add(validV2[:33])             // flags byte only
	f.Add(validV2[:len(validV2)-5]) // truncated payload after region
	nan := math.NaN()
	for _, box := range [][5]float64{
		{nan, 2, 11.5, 9.25, 0.25},      // NaN corner
		{3, 2, math.Inf(1), 9.25, 0.25}, // Inf corner
		{11.5, 9.25, 3, 2, 0.25},        // inverted box
		{3, 2, 3, 9.25, 0.25},           // degenerate (zero width)
		{3, 2, 11.5, 2, 0.25},           // degenerate (zero height)
		{0, 0, 0, 0, 0},                 // region flag on zero box
		{3, 2, 11.5, 9.25, nan},         // NaN cell
		{3, 2, 11.5, 9.25, -1},          // negative cell
		{3, 2, 11.5, 9.25, 1e-9},        // cell below the retired 1 cm floor
		{-1e12, 2, 11.5, 9.25, 0.25},    // coordinate out of range
	} {
		f.Add(putRegion(validV2, 33, box))
	}
	recBadFlags := append([]byte(nil), validV2...)
	recBadFlags[32] = 0xFF // unknown flag bits
	f.Add(recBadFlags)
	noFlagRegion := append([]byte(nil), validV2...)
	noFlagRegion[32] = 0 // region bytes present but flag clear
	f.Add(noFlagRegion)
	v2Magic := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(v2Magic[0:], retiredV2Magic) // v2 magic on a v1 body
	f.Add(v2Magic)
	v3Magic := append([]byte(nil), validV2...)
	binary.BigEndian.PutUint32(v3Magic[0:], batchMagic) // frame magic on a v2 body
	f.Add(v3Magic)

	f.Fuzz(fuzzIngest)
}

// fuzzIngest is both fuzzers' body: whatever decodes keeps the protocol
// limits and re-encodes, and every ingest path swallows the bytes.
func fuzzIngest(t *testing.T, data []byte) {
	// Stream framing (the ServeConn path).
	ws := GetIngestWorkspace()
	caps, err := ReadFrameInto(bytes.NewReader(data), ws)
	if err != nil {
		ws.Discard()
	} else {
		if len(caps) == 0 || len(caps) > MaxBatchCaptures {
			t.Fatalf("decoded %d captures from one frame", len(caps))
		}
		for i := range caps {
			c := &caps[i]
			if len(c.Streams) == 0 || len(c.Streams) > MaxAntennas || len(c.Streams[0]) > MaxSamples {
				t.Fatalf("capture %d violates protocol limits", i)
			}
			assertFinite(t, c.Streams)
		}
		// Anything that decodes must re-encode.
		if _, err := AppendBatch(nil, caps); err != nil {
			t.Fatalf("decoded batch failed to re-encode: %v", err)
		}
		ReleaseAll(caps)
	}
	// The datagram path (exact-fit rule, the backend's counters) and
	// stream ingest must swallow the same bytes without panicking.
	b := NewBackendDispatcher(1000, time.Second, DispatchFunc(func(_ uint32, cs []Capture) { ReleaseAll(cs) }))
	_ = b.IngestDatagram(data)
	_ = b.ServeConn(bytes.NewReader(data))
}

// TestServeConnRefusesRetiredFormats: a v1 record, a v2 record, a
// delta-timestamp frame and a frame carrying a region box each end the
// connection they arrive on as one decode error, after the good frame before them was ingested, and
// leave no workspace leased.
func TestServeConnRefusesRetiredFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	plain := batchCapture(rng, 2, 8)
	other := batchCapture(rng, 2, 8)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"v1 record", retiredRecord(t, &plain, 0), ErrBadMagic},
		{"v2 record", retiredRecord(t, &other, retiredRegion|retiredPriority), ErrBadMagic},
		{"delta frame", retiredDeltaFrame(mustFrame(t, []Capture{plain, other})), ErrBadFrame},
		{"region frame", retiredRegionFrame(mustFrame(t, []Capture{plain, other})), ErrBadFrame},
	}
	baseline := LeasedIngestWorkspaces()
	for _, tc := range cases {
		flushed := 0
		b := NewBackendDispatcher(1, time.Second, DispatchFunc(func(_ uint32, cs []Capture) {
			flushed += len(cs)
			ReleaseAll(cs)
		}))
		stream := append(mustFrame(t, []Capture{plain}), tc.data...)
		if err := b.ServeConn(bytes.NewReader(stream)); !errors.Is(err, tc.want) {
			t.Errorf("%s: ServeConn returned %v, want %v", tc.name, err, tc.want)
		}
		if flushed != 1 {
			t.Errorf("%s: %d captures flushed, want the good one", tc.name, flushed)
		}
		if h := b.Health(); h.ConnErrors != 1 {
			t.Errorf("%s: %d conn errors counted, want 1", tc.name, h.ConnErrors)
		}
		if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
			t.Fatalf("%s: %d pooled workspaces leaked", tc.name, leaked)
		}
	}
}
