package server

// Fuzzing for the wire decoder: the backend reads capture records from
// whatever connects to its TCP port, so ReadCapture and ServeConn must
// reject arbitrary garbage with an error — never a panic, and never an
// unbounded allocation. `go test` runs the seed corpus; `go test
// -fuzz=FuzzReadCapture ./internal/server` explores further.

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// validRecord encodes one well-formed capture to seed the corpus.
func validRecord(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	c := &Capture{
		APID:      3,
		ClientID:  7,
		Seq:       1,
		Timestamp: time.UnixMicro(1700000000000000).UTC(),
		Streams: [][]complex128{
			{complex(0.5, -0.25), complex(-1, 0.125)},
			{complex(0.75, 0.5), complex(0.25, -0.75)},
		},
	}
	if err := WriteCapture(&buf, c); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// validRegionRecord encodes a well-formed v2 capture (region +
// priority) to seed the corpus.
func validRegionRecord(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	c := &Capture{
		APID:      2,
		ClientID:  9,
		Seq:       4,
		Timestamp: time.UnixMicro(1700000000000000).UTC(),
		Region:    core.Region{Min: geom.Pt(3, 2), Max: geom.Pt(11.5, 9.25), Cell: 0.25},
		Priority:  true,
		Streams: [][]complex128{
			{complex(0.5, -0.25), complex(-1, 0.125)},
			{complex(0.75, 0.5), complex(0.25, -0.75)},
		},
	}
	if err := WriteCapture(&buf, c); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// putRegion overwrites the region box of a v2 record in place.
func putRegion(rec []byte, minX, minY, maxX, maxY, cell float64) []byte {
	out := append([]byte(nil), rec...)
	binary.BigEndian.PutUint64(out[33:], math.Float64bits(minX))
	binary.BigEndian.PutUint64(out[41:], math.Float64bits(minY))
	binary.BigEndian.PutUint64(out[49:], math.Float64bits(maxX))
	binary.BigEndian.PutUint64(out[57:], math.Float64bits(maxY))
	binary.BigEndian.PutUint64(out[65:], math.Float64bits(cell))
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

func FuzzReadCapture(f *testing.F) {
	valid := validRecord(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:8])                   // truncated header
	f.Add(valid[:len(valid)-3])        // truncated payload
	f.Add(bytes.Repeat([]byte{0}, 64)) // zero magic

	// Plausible header fields with hostile dimensions.
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
	top := withUint32(valid, 24, 0x7F7FFFFF) // largest finite scale...
	f.Add(top)
	top = append([]byte(nil), top...)
	binary.BigEndian.PutUint16(top[32:], 0x8000) // ...and an int16 no encoder writes: decodes past the float32 range, refused
	f.Add(top)
	f.Add(append(append([]byte(nil), valid...), valid...)) // two records

	// Version-2 region records: one well-formed, then a battery of
	// degenerate, inverted, NaN/Inf, and out-of-range boxes that the
	// decoder must reject cleanly (error, never a panic).
	validV2 := validRegionRecord(f)
	f.Add(validV2)
	f.Add(validV2[:40])             // truncated region extension
	f.Add(validV2[:33])             // flags byte only
	f.Add(validV2[:len(validV2)-5]) // truncated payload after region
	nan := math.NaN()
	f.Add(putRegion(validV2, nan, 2, 11.5, 9.25, 0.25))      // NaN corner
	f.Add(putRegion(validV2, 3, 2, math.Inf(1), 9.25, 0.25)) // Inf corner
	f.Add(putRegion(validV2, 11.5, 9.25, 3, 2, 0.25))        // inverted box
	f.Add(putRegion(validV2, 3, 2, 3, 9.25, 0.25))           // degenerate (zero width)
	f.Add(putRegion(validV2, 3, 2, 11.5, 2, 0.25))           // degenerate (zero height)
	f.Add(putRegion(validV2, 0, 0, 0, 0, 0))                 // region flag on zero box
	f.Add(putRegion(validV2, 3, 2, 11.5, 9.25, nan))         // NaN cell
	f.Add(putRegion(validV2, 3, 2, 11.5, 9.25, -1))          // negative cell
	f.Add(putRegion(validV2, 3, 2, 11.5, 9.25, 1e-9))        // cell below MinRegionCell
	f.Add(putRegion(validV2, -1e12, 2, 11.5, 9.25, 0.25))    // coordinate out of range
	badFlags := append([]byte(nil), validV2...)
	badFlags[32] = 0xFF // unknown flag bits
	f.Add(badFlags)
	noFlagRegion := append([]byte(nil), validV2...)
	noFlagRegion[32] = 0 // region bytes present but flag clear
	f.Add(noFlagRegion)
	v2Magic := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(v2Magic[0:], 0x41540002) // v2 magic on a v1 body
	f.Add(v2Magic)
	v3Magic := append([]byte(nil), validV2...)
	binary.BigEndian.PutUint32(v3Magic[0:], 0x41540003) // batch magic on a v2 body
	f.Add(v3Magic)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCapture(bytes.NewReader(data))
		if err == nil {
			if c == nil {
				t.Fatal("nil capture with nil error")
			}
			if len(c.Streams) == 0 || len(c.Streams) > MaxAntennas || len(c.Streams[0]) > MaxSamples {
				t.Fatalf("decoded record violates protocol limits: %d antennas", len(c.Streams))
			}
			// A decoded region is always either unset or valid: hostile
			// boxes must never survive decode.
			if err := c.Region.Validate(); err != nil {
				t.Fatalf("decoded capture carries invalid region %+v: %v", c.Region, err)
			}
			// Every decoded sample is finite, and anything that
			// decodes must re-encode.
			assertFinite(t, c.Streams)
			if err := WriteCapture(&bytes.Buffer{}, c); err != nil {
				t.Fatalf("decoded capture failed to re-encode: %v", err)
			}
		}
		// The pooled single-record reader must agree with ReadCapture
		// byte for byte: same accept/reject decision, bit-identical
		// streams on accept.
		ws := GetIngestWorkspace()
		pc, perr := ReadCaptureInto(bytes.NewReader(data), ws)
		if (err == nil) != (perr == nil) {
			t.Fatalf("ReadCapture err %v but ReadCaptureInto err %v", err, perr)
		}
		if perr == nil {
			identical := len(pc.Streams) == len(c.Streams)
			for a := 0; identical && a < len(c.Streams); a++ {
				identical = len(pc.Streams[a]) == len(c.Streams[a])
				for s := 0; identical && s < len(c.Streams[a]); s++ {
					identical = math.Float64bits(real(pc.Streams[a][s])) == math.Float64bits(real(c.Streams[a][s])) &&
						math.Float64bits(imag(pc.Streams[a][s])) == math.Float64bits(imag(c.Streams[a][s]))
				}
			}
			if !identical {
				t.Fatal("pooled decode diverges from ReadCapture")
			}
			pc.Release()
		} else {
			ws.Discard()
		}
		// The ingest path must swallow the same bytes without
		// panicking, whatever the error outcome.
		b := NewBackend(1000, time.Second, func(uint32, []Capture) {})
		_ = b.ServeConn(bytes.NewReader(data))
	})
}

// validBatchFrame encodes one well-formed v3 frame to seed the batch
// corpus.
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
			Region:    core.Region{Min: geom.Pt(3, 2), Max: geom.Pt(11.5, 9.25), Cell: 0.25},
			Priority:  true,
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
// ships (nine antennas by the detector's window), so the fuzzers start
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

// validDeltaBatchFrame encodes the same captures as validBatchFrame in
// the compact delta-timestamp form.
func validDeltaBatchFrame(tb testing.TB) []byte {
	tb.Helper()
	abs := validBatchFrame(tb)
	ws := GetIngestWorkspace()
	caps, err := ReadBatchInto(bytes.NewReader(abs), ws)
	if err != nil {
		ws.Discard()
		tb.Fatal(err)
	}
	frame, err := AppendBatchDelta(nil, caps)
	ReleaseAll(caps)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// FuzzReadBatch explores the v3 batch decoder and the datagram path:
// truncated frames, lying counts, oversized sub-headers, and hostile
// regions must all error — never panic, never allocate past the frame
// limits, never leave a workspace with a dangling reference.
func FuzzReadBatch(f *testing.F) {
	frame := validBatchFrame(f)
	f.Add(frame)
	f.Add([]byte{})
	f.Add(frame[:8])                                   // truncated frame header
	f.Add(frame[:frameHeadSize])                       // header only, no body
	f.Add(frame[:len(frame)-3])                        // truncated payload
	f.Add(append(append([]byte(nil), frame...), 0xAA)) // trailing byte
	shipped := shippedBatchFrame(f)
	f.Add(shipped)                  // the 9 x 128 capture the APs ship
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
	v1Magic := append([]byte(nil), frame...)
	binary.BigEndian.PutUint32(v1Magic[0:], 0x41540001) // v1 magic on a batch body
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

	// Delta-timestamp frames (frame flag bit0): a valid one, then the
	// same hostile mutations against the compact sub-header layout.
	deltaFrame := validDeltaBatchFrame(f)
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
	binary.BigEndian.PutUint16(deltaHostileSub[frameHeadSize+baseTSSize+20:], 0xFFFF) // nAnt
	f.Add(deltaHostileSub)
	deltaBadFlags := append([]byte(nil), deltaFrame...)
	deltaBadFlags[frameHeadSize+baseTSSize+24] = 0xFF
	f.Add(deltaBadFlags)
	for _, bits := range hostileScales {
		f.Add(withUint32(deltaFrame, frameHeadSize+baseTSSize+16, bits))
	}
	// Absolute-form flag flipped on without re-laying-out the body:
	// the sub-headers no longer parse as the compact form and the
	// decoder must reject, not misread.
	flagMismatch := append([]byte(nil), frame...)
	flagMismatch[11] = 0x01
	f.Add(flagMismatch)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Stream framing (the ServeConn path, mixed versions).
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
				if err := c.Region.Validate(); err != nil {
					t.Fatalf("capture %d carries invalid region: %v", i, err)
				}
				assertFinite(t, c.Streams)
			}
			// Anything that decodes must re-encode as a batch, in both
			// timestamp forms, and the compact form must decode back to
			// the same timestamps.
			if _, err := AppendBatch(nil, caps); err != nil {
				t.Fatalf("decoded batch failed to re-encode: %v", err)
			}
			delta, err := AppendBatchDelta(nil, caps)
			if err != nil {
				t.Fatalf("decoded batch failed to re-encode in delta form: %v", err)
			}
			ws2 := GetIngestWorkspace()
			caps2, err := ReadBatchInto(bytes.NewReader(delta), ws2)
			if err != nil {
				ws2.Discard()
				t.Fatalf("delta re-encode does not decode: %v", err)
			}
			if len(caps2) != len(caps) {
				t.Fatalf("delta round trip changed count: %d != %d", len(caps2), len(caps))
			}
			for i := range caps {
				// Compare at wire precision: extreme hostile timestamps
				// may not round-trip through time.Time exactly, but the
				// µs value the wire carries must.
				if caps2[i].Timestamp.UnixMicro() != caps[i].Timestamp.UnixMicro() {
					t.Fatalf("capture %d: delta round trip moved timestamp %v → %v",
						i, caps[i].Timestamp, caps2[i].Timestamp)
				}
			}
			ReleaseAll(caps2)
			ReleaseAll(caps)
		}
		// Datagram framing (exact-fit rule) and the backend's counter
		// path must swallow the same bytes without panicking.
		b := NewBackend(1000, time.Second, func(uint32, []Capture) {})
		_ = b.IngestDatagram(data)
	})
}
