package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// quantizeBoth runs the kernel and the reference loop over one record
// and fails on the first differing sample.
func quantizeBoth(t *testing.T, streams [][]complex128, peak float64) (fallbacks, samples int) {
	t.Helper()
	for _, st := range streams {
		samples += len(st)
	}
	got, want := make([]byte, 4*samples), make([]byte, 4*samples)
	fallbacks = quantizePayload(got, streams, peak)
	quantizePayloadRef(want, streams, peak)
	if !bytes.Equal(got, want) {
		for i := 0; i < samples; i++ {
			if !bytes.Equal(got[4*i:4*i+4], want[4*i:4*i+4]) {
				t.Fatalf("peak %g sample %d: kernel % x, reference % x", peak, i, got[4*i:4*i+4], want[4*i:4*i+4])
			}
		}
	}
	return fallbacks, samples
}

// TestQuantizerMatchesReference pins the guarded kernel to the
// reference loop byte for byte: on random records over the whole range
// of peaks, where the guard essentially never fires, and on constructed
// adversaries sitting on and beside every rounding boundary, where it
// must.
func TestQuantizerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	t.Run("random", func(t *testing.T) {
		fallbacks, samples := 0, 0
		for rec := 0; rec < 400; rec++ {
			peak := math.Pow(10, -300+600*rng.Float64())
			streams := make([][]complex128, 3)
			for a := range streams {
				streams[a] = make([]complex128, 64)
				for s := range streams[a] {
					streams[a][s] = complex((2*rng.Float64()-1)*peak, (2*rng.Float64()-1)*peak)
				}
			}
			streams[rng.Intn(3)][rng.Intn(64)] = complex(peak, -peak)
			f, n := quantizeBoth(t, streams, peak)
			fallbacks += f
			samples += n
		}
		// A component lands within 1e-6 of a boundary two times in a
		// million.
		if fallbacks > samples/5000 {
			t.Fatalf("%d of %d random samples took the guard", fallbacks, samples)
		}
		t.Logf("%d of %d random samples took the guard", fallbacks, samples)
	})

	t.Run("boundaries", func(t *testing.T) {
		for _, peak := range []float64{1, 0.37, 2.9e-3, 123.456, 6.02e23, 1.1e-290} {
			// Every half-integer step from -32766.5 to 32766.5: x lands
			// its product on the tie, a few ulps under and a few over.
			// Even and odd neighbours, both signs: everywhere half-even
			// and half-away could disagree.
			var row []complex128
			for n := -32767; n < 32767; n++ {
				x := (float64(n) + 0.5) * peak / 32767
				lo, hi := x, x
				for u := 0; u < 3; u++ {
					lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
					row = append(row, complex(lo, hi))
				}
				row = append(row, complex(x, -x))
			}
			f, n := quantizeBoth(t, [][]complex128{row}, peak)
			if f != n {
				t.Fatalf("peak %g: only %d of %d boundary samples took the guard", peak, f, n)
			}
		}
	})

	t.Run("edges", func(t *testing.T) {
		sub := math.SmallestNonzeroFloat64
		edges := func(peak float64) [][]complex128 {
			return [][]complex128{{
				complex(peak, -peak), complex(-peak, peak),
				complex(0, math.Copysign(0, -1)),
				complex(sub, -sub), complex(1e-310, -1e-310),
				complex(peak/32767, -peak/32767), complex(peak/65534, -peak/65534),
			}}
		}
		for _, peak := range []float64{1, 0.37, 1e300, 1e-300} {
			quantizeBoth(t, edges(peak), peak)
		}
		// A subnormal peak overflows k: every product is ±Inf or NaN and
		// the whole record goes to the reference.
		for _, peak := range []float64{1e-310, sub} {
			row := [][]complex128{{complex(peak, -peak), complex(peak/2, 0), complex(0, -peak/3)}}
			if f, n := quantizeBoth(t, row, peak); f != n {
				t.Fatalf("subnormal peak %g: %d of %d samples took the guard", peak, f, n)
			}
		}
		// An all-zero record (peak 1) never needs it.
		if f, _ := quantizeBoth(t, [][]complex128{make([]complex128, 64)}, 1); f != 0 {
			t.Fatalf("all-zero record took the guard %d times", f)
		}
		// A NaN cannot come through the encoders, but the kernel must not
		// trust a product it cannot bound.
		if f, _ := quantizeBoth(t, [][]complex128{{complex(math.NaN(), 0.25)}}, 1); f != 1 {
			t.Fatal("NaN sample stayed on the fast form")
		}
	})
}

// FuzzQuantizeMatchesReference drives the kernel with raw float64 bit
// patterns: whatever peak and in-range samples the fuzzer finds, the
// bytes equal the reference loop's.
func FuzzQuantizeMatchesReference(f *testing.F) {
	bits := math.Float64bits
	f.Add(bits(1), bits(0.5), bits(-0.25), bits(1), bits(-1))
	f.Add(bits(1), bits(0.5/32767), bits(1.5/32767), bits(-0.5/32767), bits(-2.5/32767))
	f.Add(bits(0.37), bits(0.37*100.5/32767), bits(-0.37*101.5/32767), bits(0), uint64(1<<63))
	f.Add(bits(1e-310), bits(1e-310), bits(-1e-311), bits(0), bits(5e-324))
	f.Add(bits(1e300), bits(1e300), bits(-1e-300), bits(1e299), bits(3e283))
	f.Add(bits(2), bits(math.NaN()), bits(1), bits(-2), bits(2))
	f.Fuzz(func(t *testing.T, peakBits, a, b, c, d uint64) {
		peak := math.Float64frombits(peakBits)
		if !(peak > 0) || math.IsInf(peak, 0) {
			t.Skip()
		}
		xs := [4]float64{math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c), math.Float64frombits(d)}
		for _, x := range xs {
			// The encoders guarantee |x| <= peak; a NaN is let through
			// to show it takes the reference.
			if math.Abs(x) > peak {
				t.Skip()
			}
		}
		quantizeBoth(t, [][]complex128{{complex(xs[0], xs[1])}, {complex(xs[2], xs[3])}}, peak)
	})
}

// wireRef is the reference decode of a frame: per capture, dequantRef
// on every payload component under the scale field of its own
// sub-header, read from the bytes without the decoder.
func wireRef(frame []byte) [][][]complex128 {
	count := int(binary.BigEndian.Uint16(frame[8:]))
	subs := make([][]byte, count)
	off := frameHeadSize
	for i := range subs {
		subs[i] = frame[off : off+subHeadSize]
		off += subHeadSize
	}
	payload := frame[off:]
	out := make([][][]complex128, count)
	for i, sub := range subs {
		scale := float64(math.Float32frombits(binary.BigEndian.Uint32(sub[20:])))
		out[i] = make([][]complex128, binary.BigEndian.Uint16(sub[24:]))
		for a := range out[i] {
			row := make([]complex128, binary.BigEndian.Uint16(sub[26:]))
			for s := range row {
				row[s] = complex(dequantRef(binary.BigEndian.Uint16(payload), scale), dequantRef(binary.BigEndian.Uint16(payload[2:]), scale))
				payload = payload[4:]
			}
			out[i][a] = row
		}
	}
	return out
}

// TestDequantMatchesReference pins the decoder's table kernel to
// dequantRef bit for bit: dequantRow over every int16 value in both
// lanes, at row lengths 0–9 so its 4-wide and 1-wide loops both run, at
// the extreme and the hostile-but-finite scales; and a whole
// ReadFrameInto decode against dequantRef applied to the frame's own
// payload bytes.
func TestDequantMatchesReference(t *testing.T) {
	// Sample k carries I = k and Q = ^k.
	const n = 1 << 16
	raw := make([]byte, 4*n)
	for k := 0; k < n; k++ {
		binary.BigEndian.PutUint16(raw[4*k:], uint16(k))
		binary.BigEndian.PutUint16(raw[4*k+2:], ^uint16(k))
	}
	scales := []float64{1, math.SmallestNonzeroFloat32, math.MaxFloat32}
	for _, bits := range hostileScales {
		if s := float64(math.Float32frombits(bits)); !math.IsNaN(s) && !math.IsInf(s, 0) {
			scales = append(scales, s)
		}
	}
	unset := complex(math.Inf(1), math.Inf(1))
	got := make([]complex128, n)
	for _, scale := range scales {
		for rowLen := 0; rowLen <= 9; rowLen++ {
			for k := range got {
				got[k] = unset
			}
			if rowLen == 0 {
				dequantRow(got[:0], raw, scale)
			}
			for k := 0; rowLen > 0 && k < n; k += rowLen {
				m := min(rowLen, n-k)
				dequantRow(got[k:k+m], raw[4*k:4*(k+m)], scale)
			}
			for k, v := range got {
				want := unset
				if rowLen > 0 {
					want = complex(dequantRef(uint16(k), scale), dequantRef(^uint16(k), scale))
				}
				if math.Float64bits(real(v)) != math.Float64bits(real(want)) || math.Float64bits(imag(v)) != math.Float64bits(imag(want)) {
					t.Fatalf("scale %g, rows of %d: sample %d decoded %v, reference %v", scale, rowLen, k, v, want)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(53))
	frame := mustFrame(t, []Capture{
		batchCapture(rng, benchAnt, benchSamp),
		batchCapture(rng, 3, 5),
		batchCapture(rng, 1, 1),
	})
	caps := readFrame(t, frame)
	defer ReleaseAll(caps)
	for i, want := range wireRef(frame) {
		if !sameBits(caps[i].Streams, want) {
			t.Fatalf("capture %d: ReadFrameInto differs from dequantRef of its payload", i)
		}
	}
}

// benchShapedFrame returns a frame of three shipped-shape captures.
func benchShapedFrame(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	return mustFrame(t, []Capture{
		batchCapture(rng, benchAnt, benchSamp),
		batchCapture(rng, benchAnt, benchSamp),
		batchCapture(rng, benchAnt, benchSamp),
	})
}

// readFrame decodes one stream frame into a fresh workspace.
func readFrame(t *testing.T, frame []byte) []Capture {
	t.Helper()
	ws := GetIngestWorkspace()
	caps, err := ReadFrameInto(bytes.NewReader(frame), ws)
	if err != nil {
		ws.Discard()
		t.Fatal(err)
	}
	return caps
}

// forgetWire returns copies of caps without their remembered payload,
// which sends them through the quantizer.
func forgetWire(caps []Capture) []Capture {
	out := append([]Capture(nil), caps...)
	for i := range out {
		out[i].received = 0
	}
	return out
}

// cloneStreams copies streams out of whatever memory they borrow.
func cloneStreams(streams [][]complex128) [][]complex128 {
	out := make([][]complex128, len(streams))
	for a, st := range streams {
		out[a] = append([]complex128(nil), st...)
	}
	return out
}

// TestReencodeVerbatimEqualsRequantized pins the remembered payload:
// forwarding a received capture by copying its wire bytes gives the
// frame re-quantizing its streams would have given, and every capture
// that no longer is what was received goes back to the quantizer.
func TestReencodeVerbatimEqualsRequantized(t *testing.T) {
	baseline := LeasedIngestWorkspaces()
	frame := benchShapedFrame(t)

	t.Run("idempotent", func(t *testing.T) {
		caps := readFrame(t, frame)
		defer ReleaseAll(caps)
		for i := range caps {
			if wire, _ := caps[i].wirePayload(); len(wire) != benchAnt*benchSamp*4 {
				t.Fatalf("capture %d remembers %d payload bytes", i, len(wire))
			}
		}
		// The peak sample always encodes as ±32767, so the decoded
		// streams re-quantize to the bytes they came from.
		verbatim, requantized := mustFrame(t, caps), mustFrame(t, forgetWire(caps))
		if !bytes.Equal(verbatim, requantized) {
			t.Fatal("verbatim re-encode differs from re-quantizing the decoded streams")
		}
		if !bytes.Equal(verbatim, frame) {
			t.Fatal("re-encode does not reproduce the received frame")
		}
	})

	t.Run("foreign", func(t *testing.T) {
		// Another encoder's frame: every int16 halved, so the largest
		// sample sits near 16383 and re-quantizing would rescale it.
		foreign := append([]byte(nil), frame...)
		payload := foreign[len(foreign)-3*benchAnt*benchSamp*4:]
		for o := 0; o < len(payload); o += 2 {
			binary.BigEndian.PutUint16(payload[o:], uint16(int16(binary.BigEndian.Uint16(payload[o:]))/2))
		}
		caps := readFrame(t, foreign)
		defer ReleaseAll(caps)
		if got := mustFrame(t, caps); !bytes.Equal(got, foreign) {
			t.Fatal("verbatim re-encode does not reproduce the received bytes")
		}
		if got := mustFrame(t, forgetWire(caps)); bytes.Equal(got, foreign) {
			t.Fatal("re-quantizing a half-scale frame reproduced it: the test has no teeth")
		}
	})

	t.Run("records", func(t *testing.T) {
		// One capture per frame, as arraytrack-ap -batch 1 sends.
		// Half-scale payloads again, so only a verbatim copy reproduces
		// them.
		caps := readFrame(t, frame)
		defer ReleaseAll(caps)
		for i := range caps {
			one := mustFrame(t, caps[i:i+1])
			payload := one[len(one)-benchAnt*benchSamp*4:]
			for o := 0; o < len(payload); o += 2 {
				binary.BigEndian.PutUint16(payload[o:], uint16(int16(binary.BigEndian.Uint16(payload[o:]))/2))
			}
			c := readFrame(t, one)
			if got := mustFrame(t, c); !bytes.Equal(got, one) {
				t.Fatalf("capture %d: re-encode does not reproduce the received frame", i)
			}
			if requant := mustFrame(t, forgetWire(c)); bytes.Equal(requant, one) {
				t.Fatalf("capture %d: re-quantizing reproduced a half-scale payload: the test has no teeth", i)
			}
			ReleaseAll(c)
		}
	})

	t.Run("fallbacks", func(t *testing.T) {
		caps := readFrame(t, frame)
		want := mustFrame(t, forgetWire(caps))

		// Datagram decode reads from a buffer the caller reuses.
		two := mustFrame(t, caps[:2])
		ws := GetIngestWorkspace()
		dg, err := DecodeDatagramInto(two, ws)
		if err != nil {
			ws.Discard()
			t.Fatal(err)
		}
		for i := range dg {
			if wire, _ := dg[i].wirePayload(); wire != nil {
				t.Fatalf("datagram capture %d remembers a payload it does not own", i)
			}
		}
		if !bytes.Equal(mustFrame(t, dg), two) {
			t.Fatal("datagram-decoded captures re-encode differently")
		}
		ReleaseAll(dg)

		// Streams re-sliced to another length no longer match the
		// remembered payload.
		short := append([]Capture(nil), caps...)
		fresh := forgetWire(caps)
		for i := range short {
			cut := make([][]complex128, benchAnt)
			for a := range cut {
				cut[a] = caps[i].Streams[a][:benchSamp/2]
			}
			short[i].Streams, fresh[i].Streams = cut, cloneStreams(cut)
		}
		if !bytes.Equal(mustFrame(t, short), mustFrame(t, fresh)) {
			t.Fatal("re-sliced captures were not re-quantized")
		}

		// Streams of the same shape in other memory are not what was
		// received, whatever the capture still remembers.
		other := append([]Capture(nil), caps...)
		fresh = forgetWire(caps)
		for i := range other {
			st := cloneStreams(caps[i].Streams)
			st[0][0], st[benchAnt-1][benchSamp-1] = -st[0][0], 0
			other[i].Streams, fresh[i].Streams = st, st
		}
		if got := mustFrame(t, other); !bytes.Equal(got, mustFrame(t, fresh)) {
			t.Fatal("captures given other streams were not re-quantized")
		} else if bytes.Equal(got, want) {
			t.Fatal("edited streams encode like the originals: the test has no teeth")
		}

		// A released capture forgets its payload with its lease.
		kept := make([][][]complex128, len(caps))
		for i := range caps {
			kept[i] = cloneStreams(caps[i].Streams)
		}
		ReleaseAll(caps)
		for i := range caps {
			if wire, _ := caps[i].wirePayload(); wire != nil {
				t.Fatalf("released capture %d still remembers its payload", i)
			}
			caps[i].Streams = kept[i]
		}
		if !bytes.Equal(mustFrame(t, caps), want) {
			t.Fatal("released captures re-encode differently")
		}
	})

	if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
		t.Fatalf("%d pooled workspaces leaked", leaked)
	}
}

// absScaleOff locates the scale field of a frame's first sub-header.
const absScaleOff = frameHeadSize + 20

// TestDecodeRefusesBadScale: four hostile bytes in the scale field used
// to decode into NaN or ±Inf streams that failed the whole fix inside
// synthesis. Both decoders now refuse them before touching a sample,
// hand their workspace back, and the backend charges the sender.
func TestDecodeRefusesBadScale(t *testing.T) {
	baseline := LeasedIngestWorkspaces()
	rng := rand.New(rand.NewSource(5))
	ts := time.UnixMicro(1700000000000000).UTC()
	good := []Capture{wireCapture(rng, 5, 9, ts), wireCapture(rng, 5, 9, ts.Add(time.Millisecond))}
	abs := mustFrame(t, good)

	pooled := func(read func(ws *IngestWorkspace) error) error {
		ws := GetIngestWorkspace()
		err := read(ws)
		if err == nil {
			t.Error("poisoned input decoded")
			ReleaseAll(ws.captures)
			return nil
		}
		ws.Discard()
		return err
	}
	// refused decodes a frame poisoned in its first capture and one
	// poisoned in its second: pass 1 must stop before any sample of the
	// first is decoded either.
	refused := func(label string, badFirst, badSecond []byte) {
		errs := map[string]error{
			"ReadFrameInto": pooled(func(ws *IngestWorkspace) error {
				_, err := ReadFrameInto(bytes.NewReader(badFirst), ws)
				return err
			}),
			"ReadFrameInto/second": pooled(func(ws *IngestWorkspace) error {
				_, err := ReadFrameInto(bytes.NewReader(badSecond), ws)
				return err
			}),
			"DecodeDatagramInto": pooled(func(ws *IngestWorkspace) error {
				_, err := DecodeDatagramInto(badFirst, ws)
				return err
			}),
		}
		for name, err := range errs {
			if !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s through %s: %v, want ErrBadFrame", label, name, err)
			}
		}
	}
	for _, bits := range hostileScales {
		refused(fmt.Sprintf("scale %#08x", bits),
			withUint32(abs, absScaleOff, bits), withUint32(abs, absScaleOff+subHeadSize, bits))
	}

	// The largest finite scale is fine by itself, but an int16 of -32768
	// under it decodes past the float32 range: the capture could never be
	// encoded again, so it is refused here, where its sender is charged.
	const topScale = 0x7F7FFFFF
	payloadLen := 4 * len(good[0].Streams) * len(good[0].Streams[0])
	topFirst := withUint32(abs, absScaleOff, topScale)
	topSecond := withUint32(abs, absScaleOff+subHeadSize, topScale)
	for _, ok := range [][]byte{topFirst, topSecond} {
		caps := readFrame(t, ok)
		if _, err := AppendBatch(nil, forgetWire(caps)); err != nil {
			t.Errorf("top-of-range scale does not re-encode: %v", err)
		}
		ReleaseAll(caps)
	}
	withMin := func(rec []byte, off int) []byte {
		out := append([]byte(nil), rec...)
		binary.BigEndian.PutUint16(out[off:], 0x8000)
		return out
	}
	refused("-32768 at the largest scale",
		withMin(topFirst, len(topFirst)-2*payloadLen), withMin(topSecond, len(topSecond)-2))
	if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
		t.Fatalf("%d pooled workspaces leaked by refused frames", leaked)
	}

	// Accounting: a good frame, then a poisoned one on the same
	// connection. The good captures flush, the connection dies as a
	// decode error, and the error lands on the sending AP's budget.
	var flushed int
	b := NewBackendDispatcher(1, time.Second, DispatchFunc(func(_ uint32, cs []Capture) {
		flushed += len(cs)
		ReleaseAll(cs)
	}))
	b.ErrorBudget = 1
	stream := append(append([]byte(nil), abs...), withUint32(abs, absScaleOff, 0x7FC00000)...)
	if err := b.ServeConn(bytes.NewReader(stream)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("ServeConn returned %v, want ErrBadFrame", err)
	}
	if flushed != len(good) {
		t.Fatalf("%d captures flushed, want the %d good ones", flushed, len(good))
	}
	if h := b.Health(); h.ConnErrors != 1 || h.Quarantines != 1 || h.Quarantined != 1 {
		t.Fatalf("poisoned frame not charged to its AP: %+v", h)
	}
	if err := b.IngestDatagram(withUint32(abs, absScaleOff, 0x7F800000)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("IngestDatagram returned %v, want ErrBadFrame", err)
	}
	if u := b.UDP(); u.Bad != 1 || u.Captures != 0 {
		t.Fatalf("poisoned datagram not counted: %+v", u)
	}
	if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
		t.Fatalf("%d pooled workspaces leaked", leaked)
	}
}

// TestEncodersErrorContract: AppendBatch returns dst exactly as it was
// given on any error — no half-written frame behind it — and
// refuses samples the fixed-point payload cannot carry instead of
// writing a garbage scale.
func TestEncodersErrorContract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	good := func() Capture { return batchCapture(rng, 3, 16) }
	with := func(v complex128) Capture {
		c := good()
		c.Streams[1][7] = v
		return c
	}
	ragged := good()
	ragged.Streams[2] = ragged.Streams[2][:9]
	bad := []struct {
		name string
		c    Capture
		is   error
	}{
		{"ragged", ragged, nil},
		{"NaN I", with(complex(math.NaN(), 0)), ErrBadSamples},
		{"NaN Q", with(complex(0, math.NaN())), ErrBadSamples},
		{"+Inf", with(complex(math.Inf(1), 0)), ErrBadSamples},
		{"-Inf", with(complex(0, math.Inf(-1))), ErrBadSamples},
		{"beyond float32", with(complex(1e300, 0)), ErrBadSamples},
	}
	encoders := []struct {
		name string
		enc  func(dst []byte, lead, c Capture) ([]byte, error)
	}{
		// Behind a good capture the failure is met with headers already
		// laid out; alone, at the frame's first capture.
		{"AppendBatch", func(dst []byte, lead, c Capture) ([]byte, error) { return AppendBatch(dst, []Capture{lead, c}) }},
		{"AppendBatch/alone", func(dst []byte, _, c Capture) ([]byte, error) { return AppendBatch(dst, []Capture{c}) }},
	}
	for _, e := range encoders {
		for _, tc := range bad {
			// Once with room to spare (an in-place write would show
			// through) and once forcing growth.
			for _, spare := range []int{0, 1 << 12} {
				dst := append(make([]byte, 0, 6+spare), "prefix"...)
				out, err := e.enc(dst, good(), tc.c)
				switch {
				case err == nil:
					t.Errorf("%s(%s): encoded", e.name, tc.name)
				case tc.is != nil && !errors.Is(err, tc.is):
					t.Errorf("%s(%s): %v, want %v", e.name, tc.name, err, tc.is)
				case string(out) != "prefix":
					t.Errorf("%s(%s): returned %d bytes behind a 6-byte dst", e.name, tc.name, len(out))
				}
			}
		}
	}

	// A peak too small for the scale field is carried at the smallest
	// scale there is, not as a zero the decoders would refuse.
	tiny := good()
	for a := range tiny.Streams {
		for s := range tiny.Streams[a] {
			tiny.Streams[a][s] *= 1e-50
		}
	}
	caps := readFrame(t, mustFrame(t, []Capture{tiny}))
	defer ReleaseAll(caps)
	if _, scale := caps[0].wirePayload(); scale != math.SmallestNonzeroFloat32 {
		t.Fatalf("tiny record carried scale %g", scale)
	}
}
