package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"
)

// batchCapture builds one randomized capture for the differential
// tests.
func batchCapture(rng *rand.Rand, nAnt, nSamp int) Capture {
	c := Capture{
		APID:      rng.Uint32(),
		ClientID:  rng.Uint32(),
		Seq:       rng.Uint32(),
		Timestamp: time.UnixMicro(1700000000000000 + rng.Int63n(1e9)).UTC(),
		Streams:   make([][]complex128, nAnt),
	}
	for a := range c.Streams {
		st := make([]complex128, nSamp)
		for s := range st {
			st[s] = complex(rng.NormFloat64(), rng.NormFloat64()) * 2e-3
		}
		c.Streams[a] = st
	}
	return c
}

// sameBits reports whether two streams carry bit-identical samples.
func sameBits(a, b [][]complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(real(a[i][j])) != math.Float64bits(real(b[i][j])) ||
				math.Float64bits(imag(a[i][j])) != math.Float64bits(imag(b[i][j])) {
				return false
			}
		}
	}
	return true
}

// TestBatchDifferentialBitIdentical pins the codec to its reference
// definitions: random bursts shipped through WriteBatch → ReadFrameInto
// carry quantizeRef's bytes on the wire, decode to dequantRef of those
// bytes, and keep their metadata.
func TestBatchDifferentialBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		caps := make([]Capture, n)
		var payload []byte
		for i := range caps {
			caps[i] = batchCapture(rng, 1+rng.Intn(8), 1+rng.Intn(32))
			peak, err := samplePeak(caps[i].Streams)
			if err != nil {
				t.Fatal(err)
			}
			ref := make([]byte, 4*len(caps[i].Streams)*len(caps[i].Streams[0]))
			quantizePayloadRef(ref, caps[i].Streams, peak)
			payload = append(payload, ref...)
		}
		var frame bytes.Buffer
		if err := WriteBatch(&frame, caps); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(frame.Bytes(), payload) {
			t.Fatalf("trial %d: payload is not the reference quantizer's bytes", trial)
		}
		got := readFrame(t, frame.Bytes())
		if len(got) != n {
			t.Fatalf("trial %d: decoded %d captures, want %d", trial, len(got), n)
		}
		for i, want := range wireRef(frame.Bytes()) {
			g, w := &got[i], &caps[i]
			if g.APID != w.APID || g.ClientID != w.ClientID || g.Seq != w.Seq ||
				!g.Timestamp.Equal(w.Timestamp) {
				t.Fatalf("trial %d capture %d: metadata mismatch\n got %+v\nwant %+v", trial, i, g, w)
			}
			if !sameBits(g.Streams, want) {
				t.Fatalf("trial %d capture %d: streams not bit-identical to dequantRef", trial, i)
			}
		}
		ReleaseAll(got)
	}
}

// TestReadFrameIntoMixedStream drives the stream reader over frames of
// different sizes back to back — a one-capture frame, a three-capture
// burst, and another single capture — as one connection delivers them.
func TestReadFrameIntoMixedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	single := batchCapture(rng, 2, 4)
	last := batchCapture(rng, 3, 5)
	batch := []Capture{
		batchCapture(rng, 2, 8),
		batchCapture(rng, 4, 2),
		batchCapture(rng, 1, 16),
	}
	var stream bytes.Buffer
	for _, caps := range [][]Capture{{single}, batch, {last}} {
		if err := WriteBatch(&stream, caps); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream.Bytes())
	var decoded []Capture
	for {
		ws := GetIngestWorkspace()
		caps, err := ReadFrameInto(r, ws)
		if err != nil {
			ws.Discard()
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		for i := range caps {
			// Retain past the workspace: deep-copy like a real consumer.
			cp := caps[i]
			cp.Streams = cloneStreams(cp.Streams)
			decoded = append(decoded, cp)
		}
		ReleaseAll(caps)
	}
	if len(decoded) != 5 {
		t.Fatalf("decoded %d captures, want 5", len(decoded))
	}
	wantOrder := []uint32{single.Seq, batch[0].Seq, batch[1].Seq, batch[2].Seq, last.Seq}
	for i, w := range wantOrder {
		if decoded[i].Seq != w {
			t.Errorf("capture %d: seq %d, want %d", i, decoded[i].Seq, w)
		}
	}
}

// mustFrame encodes caps as one v3 frame.
func mustFrame(tb testing.TB, caps []Capture) []byte {
	tb.Helper()
	out, err := AppendBatch(nil, caps)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestAppendFramesChunks: AppendFrames ships any number of captures as
// frames of at most MaxBatchCaptures, each the bytes AppendBatch writes
// for its chunk, and leaves dst as given when a capture cannot encode.
func TestAppendFramesChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	caps := make([]Capture, MaxBatchCaptures+3)
	for i := range caps {
		caps[i] = batchCapture(rng, 1, 2)
	}
	got, err := AppendFrames([]byte("x"), caps)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte("x"), mustFrame(t, caps[:MaxBatchCaptures])...), mustFrame(t, caps[MaxBatchCaptures:])...)
	if !bytes.Equal(got, want) {
		t.Fatal("AppendFrames is not one AppendBatch per MaxBatchCaptures chunk")
	}
	caps[MaxBatchCaptures+1].Streams[0][0] = complex(math.NaN(), 0)
	if got, err := AppendFrames([]byte("x"), caps); !errors.Is(err, ErrBadSamples) || string(got) != "x" {
		t.Fatalf("a capture that cannot encode: %q, %v; want dst as given and ErrBadSamples", got[:min(len(got), 8)], err)
	}
}

// decodeBatch runs the stream reader over data with a throwaway
// workspace, releasing on success.
func decodeBatch(data []byte) error {
	ws := GetIngestWorkspace()
	caps, err := ReadFrameInto(bytes.NewReader(data), ws)
	if err != nil {
		ws.Discard()
		return err
	}
	ReleaseAll(caps)
	return nil
}

// TestBatchRejects feeds the decoder frames whose header, sub-headers,
// and payload disagree: every case must error — never panic, never
// decode.
func TestBatchRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	valid := mustFrame(t, []Capture{
		batchCapture(rng, 2, 3),
		batchCapture(rng, 2, 3),
	})
	if err := decodeBatch(valid); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	mut := func(f func(d []byte)) []byte {
		d := append([]byte(nil), valid...)
		f(d)
		return d
	}
	cases := []struct {
		name string
		data []byte
		want error // nil: any error accepted
	}{
		{"truncated header", valid[:8], nil},
		{"truncated body", valid[:len(valid)-5], nil},
		{"reserved bits", mut(func(d []byte) { d[10] = 1 }), ErrBadFrame},
		{"retired delta flag", mut(func(d []byte) { d[11] = 1 }), ErrBadFrame},
		{"zero count", mut(func(d []byte) { binary.BigEndian.PutUint16(d[8:], 0) }), ErrTooLarge},
		{"count over limit", mut(func(d []byte) { binary.BigEndian.PutUint16(d[8:], MaxBatchCaptures+1) }), ErrTooLarge},
		{"count lies high", mut(func(d []byte) { binary.BigEndian.PutUint16(d[8:], 3) }), nil},
		{"count lies low", mut(func(d []byte) { binary.BigEndian.PutUint16(d[8:], 1) }), ErrBadFrame},
		{"oversized antennas", mut(func(d []byte) { binary.BigEndian.PutUint16(d[12+24:], 0xFFFF) }), ErrTooLarge},
		{"oversized samples", mut(func(d []byte) { binary.BigEndian.PutUint16(d[12+26:], 0xFFFF) }), ErrTooLarge},
		{"unknown sub flags", mut(func(d []byte) { d[12+28] = 0x80 }), ErrBadFrame},
		{"payload accounting", mut(func(d []byte) { binary.BigEndian.PutUint16(d[12+26:], 2) }), ErrBadFrame},
		{"bodyLen over limit", mut(func(d []byte) { binary.BigEndian.PutUint32(d[4:], MaxFrameBytes+1) }), ErrTooLarge},
		{"bodyLen starves count", mut(func(d []byte) { binary.BigEndian.PutUint32(d[4:], 12) }), ErrBadFrame},
	}
	for _, tc := range cases {
		err := decodeBatch(tc.data)
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.want)
		}
	}

	// Encoder-side limits.
	if _, err := AppendBatch(nil, nil); err == nil {
		t.Error("empty batch should fail to encode")
	}
	if _, err := AppendBatch(nil, make([]Capture, MaxBatchCaptures+1)); err == nil {
		t.Error("oversized batch should fail to encode")
	}
	ragged := []Capture{{Streams: [][]complex128{make([]complex128, 3), make([]complex128, 5)}}}
	if _, err := AppendBatch(nil, ragged); err == nil {
		t.Error("ragged streams should fail to encode")
	}
}

// TestDecodeDatagramExact checks the self-delimiting datagram rule:
// the frame must fill the datagram to the byte.
func TestDecodeDatagramExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	frame := mustFrame(t, []Capture{batchCapture(rng, 2, 4)})

	ws := GetIngestWorkspace()
	caps, err := DecodeDatagramInto(frame, ws)
	if err != nil {
		ws.Discard()
		t.Fatal(err)
	}
	if len(caps) != 1 {
		t.Fatalf("decoded %d captures, want 1", len(caps))
	}
	ReleaseAll(caps)

	bad := func(data []byte) error {
		ws := GetIngestWorkspace()
		if caps, err := DecodeDatagramInto(data, ws); err != nil {
			ws.Discard()
			return err
		} else {
			ReleaseAll(caps)
			return nil
		}
	}
	if err := bad(append(append([]byte(nil), frame...), 0)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("trailing byte: error %v, want ErrBadFrame", err)
	}
	if err := bad(frame[:len(frame)-1]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("truncated datagram: error %v, want ErrBadFrame", err)
	}
	if err := bad(frame[:6]); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short datagram: error %v, want ErrBadFrame", err)
	}
	wrongMagic := append([]byte(nil), frame...)
	binary.BigEndian.PutUint32(wrongMagic, retiredV1Magic)
	if err := bad(wrongMagic); !errors.Is(err, ErrBadMagic) {
		t.Errorf("v1 magic in datagram: error %v, want ErrBadMagic", err)
	}
}

// TestWorkspaceRefcount exercises the release protocol: one reference
// per decoded capture, copies share it, double release is a no-op, and
// captures that own their memory ignore Release.
func TestWorkspaceRefcount(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	frame := mustFrame(t, []Capture{
		batchCapture(rng, 2, 2),
		batchCapture(rng, 2, 2),
		batchCapture(rng, 2, 2),
	})
	ws := GetIngestWorkspace()
	caps, err := ReadFrameInto(bytes.NewReader(frame), ws)
	if err != nil {
		ws.Discard()
		t.Fatal(err)
	}
	if got := ws.refs.Load(); got != 3 {
		t.Fatalf("refs after decode = %d, want 3", got)
	}
	caps[0].Release()
	caps[0].Release() // second release of the same capture: no-op
	if got := ws.refs.Load(); got != 2 {
		t.Fatalf("refs after first release = %d, want 2", got)
	}
	cp := caps[1] // a copy shares the underlying reference
	cp.Release()
	if got := ws.refs.Load(); got != 1 {
		t.Fatalf("refs after copy release = %d, want 1", got)
	}
	caps[2].Release() // workspace returns to the pool here

	owned := Capture{Streams: [][]complex128{{1, 2}}}
	owned.Release() // must not panic or touch any pool
}

// TestBatchDecodeAllocs pins the zero-copy claim: steady-state batch
// decode through a pooled workspace stays within the issue's ≤2
// allocations per capture (in practice ~0 once buffers are grown).
func TestBatchDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rng := rand.New(rand.NewSource(29))
	caps := make([]Capture, 32)
	for i := range caps {
		caps[i] = batchCapture(rng, 8, 16)
	}
	frame := mustFrame(t, caps)
	r := bytes.NewReader(frame)
	avg := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		ws := GetIngestWorkspace()
		decoded, err := ReadFrameInto(r, ws)
		if err != nil {
			ws.Discard()
			t.Fatal(err)
		}
		ReleaseAll(decoded)
	})
	// The bound is per frame of 32 captures — far inside 2/capture.
	if avg > 2 {
		t.Errorf("batch decode allocates %.1f/frame (32 captures), want ≤ 2", avg)
	}
}

// TestWriteAllocs pins the pooled encoder: WriteBatch reuses scratch,
// so steady state writes allocate nothing, for one capture or a burst.
func TestWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rng := rand.New(rand.NewSource(31))
	one := []Capture{batchCapture(rng, 8, 16)}
	if avg := testing.AllocsPerRun(200, func() {
		if err := WriteBatch(io.Discard, one); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("WriteBatch allocates %.1f/one-capture frame, want ≤ 1", avg)
	}
	caps := make([]Capture, 16)
	for i := range caps {
		caps[i] = batchCapture(rng, 8, 16)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := WriteBatch(io.Discard, caps); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("WriteBatch allocates %.1f/frame, want ≤ 1", avg)
	}
}

// TestBackendUDPIngest covers the datagram path end to end: quorum
// flush from two APs' datagrams, sequence-gap and reorder accounting,
// and malformed datagrams counted but non-fatal.
func TestBackendUDPIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var flushed []Capture
	b := NewBackendDispatcher(2, time.Second, DispatchFunc(func(clientID uint32, cs []Capture) {
		flushed = append(flushed, cs...)
		ReleaseAll(cs)
	}))
	ts := time.UnixMicro(1700000000000000).UTC()
	mk := func(apID, seq uint32) Capture {
		c := batchCapture(rng, 2, 4)
		c.APID, c.ClientID, c.Seq, c.Timestamp = apID, 9, seq, ts
		return c
	}
	if err := b.IngestDatagram(mustFrame(t, []Capture{mk(1, 0), mk(1, 1), mk(1, 2)})); err != nil {
		t.Fatal(err)
	}
	if len(flushed) != 0 {
		t.Fatal("quorum fired on one AP")
	}
	if err := b.IngestDatagram(mustFrame(t, []Capture{mk(2, 0)})); err != nil {
		t.Fatal(err)
	}
	if len(flushed) != 4 {
		t.Fatalf("flushed %d captures, want 4", len(flushed))
	}
	// Seq 3 and 4 from AP 1 never arrive: a two-capture hole.
	if err := b.IngestDatagram(mustFrame(t, []Capture{mk(1, 5)})); err != nil {
		t.Fatal(err)
	}
	// The same datagram payload again: one reorder/duplicate.
	if err := b.IngestDatagram(mustFrame(t, []Capture{mk(1, 5)})); err != nil {
		t.Fatal(err)
	}
	if err := b.IngestDatagram([]byte("not a frame at all")); err == nil {
		t.Fatal("garbage datagram ingested without error")
	}
	got := b.UDP()
	want := UDPStats{Datagrams: 4, Captures: 6, Bad: 1, SeqGaps: 2, SeqReorders: 1}
	if got != want {
		t.Errorf("UDP stats = %+v, want %+v", got, want)
	}
}

// TestUDPFloodSmallRcvbufLossAccounted pins the fire-and-forget
// contract's honesty clause: when the kernel receive buffer is
// deliberately too small for the flood, captures ARE lost — and the
// backend's per-AP sequence accounting must say so, not hide it. The
// flood lands before anyone reads the socket, so the kernel's drops
// are deterministic: whatever exceeds the buffer is gone, and the
// sequence numbers of what survives expose the gaps.
func TestUDPFloodSmallRcvbufLossAccounted(t *testing.T) {
	// One AP, strictly monotonic sequence, four captures a datagram:
	// every dropped datagram must surface as a sequence gap.
	const sent = 1024
	rng := rand.New(rand.NewSource(41))
	var grams [][]byte
	for seq := uint32(0); seq < sent; seq += 4 {
		caps := make([]Capture, 4)
		for i := range caps {
			caps[i] = batchCapture(rng, 2, 8)
			caps[i].APID, caps[i].Seq = 1, seq+uint32(i)
		}
		grams = append(grams, mustFrame(t, caps))
	}

	be := NewBackendDispatcher(1, time.Second, DispatchFunc(func(_ uint32, cs []Capture) { ReleaseAll(cs) }))
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		t.Fatal("loopback listener is not a UDPConn")
	}
	if err := uc.SetReadBuffer(1 << 12); err != nil {
		t.Skipf("cannot shrink the receive buffer on this platform: %v", err)
	}
	tx, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	for _, g := range grams {
		if _, err := tx.Write(g); err != nil {
			t.Fatal(err)
		}
	}

	// Only now does the reader start: it drains what the 4 KiB buffer
	// held and nothing more.
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = be.ServeUDP(ctx, pc)
	}()
	var settled uint64
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		n := be.UDP().Captures
		if n == settled && n > 0 {
			break
		}
		settled = n
	}

	// The kernel kept the head of the flood and dropped the tail, so
	// the survivors are gap-free so far — sequence accounting can only
	// see a hole once a later capture arrives. Resend the final
	// datagram into the now-empty buffer: its sequence number is far
	// past the last survivor, exposing the drop.
	if _, err := tx.Write(grams[len(grams)-1]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline) && be.UDP().Captures <= settled; {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	pc.Close()
	<-served

	u := be.UDP()
	if u.Captures == 0 {
		t.Fatal("no captures survived: the buffer dropped the entire flood, nothing to account")
	}
	if u.Captures >= sent {
		t.Fatalf("all %d captures survived a 4 KiB receive buffer — flood too small to force loss", sent)
	}
	lossPct := 100 * float64(sent-u.Captures) / float64(sent)
	if u.SeqGaps == 0 {
		t.Fatalf("%.1f%% of the flood was lost but SeqGaps is 0 — loss is not being accounted", lossPct)
	}
	t.Logf("flood %d captures into a 4 KiB buffer: %d survived (%.1f%% lost), %d sequence gaps accounted",
		sent, u.Captures, lossPct, u.SeqGaps)
}

// packetConn is a net.Conn that records each Write as one packet —
// one burst on a stream, one datagram over UDP. Its dial hands out
// the same connection every time.
type packetConn struct {
	net.Conn
	packets [][]byte
}

func (c *packetConn) Write(p []byte) (int, error) {
	c.packets = append(c.packets, append([]byte(nil), p...))
	return len(p), nil
}

func (c *packetConn) Close() error { return nil }

func (c *packetConn) dial(context.Context) (net.Conn, error) { return c, nil }

// TestUploadBatchDrains checks the stream upload: the buffer drains
// fully, every frame is one Write of at most Batch captures, and the
// stream decodes to the recorded captures in order.
func TestUploadBatchDrains(t *testing.T) {
	n := NewAPNode(3, 16)
	ts := time.UnixMicro(1700000000000000).UTC()
	for i := 0; i < 10; i++ {
		n.Record(1, ts.Add(time.Duration(i)*time.Millisecond), [][]complex128{{1, 2}, {3, 4}})
	}
	var w packetConn
	if err := n.Upload(context.Background(), w.dial, UploadOptions{Batch: 4}); err != nil {
		t.Fatal(err)
	}
	if n.Buffer.Len() != 0 {
		t.Error("upload should drain the buffer")
	}
	if len(w.packets) != 3 { // 4 + 4 + 2
		t.Fatalf("%d writes, want 3", len(w.packets))
	}
	r := bytes.NewReader(bytes.Join(w.packets, nil))
	var seqs []uint32
	for {
		ws := GetIngestWorkspace()
		caps, err := ReadFrameInto(r, ws)
		if err != nil {
			ws.Discard()
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		for i := range caps {
			seqs = append(seqs, caps[i].Seq)
		}
		ReleaseAll(caps)
	}
	if len(seqs) != 10 {
		t.Fatalf("decoded %d captures, want 10", len(seqs))
	}
	for i, s := range seqs {
		if s != uint32(i) {
			t.Fatalf("capture %d has seq %d", i, s)
		}
	}
}

// TestUploadDatagramsPacking checks the FrameBytes cap: frames stay
// under it, Batch still bounds the captures per frame, nothing is
// dropped or reordered, and a capture that alone exceeds the cap
// still ships in its own frame.
func TestUploadDatagramsPacking(t *testing.T) {
	n := NewAPNode(4, 16)
	ts := time.UnixMicro(1700000000000000).UTC()
	streams := [][]complex128{make([]complex128, 8), make([]complex128, 8)}
	for i := range streams[0] {
		streams[0][i] = complex(float64(i)*1e-3, 1e-3)
		streams[1][i] = complex(1e-3, float64(i)*1e-3)
	}
	for i := 0; i < 10; i++ {
		n.Record(1, ts.Add(time.Duration(i)*time.Millisecond), streams)
	}
	// One capture is 29 + 64 payload bytes; budget three per frame.
	budget := frameHeadSize + 3*(subHeadSize+64)
	var w packetConn
	if err := n.Upload(context.Background(), w.dial, UploadOptions{Batch: MaxBatchCaptures, FrameBytes: budget}); err != nil {
		t.Fatal(err)
	}
	if len(w.packets) != 4 { // 3 + 3 + 3 + 1
		t.Fatalf("%d datagrams, want 4", len(w.packets))
	}
	var seqs []uint32
	for i, p := range w.packets {
		if len(p) > budget {
			t.Errorf("datagram %d is %d bytes, budget %d", i, len(p), budget)
		}
		ws := GetIngestWorkspace()
		caps, err := DecodeDatagramInto(p, ws)
		if err != nil {
			ws.Discard()
			t.Fatalf("datagram %d: %v", i, err)
		}
		for j := range caps {
			seqs = append(seqs, caps[j].Seq)
		}
		ReleaseAll(caps)
	}
	if len(seqs) != 10 {
		t.Fatalf("decoded %d captures, want 10", len(seqs))
	}
	for i, s := range seqs {
		if s != uint32(i) {
			t.Fatalf("capture %d has seq %d: the held capture was reordered", i, s)
		}
	}

	// Batch binds before the byte cap: two captures per frame.
	for i := 0; i < 5; i++ {
		n.Record(1, ts, streams)
	}
	var pairs packetConn
	if err := n.Upload(context.Background(), pairs.dial, UploadOptions{Batch: 2, FrameBytes: budget}); err != nil {
		t.Fatal(err)
	}
	if len(pairs.packets) != 3 { // 2 + 2 + 1
		t.Fatalf("Batch 2 under a three-capture budget: %d datagrams, want 3", len(pairs.packets))
	}

	// A budget below one frame: each oversized capture still ships,
	// alone.
	n.Record(1, ts, streams)
	n.Record(1, ts, streams)
	var small packetConn
	if err := n.Upload(context.Background(), small.dial, UploadOptions{FrameBytes: frameHeadSize + subHeadSize}); err != nil {
		t.Fatal(err)
	}
	if len(small.packets) != 2 {
		t.Fatalf("oversized captures: %d datagrams, want 2", len(small.packets))
	}
	for _, p := range small.packets {
		ws := GetIngestWorkspace()
		caps, err := DecodeDatagramInto(p, ws)
		if err != nil {
			ws.Discard()
			t.Fatal(err)
		}
		if len(caps) != 1 {
			t.Errorf("oversized datagram carries %d captures, want 1", len(caps))
		}
		ReleaseAll(caps)
	}
}

// TestUploadRefusesEmptyCapture pins the contract for a capture with
// no streams, in both modes: Upload refuses it with ErrTooLarge. The
// byte cap sizes a frame before AppendBatch validates it, so sizing
// must not index a missing stream (it once panicked there).
func TestUploadRefusesEmptyCapture(t *testing.T) {
	for _, frameBytes := range []int{0, MaxDatagramBytes} {
		n := NewAPNode(1, 4)
		n.Record(1, time.Now(), [][]complex128{{1, 2}})
		n.Record(1, time.Now(), nil)
		var w packetConn
		err := n.Upload(context.Background(), w.dial, UploadOptions{FrameBytes: frameBytes})
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("FrameBytes %d: err = %v, want ErrTooLarge", frameBytes, err)
		}
		if len(w.packets) != 0 {
			t.Errorf("FrameBytes %d: %d frames written around a refused capture", frameBytes, len(w.packets))
		}
	}
}

// TestUploadOverUDPReachesBackend sends two APs' captures as real
// datagrams through Upload to a backend serving a loopback UDP socket:
// one quorum flush must hold both APs' captures, the datagram counters
// must see every capture with no sequence gap, and every pooled
// workspace must come back.
func TestUploadOverUDPReachesBackend(t *testing.T) {
	baseline := LeasedIngestWorkspaces()
	flushes := make(chan []uint32, 4)
	b := NewBackendDispatcher(2, time.Second, DispatchFunc(func(_ uint32, cs []Capture) {
		aps := make([]uint32, len(cs))
		for i := range cs {
			aps[i] = cs[i].APID
		}
		ReleaseAll(cs)
		flushes <- aps
	}))
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- b.ServeUDP(ctx, pc) }()
	defer func() {
		cancel()
		<-served
	}()

	const perAP = 3
	rng := rand.New(rand.NewSource(47))
	ts := time.Now()
	dial := func(context.Context) (net.Conn, error) { return net.Dial("udp", pc.LocalAddr().String()) }
	for ap := uint32(1); ap <= 2; ap++ {
		n := NewAPNode(ap, perAP)
		for i := 0; i < perAP; i++ {
			n.Record(9, ts, batchCapture(rng, 9, 10).Streams)
		}
		if err := n.Upload(ctx, dial, UploadOptions{FrameBytes: MaxDatagramBytes}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case aps := <-flushes:
		count := map[uint32]int{}
		for _, ap := range aps {
			count[ap]++
		}
		if count[1] != perAP || count[2] != perAP {
			t.Fatalf("flush holds %v captures per AP, want %d from each of APs 1 and 2", count, perAP)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the backend never flushed")
	}
	if u := b.UDP(); u.Captures != 2*perAP || u.SeqGaps != 0 || u.Bad != 0 {
		t.Fatalf("UDP stats %+v, want %d captures, no gaps, none bad", u, 2*perAP)
	}
	select {
	case aps := <-flushes:
		t.Fatalf("a second flush of %d captures", len(aps))
	default:
	}
	if leaked := LeasedIngestWorkspaces() - baseline; leaked != 0 {
		t.Fatalf("%d pooled workspaces leaked", leaked)
	}
}

// TestServeConnBatchQuorum runs the whole ingest pipeline over one
// stream: a burst from one AP plus a one-capture frame from another
// must satisfy the quorum, and the flushed samples must be dequantRef
// of the bytes that were sent (the callback deep-copies per the borrow
// contract).
func TestServeConnBatchQuorum(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ts := time.UnixMicro(1700000000000000).UTC()
	burst := make([]Capture, 2)
	for i := range burst {
		burst[i] = batchCapture(rng, 2, 6)
		burst[i].APID, burst[i].ClientID, burst[i].Timestamp = 1, 5, ts
	}
	straggler := batchCapture(rng, 2, 6)
	straggler.APID, straggler.ClientID, straggler.Timestamp = 2, 5, ts
	burstFrame, stragglerFrame := mustFrame(t, burst), mustFrame(t, []Capture{straggler})

	var flushed []Capture
	b := NewBackendDispatcher(2, time.Second, DispatchFunc(func(clientID uint32, cs []Capture) {
		for i := range cs {
			cp := cs[i]
			cp.Streams = cloneStreams(cp.Streams)
			flushed = append(flushed, cp)
		}
		ReleaseAll(cs)
	}))
	if err := b.ServeConn(bytes.NewReader(append(append([]byte(nil), burstFrame...), stragglerFrame...))); err != nil {
		t.Fatal(err)
	}
	if len(flushed) != 3 {
		t.Fatalf("flushed %d captures, want 3", len(flushed))
	}
	want := append(append([]Capture(nil), burst...), straggler)
	ref := append(wireRef(burstFrame), wireRef(stragglerFrame)...)
	for i := range flushed {
		if flushed[i].Seq != want[i].Seq || !sameBits(flushed[i].Streams, ref[i]) {
			t.Fatalf("flushed capture %d differs from the reference decode", i)
		}
	}
}
