package server

import (
	"bytes"
	"context"
	"io"
	"math/cmplx"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wifi"
)

func TestCircularBufferBasics(t *testing.T) {
	b := NewCircularBuffer(3)
	if b.Len() != 0 {
		t.Fatal("fresh buffer wrong")
	}
	for i := uint32(0); i < 3; i++ {
		if evicted := b.Push(Capture{Seq: i}); evicted {
			t.Error("premature eviction")
		}
	}
	if !b.Push(Capture{Seq: 3}) {
		t.Error("full buffer should evict")
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d", b.Len())
	}
	// Seq 0 was evicted; the rest pop oldest-first.
	for want := uint32(1); want <= 3; want++ {
		c, ok := b.Pop()
		if !ok || c.Seq != want {
			t.Errorf("Pop = %+v %v, want seq %d", c, ok, want)
		}
	}
	if _, ok := b.Pop(); ok {
		t.Error("empty Pop should fail")
	}
	if b.Len() != 0 {
		t.Errorf("drained Len = %d", b.Len())
	}
}

func TestCircularBufferPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCircularBuffer(0)
}

func TestCircularBufferConcurrent(t *testing.T) {
	b := NewCircularBuffer(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base uint32) {
			defer wg.Done()
			for i := uint32(0); i < 1000; i++ {
				b.Push(Capture{Seq: base + i})
				b.Pop()
				b.Len()
			}
		}(uint32(w) * 10000)
	}
	wg.Wait()
}

// TestRecentForClient pins the per-client order an uploader sees:
// with three clients interleaved and the ring wrapping twice, eviction
// drops the oldest captures first and Pop yields each client's
// survivors in recording order.
func TestRecentForClient(t *testing.T) {
	b := NewCircularBuffer(5)
	t0 := time.Now()
	for i := uint32(0); i < 12; i++ {
		b.Push(Capture{ClientID: 1 + i%3, Seq: i, Timestamp: t0.Add(time.Duration(i) * time.Millisecond)})
	}
	// The five newest survive: seqs 7..11, clients 2, 3, 1, 2, 3.
	for want := uint32(7); want < 12; want++ {
		c, ok := b.Pop()
		if !ok || c.Seq != want || c.ClientID != 1+want%3 {
			t.Fatalf("Pop = seq %d client %d (%v), want seq %d client %d", c.Seq, c.ClientID, ok, want, 1+want%3)
		}
	}
	if _, ok := b.Pop(); ok {
		t.Error("buffer should be drained")
	}
}

func randomCapture(rng *rand.Rand, nAnt, nSamp int) *Capture {
	c := &Capture{
		APID:      7,
		ClientID:  13,
		Seq:       42,
		Timestamp: time.UnixMicro(1700000000123456).UTC(),
		Streams:   make([][]complex128, nAnt),
	}
	for a := range c.Streams {
		st := make([]complex128, nSamp)
		for s := range st {
			st[s] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-3
		}
		c.Streams[a] = st
	}
	return c
}

func TestProtocolRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := randomCapture(rng, 8, 10)
	var buf bytes.Buffer
	if err := WriteBatch(&buf, []Capture{*c}); err != nil {
		t.Fatal(err)
	}
	// §4.4's capture alone in a frame: the size TransferTime models.
	if got, want := buf.Len(), frameHeadSize+subHeadSize+8*10*4; got != want {
		t.Errorf("frame size = %d, want %d", got, want)
	}
	caps := readFrame(t, buf.Bytes())
	defer ReleaseAll(caps)
	d := &caps[0]
	if d.APID != 7 || d.ClientID != 13 || d.Seq != 42 || !d.Timestamp.Equal(c.Timestamp) {
		t.Errorf("metadata mismatch: %+v", d)
	}
	// 16-bit quantization: relative error bounded by ~2/32767 of peak.
	var peak float64
	for _, st := range c.Streams {
		for _, v := range st {
			if a := cmplx.Abs(v); a > peak {
				peak = a
			}
		}
	}
	for a := range c.Streams {
		for s := range c.Streams[a] {
			if cmplx.Abs(d.Streams[a][s]-c.Streams[a][s]) > peak*1e-3 {
				t.Fatalf("sample %d/%d quantization error too large", a, s)
			}
		}
	}
}

func TestProtocolRejectsGarbage(t *testing.T) {
	if err := decodeBatch(make([]byte, 32)); err != ErrBadMagic {
		t.Errorf("bad magic error = %v", err)
	}
	// Truncated stream.
	rng := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	if err := WriteBatch(&buf, []Capture{*randomCapture(rng, 2, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := decodeBatch(buf.Bytes()[:20]); err == nil {
		t.Error("truncated sub-header should error")
	}
	if err := decodeBatch(buf.Bytes()[:50]); err == nil {
		t.Error("truncated payload should error")
	}
	// Oversized declaration.
	big := Capture{Streams: make([][]complex128, MaxAntennas+1)}
	if err := WriteBatch(io.Discard, []Capture{big}); err == nil {
		t.Error("oversized write should error")
	}
	// Ragged streams.
	ragged := Capture{Streams: [][]complex128{make([]complex128, 3), make([]complex128, 5)}}
	if err := WriteBatch(io.Discard, []Capture{ragged}); err == nil {
		t.Error("ragged write should error")
	}
	// Empty capture.
	if err := WriteBatch(io.Discard, []Capture{{}}); err == nil {
		t.Error("empty write should error")
	}
	// Clean EOF at a frame boundary.
	if err := decodeBatch(nil); err != io.EOF {
		t.Errorf("clean EOF = %v", err)
	}
}

func TestProtocolAllZeroSamples(t *testing.T) {
	caps := readFrame(t, mustFrame(t, []Capture{{Streams: [][]complex128{make([]complex128, 4)}}}))
	defer ReleaseAll(caps)
	for _, v := range caps[0].Streams[0] {
		if v != 0 {
			t.Errorf("zero sample decoded as %v", v)
		}
	}
}

func TestDetectorOnPreamble(t *testing.T) {
	d := DefaultDetector()
	p := wifi.Preamble40()
	rng := rand.New(rand.NewSource(3))
	streams := make([][]complex128, 2)
	for k := range streams {
		st := make([]complex128, 2000)
		for i := range st {
			st[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 0.01
		}
		for i, v := range p {
			st[700+i] += v
		}
		streams[k] = st
	}
	start, ok := d.Detect(streams)
	if !ok {
		t.Fatal("preamble not detected")
	}
	if start < 700-64 || start > 700+96 {
		t.Errorf("detected at %d, want near 700", start)
	}
	win := d.Extract(streams, start)
	if len(win[0]) != d.CaptureLen || win[1][0] != streams[1][start+d.Offset] {
		t.Errorf("capture window = %d samples, first %v, want %d from sample %d", len(win[0]), win[1][0], d.CaptureLen, start+d.Offset)
	}
	// Degenerate extraction at end of stream: the window's last sample.
	tail := d.Extract(streams, 1999-d.Offset)
	if len(tail[0]) != 1 {
		t.Errorf("tail window = %d", len(tail[0]))
	}
	if _, ok := d.Detect(nil); ok {
		t.Error("empty detect should fail")
	}
}

// TestDetectorShipsTheServersWindow pins the two defaults to each
// other: DefaultDetector cuts exactly the MaxSamples samples
// core.DefaultConfig correlates — every server refuses any other length
// — from the steady preamble at core.DefaultSampleOffset.
func TestDetectorShipsTheServersWindow(t *testing.T) {
	cfg := core.DefaultConfig(0.1225)
	d := DefaultDetector()
	if d.CaptureLen != cfg.MaxSamples || d.Offset != core.DefaultSampleOffset {
		t.Fatalf("DefaultDetector cuts %d samples from %d, core.DefaultConfig reads %d cut from %d",
			d.CaptureLen, d.Offset, cfg.MaxSamples, core.DefaultSampleOffset)
	}
}

// TestExtractOneBackingNeverRagged: a capture is one allocation, its
// streams are rectangular, start Offset after the given start and are
// never longer than CaptureLen; a window that runs off the end of the
// shortest stream is clamped — shorter than CaptureLen, which the server
// then refuses rather than mis-reads (and the AP does not ship).
func TestExtractOneBackingNeverRagged(t *testing.T) {
	d := DefaultDetector()
	streams := make([][]complex128, 9)
	for k := range streams {
		streams[k] = make([]complex128, 640)
		for i := range streams[k] {
			streams[k][i] = complex(float64(k), float64(i))
		}
	}
	win := d.Extract(streams, 32)
	for k, w := range win {
		if len(w) != d.CaptureLen || cap(w) != d.CaptureLen {
			t.Fatalf("stream %d: len %d cap %d, want %d", k, len(w), cap(w), d.CaptureLen)
		}
		if from := 32 + d.Offset; w[0] != streams[k][from] || w[len(w)-1] != streams[k][from+d.CaptureLen-1] {
			t.Fatalf("stream %d is not [%d, %d) of its source", k, from, from+d.CaptureLen)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { d.Extract(streams, 32) }); allocs > 2 {
		t.Errorf("Extract made %.0f allocations, want the row headers and one backing", allocs)
	}

	// One stream ends early: every stream is clamped to it.
	streams[4] = streams[4][:600]
	clamped := d.Extract(streams, 600-d.Offset-4)
	for k, w := range clamped {
		if len(w) != 4 {
			t.Fatalf("clamped stream %d has %d samples, want 4", k, len(w))
		}
	}
	if frame, err := AppendBatch(nil, []Capture{{APID: 1, Streams: clamped}}); err != nil || len(frame) == 0 {
		t.Fatalf("a clamped capture must still encode: %v", err)
	}
	for k, w := range d.Extract(streams, 600-d.Offset) {
		if len(w) != 0 {
			t.Fatalf("window at the end of the shortest stream: stream %d has %d samples", k, len(w))
		}
	}
}

func TestAPNodeRecordAndUpload(t *testing.T) {
	n := NewAPNode(3, 8)
	for i := 0; i < 3; i++ {
		n.Record(1, time.Now(), [][]complex128{{1, 2}, {3, 4}})
	}
	if n.Buffer.Len() != 3 {
		t.Fatalf("buffered = %d", n.Buffer.Len())
	}
	var conn packetConn
	if err := n.Upload(context.Background(), conn.dial, UploadOptions{Batch: 1}); err != nil {
		t.Fatal(err)
	}
	if n.Buffer.Len() != 0 {
		t.Error("upload should drain the buffer")
	}
	if len(conn.packets) != 3 {
		t.Fatalf("%d writes, want one per capture", len(conn.packets))
	}
	// Three one-capture frames with increasing seq.
	r := bytes.NewReader(bytes.Join(conn.packets, nil))
	for i := uint32(0); i < 3; i++ {
		ws := GetIngestWorkspace()
		caps, err := ReadFrameInto(r, ws)
		if err != nil {
			ws.Discard()
			t.Fatal(err)
		}
		if len(caps) != 1 || caps[0].Seq != i || caps[0].APID != 3 {
			t.Errorf("frame %d: %+v", i, caps)
		}
		ReleaseAll(caps)
	}
}

func TestBackendQuorumGrouping(t *testing.T) {
	var mu sync.Mutex
	var got []Capture
	b := NewBackendDispatcher(2, time.Second, DispatchFunc(func(clientID uint32, cs []Capture) {
		mu.Lock()
		defer mu.Unlock()
		got = cs
	}))
	now := time.Now()
	b.IngestBatch([]Capture{{APID: 1, ClientID: 9, Timestamp: now}})
	if got != nil {
		t.Fatal("quorum fired early")
	}
	if b.PendingClients() != 1 {
		t.Errorf("pending = %d", b.PendingClients())
	}
	b.IngestBatch([]Capture{{APID: 2, ClientID: 9, Timestamp: now.Add(time.Millisecond)}})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("grouped = %d captures", len(got))
	}
	if b.PendingClients() != 0 {
		t.Error("pending not cleared after quorum")
	}
}

func TestBackendDropsStale(t *testing.T) {
	fired := false
	b := NewBackendDispatcher(2, 100*time.Millisecond, DispatchFunc(func(uint32, []Capture) { fired = true }))
	t0 := time.Now()
	b.IngestBatch([]Capture{{APID: 1, ClientID: 5, Timestamp: t0}})
	// Second AP reports much later: the first capture is stale, no
	// quorum.
	b.IngestBatch([]Capture{{APID: 2, ClientID: 5, Timestamp: t0.Add(time.Second)}})
	if fired {
		t.Error("stale captures should not satisfy quorum")
	}
}

func TestBackendOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan uint32, 1)
	b := NewBackendDispatcher(1, time.Second, DispatchFunc(func(clientID uint32, cs []Capture) {
		ReleaseAll(cs)
		done <- clientID
	}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go b.Serve(ctx, l)

	n := NewAPNode(1, 4)
	n.Record(77, time.Now(), [][]complex128{{1 + 1i, 2}, {3, 4i}})
	dial := func(context.Context) (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }
	if err := n.Upload(ctx, dial, UploadOptions{}); err != nil {
		t.Fatal(err)
	}
	select {
	case id := <-done:
		if id != 77 {
			t.Errorf("located client %d, want 77", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("backend never fired")
	}
}

func TestTransferTimeModel(t *testing.T) {
	// §4.4: 10 samples × 32 bits × 8 radios at 1 Mbit/s ≈ 2.56 ms. A
	// one-capture frame adds its 12-byte header and 29-byte sub-header
	// (361 bytes, 2.89 ms), so allow a small margin.
	got := TransferTime(8, 10, 1)
	if got < 2500*time.Microsecond || got > 2900*time.Microsecond {
		t.Errorf("TransferTime = %v, want ≈2.56 ms", got)
	}
}

func TestLatencyTotal(t *testing.T) {
	l := Latency{Detection: 16 * time.Microsecond, Transfer: 2560 * time.Microsecond, Processing: 90 * time.Millisecond}
	want := 16*time.Microsecond + 2560*time.Microsecond + 90*time.Millisecond
	if l.Total() != want {
		t.Errorf("Total = %v", l.Total())
	}
}
