package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
)

// testMaps returns a 2-shard map, a successor that moves some clients,
// and client IDs by {old owner, new owner}.
func testMaps(tb testing.TB) (m, next *ShardMap, by [2][2][]uint32) {
	tb.Helper()
	var err error
	if m, err = NewShardMap(1, 2, 0); err != nil {
		tb.Fatal(err)
	}
	if next, err = NewShardMap(2, 2, 5); err != nil {
		tb.Fatal(err)
	}
	for id := uint32(1); id < 10000; id++ {
		from, to := m.Owner(id), next.Owner(id)
		if len(by[from][to]) < 4 {
			by[from][to] = append(by[from][to], id)
		}
	}
	for from := range by {
		for to := range by[from] {
			if len(by[from][to]) < 4 {
				tb.Fatalf("no 4 clients move %d -> %d", from, to)
			}
		}
	}
	return m, next, by
}

// testCapture is one capture of the shape an AP ships, with random
// samples.
func testCapture(rng *rand.Rand, apID, clientID, seq uint32) server.Capture {
	streams := make([][]complex128, 9)
	for a := range streams {
		streams[a] = make([]complex128, 128)
		for i := range streams[a] {
			streams[a][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return server.Capture{APID: apID, ClientID: clientID, Seq: seq,
		Timestamp: time.UnixMicro(1700000000000000 + int64(seq)).UTC(), Streams: streams}
}

func mustBatch(tb testing.TB, caps []server.Capture) []byte {
	tb.Helper()
	b, err := server.AppendBatch(nil, caps)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// eachFrame decodes stream frame by frame, handing each frame's
// captures to fn before releasing them. It returns the error that ended
// the stream, nil at a clean EOF.
func eachFrame(stream []byte, fn func([]server.Capture) error) error {
	rd := bytes.NewReader(stream)
	for {
		ws := server.GetIngestWorkspace()
		caps, err := server.ReadFrameInto(rd, ws)
		if err != nil {
			ws.Discard()
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		err = fn(caps)
		server.ReleaseAll(caps)
		if err != nil {
			return err
		}
	}
}

// routeOracle routes stream the long way: decode each frame, group its
// captures by owner, and re-encode each group with AppendBatch. It
// returns every shard's bytes, plus the error that ended the stream.
func routeOracle(stream []byte, m *ShardMap) ([2][]byte, error) {
	var out [2][]byte
	err := eachFrame(stream, func(caps []server.Capture) error {
		var groups [2][]server.Capture
		for _, c := range caps {
			groups[m.Owner(c.ClientID)] = append(groups[m.Owner(c.ClientID)], c)
		}
		for o, g := range groups {
			if len(g) == 0 {
				continue
			}
			var err error
			if out[o], err = server.AppendBatch(out[o], g); err != nil {
				return fmt.Errorf("oracle re-encode: %w", err)
			}
		}
		return nil
	})
	return out, err
}

// filterStream re-encodes, frame by frame, the captures of stream
// whose client keep accepts; a frame left empty is dropped.
func filterStream(tb testing.TB, stream []byte, keep func(uint32) bool) []byte {
	tb.Helper()
	var out []byte
	_ = eachFrame(stream, func(caps []server.Capture) error {
		var kept []server.Capture
		for _, c := range caps {
			if keep(c.ClientID) {
				kept = append(kept, c)
			}
		}
		if len(kept) > 0 {
			out = append(out, mustBatch(tb, kept)...)
		}
		return nil
	})
	return out
}

// newTestRouter routes by m into two buffers.
func newTestRouter(tb testing.TB, m *ShardMap) (*Router, [2]*bytes.Buffer) {
	tb.Helper()
	bufs := [2]*bytes.Buffer{new(bytes.Buffer), new(bytes.Buffer)}
	r, err := NewRouter(m, []Shard{{Data: bufs[0]}, {Data: bufs[1]}})
	if err != nil {
		tb.Fatal(err)
	}
	return r, bufs
}

// TestRouterSplicesByteIdentical: every shard receives, to the byte,
// what decoding each AP frame and re-encoding each owner's captures
// gave — for single-owner frames (written verbatim), mixed-owner frames
// (spliced), and captures held across a migration and flushed through
// the new map.
func TestRouterSplicesByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	m, next, by := testMaps(t)
	a, b := by[0][0], by[1][1]     // stay on shard 0, on shard 1
	a2b, b2a := by[0][1], by[1][0] // move 0 -> 1, 1 -> 0
	seq := uint32(0)
	capt := func(client uint32) server.Capture {
		seq++
		return testCapture(rng, 1+seq%3, client, seq)
	}
	var stream []byte
	for _, caps := range [][]server.Capture{
		{capt(a[0])},
		{capt(b[0]), capt(b[1]), capt(b[0])},
		{capt(a[0]), capt(b[0]), capt(a[1])},
		{capt(b[2]), capt(a[2]), capt(b[2]), capt(a[3])},
		{capt(a2b[0]), capt(a[1]), capt(b2a[0])},
		{capt(b2a[1]), capt(a2b[0]), capt(b[3]), capt(a2b[1])},
		{capt(a2b[2])},
	} {
		stream = append(stream, mustBatch(t, caps)...)
	}
	check := func(t *testing.T, what string, got [2]*bytes.Buffer, want [2][]byte) {
		t.Helper()
		for i := range got {
			if len(want[i]) == 0 {
				t.Fatalf("%s: the oracle sends shard %d nothing; the case tests nothing there", what, i)
			}
			if !bytes.Equal(got[i].Bytes(), want[i]) {
				t.Errorf("%s: shard %d got %d bytes that differ from the %d-byte decode/re-encode", what, i, got[i].Len(), len(want[i]))
			}
			got[i].Reset()
		}
	}

	t.Run("static", func(t *testing.T) {
		want, err := routeOracle(stream, m)
		if err != nil {
			t.Fatal(err)
		}
		r, got := newTestRouter(t, m)
		if err := r.ServeConn(bytes.NewReader(stream)); err != nil {
			t.Fatal(err)
		}
		check(t, "static map", got, want)
		if st := r.Stats(); st.Frames != 7 || st.Routed != 19 || st.Held != 0 {
			t.Errorf("stats %+v, want 7 frames, 19 captures routed, none held", st)
		}
	})

	t.Run("held then flushed", func(t *testing.T) {
		// While the hold is up, the movers' captures park, one spliced
		// frame per AP frame, and everyone else routes by the old map.
		// The flush then sends the parked frames through the new one.
		ids := append(append(append(append([]uint32(nil), a...), b...), a2b...), b2a...)
		moved := m.Moved(ids, next)
		isMoved := func(id uint32) bool { _, ok := moved[id]; return ok }
		wantStill, err := routeOracle(filterStream(t, stream, func(id uint32) bool { return !isMoved(id) }), m)
		if err != nil {
			t.Fatal(err)
		}
		wantFlushed, err := routeOracle(filterStream(t, stream, isMoved), next)
		if err != nil {
			t.Fatal(err)
		}

		r, got := newTestRouter(t, m)
		hs := &holdState{moved: moved}
		r.hold.Store(hs)
		if err := r.ServeConn(bytes.NewReader(stream)); err != nil {
			t.Fatal(err)
		}
		check(t, "while held", got, wantStill)
		r.cur.Store(next)
		if n := r.flushHold(hs); n != 6 {
			t.Errorf("flushed %d held captures, want 6", n)
		}
		r.hold.Store(nil)
		check(t, "flush", got, wantFlushed)
		if st := r.Stats(); st.Held != 6 || st.Routed != 19 {
			t.Errorf("stats %+v, want 6 held and all 19 routed", st)
		}
	})

	t.Run("map swapped mid-frame", func(t *testing.T) {
		// Shard 0's first write swaps the map, so the rest of the first
		// frame was grouped by a stale map: the forward's re-check under
		// shard 1's lock must requeue b2a's capture, which is then
		// spliced for its new owner, and the next frame routes by the new
		// map.
		f1 := mustBatch(t, []server.Capture{capt(a[0]), capt(a2b[0]),
			capt(b[0]), capt(b2a[0]), capt(a2b[1])})
		f2 := mustBatch(t, []server.Capture{capt(a2b[2]), capt(b[1])})
		var want [2][]byte
		for _, part := range []struct {
			stream []byte
			m      *ShardMap
		}{
			{filterStream(t, f1, func(id uint32) bool { return m.Owner(id) == 0 }), m},
			{filterStream(t, f1, func(id uint32) bool { return m.Owner(id) == 1 }), next},
			{f2, next},
		} {
			w, err := routeOracle(part.stream, part.m)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				want[i] = append(want[i], w[i]...)
			}
		}

		var r *Router
		s0 := &swapOnWrite{swap: func() { r.cur.Store(next) }}
		var s1 bytes.Buffer
		r, err := NewRouter(m, []Shard{{Data: s0}, {Data: &s1}})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ServeConn(bytes.NewReader(append(f1, f2...))); err != nil {
			t.Fatal(err)
		}
		check(t, "swapped", [2]*bytes.Buffer{&s0.Buffer, &s1}, want)
	})
}

// swapOnWrite runs swap once, on its first Write.
type swapOnWrite struct {
	bytes.Buffer
	swap func()
}

func (w *swapOnWrite) Write(p []byte) (int, error) {
	if w.swap != nil {
		w.swap()
		w.swap = nil
	}
	return w.Buffer.Write(p)
}

// TestReservedSubHeaderFlagsRefused: every bit of a sub-header's flags
// byte is reserved. One set — the retired region (0x01) or priority
// (0x02) bit, or an unknown one — on the first or the last capture is
// refused with ErrBadFrame by the decoder and by the router, which
// shares its parse and so forwards nothing of the frame.
func TestReservedSubHeaderFlagsRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m, _, by := testMaps(t)
	frame := mustBatch(t, []server.Capture{testCapture(rng, 1, by[0][0][0], 1), testCapture(rng, 2, by[1][1][0], 2)})
	for _, bit := range []byte{0x01, 0x02, 0x80} {
		for i := 0; i < 2; i++ {
			bad := append([]byte(nil), frame...)
			bad[12+i*29+28] = bit
			ws := server.GetIngestWorkspace()
			if _, err := server.ReadFrameInto(bytes.NewReader(bad), ws); !errors.Is(err, server.ErrBadFrame) {
				t.Errorf("flag %#x on capture %d: ReadFrameInto err = %v, want ErrBadFrame", bit, i, err)
			}
			ws.Discard()
			r, got := newTestRouter(t, m)
			if err := r.ServeConn(bytes.NewReader(bad)); !errors.Is(err, server.ErrBadFrame) {
				t.Errorf("flag %#x on capture %d: Router err = %v, want ErrBadFrame", bit, i, err)
			}
			for shard, b := range got {
				if b.Len() != 0 {
					t.Errorf("flag %#x on capture %d: router forwarded %d bytes to shard %d", bit, i, b.Len(), shard)
				}
			}
		}
	}
}

// fuzzMap is the map FuzzRouteMatchesDecode routes by, and fuzzClients
// two clients it puts on different shards.
var fuzzMap, _ = NewShardMap(1, 2, 0)

func fuzzClients() (on0, on1 uint32) {
	for id := uint32(1); on0 == 0 || on1 == 0; id++ {
		if fuzzMap.Owner(id) == 0 {
			on0 = max(on0, id)
		} else {
			on1 = max(on1, id)
		}
	}
	return on0, on1
}

// decoded is what a capture decodes to, its samples copied out of the
// workspace.
type decoded struct {
	apID, clientID, seq uint32
	tsUS                int64
	samples             []complex128
}

// decodeAll decodes every frame of stream up to its first error.
func decodeAll(stream []byte) []decoded {
	var out []decoded
	_ = eachFrame(stream, func(caps []server.Capture) error {
		for _, c := range caps {
			d := decoded{apID: c.APID, clientID: c.ClientID, seq: c.Seq, tsUS: c.Timestamp.UnixMicro()}
			for _, st := range c.Streams {
				d.samples = append(d.samples, st...)
			}
			out = append(out, d)
		}
		return nil
	})
	return out
}

// FuzzRouteMatchesDecode: the router refuses a stream exactly when the
// decoder does, with the same error, after forwarding the same frames;
// what it forwards is, byte for byte, what decoding and re-encoding per
// owner gives; and each shard's stream decodes to the input's captures
// that shard owns, in order. Whatever decodes, re-encodes — through the
// router.
func FuzzRouteMatchesDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	on0, on1 := fuzzClients()
	small := func(client, seq uint32) server.Capture {
		c := testCapture(rng, 3, client, seq)
		c.Streams = [][]complex128{c.Streams[0][:2], c.Streams[1][:2]}
		return c
	}
	frame := mustBatch(f, []server.Capture{small(on0, 1), small(on1, 2), small(on0, 3)})
	shipped := mustBatch(f, []server.Capture{testCapture(rng, 4, on1, 9)})
	f.Add(frame)
	f.Add([]byte{})
	f.Add(frame[:8])                                   // truncated frame header
	f.Add(frame[:12])                                  // header only, no body
	f.Add(frame[:len(frame)-3])                        // truncated payload
	f.Add(append(append([]byte(nil), frame...), 0xAA)) // trailing byte
	f.Add(shipped)                                     // the 9 x 10 capture the APs ship
	f.Add(shipped[:len(shipped)/2])                    // ...cut mid-payload
	f.Add(append(append([]byte(nil), shipped...), frame...))
	mutate := func(off int, b ...byte) []byte {
		out := append([]byte(nil), frame...)
		copy(out[off:], b)
		return out
	}
	f.Add(mutate(12+28, 0x01))         // retired region flag
	f.Add(mutate(12+28, 0x02))         // retired priority flag
	f.Add(mutate(8, 0x02, 0xBC))       // lying count
	f.Add(mutate(8, 0, 0))             // zero count
	f.Add(mutate(10, 0x80))            // reserved frame flags
	f.Add(mutate(4, 0xFF, 0xFF, 0xFF)) // bodyLen over the limit
	f.Add(mutate(12+24, 0xFF, 0xFF))   // nAnt over the limit
	f.Add(mutate(12+28, 0xFF))         // unknown sub-header flags
	f.Add(mutate(12+2*29+28, 0x01))    // region flag on the last sub-header
	f.Add(mutate(0, 0x41, 0x54, 0, 1)) // retired v1 magic
	f.Add(mutate(12+20, 0x7F, 0xC0, 0, 0))
	top := mutate(12+20, 0x7F, 0x7F, 0xFF, 0xFF) // largest finite scale...
	f.Add(top)
	top = append([]byte(nil), top...)
	copy(top[len(top)-3*16:], []byte{0x80, 0}) // ...and -32768 in its payload: refused
	f.Add(top)

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := routeOracle(data, fuzzMap)
		if wantErr != nil && errors.Is(wantErr, server.ErrBadSamples) {
			t.Fatalf("decoded frame failed to re-encode: %v", wantErr)
		}
		r, got := newTestRouter(t, fuzzMap)
		err := r.ServeConn(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("router: %v; decoder: %v", err, wantErr)
		}
		in := decodeAll(data)
		for i := range got {
			if !bytes.Equal(got[i].Bytes(), want[i]) {
				t.Fatalf("shard %d: routed bytes differ from the decode/re-encode", i)
			}
			var owned []decoded
			for _, d := range in {
				if fuzzMap.Owner(d.clientID) == i {
					owned = append(owned, d)
				}
			}
			if out := decodeAll(got[i].Bytes()); !reflect.DeepEqual(out, owned) {
				t.Fatalf("shard %d decodes to %d captures, not the input's %d it owns", i, len(out), len(owned))
			}
		}
	})
}

// TestRouterSteadyStateAllocs: once warm, routing a frame one shard
// owns (written verbatim) and a frame two shards share (spliced)
// allocates nothing.
func TestRouterSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _, by := testMaps(t)
	a, b := by[0][0], by[1][1]
	r, err := NewRouter(m, []Shard{{Data: io.Discard}, {Data: io.Discard}})
	if err != nil {
		t.Fatal(err)
	}
	c := &conn{}
	rd := bytes.NewReader(nil)
	for _, tc := range []struct {
		name    string
		clients []uint32
	}{
		{"one owner", []uint32{a[0], a[0], a[1]}},
		{"two owners", []uint32{a[0], b[0], a[1], b[0]}},
	} {
		var caps []server.Capture
		for i, id := range tc.clients {
			caps = append(caps, testCapture(rng, 1, id, uint32(i)))
		}
		frame := mustBatch(t, caps)
		run := func() {
			rd.Reset(frame)
			if err := server.ReadFrame(rd, &c.f); err != nil {
				t.Fatal(err)
			}
			if err := r.route(c); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("%s: %v allocations per routed frame, want 0", tc.name, n)
		}
	}
	if st := r.Stats(); st.PerShard[0] == 0 || st.PerShard[1] == 0 {
		t.Errorf("per-shard counts %v: the two-owner frame did not reach both shards", st.PerShard)
	}
}

// TestRebalanceHTTPShardTimesOut: a shard whose ops endpoint answers
// /cluster/clients and then hangs cannot hold Rebalance past its
// client's timeout. The rebalance fails, the map stays on version 1,
// and a mover's traffic still reaches its old owner.
func TestRebalanceHTTPShardTimesOut(t *testing.T) {
	cur, err := NewShardMap(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	next, err := NewShardMap(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	mover := uint32(1)
	for next.Owner(mover) != 1 {
		mover++
	}
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+pathClients, func(w http.ResponseWriter, _ *http.Request) {
		reply(w, clientsBody{[]uint32{mover}}, nil)
	})
	mux.HandleFunc("/", func(_ http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	})
	hung := httptest.NewServer(mux)
	defer hung.Close()
	defer close(release)

	if got := (&HTTPShard{}).client().Timeout; got != DefaultRebalanceTimeout {
		t.Fatalf("a nil HTTPShard.Client times out after %v, want DefaultRebalanceTimeout", got)
	}
	ctl := &HTTPShard{Base: hung.URL, Client: &http.Client{Timeout: 100 * time.Millisecond}}
	bufs := [2]*bytes.Buffer{new(bytes.Buffer), new(bytes.Buffer)}
	r, err := NewRouter(cur, []Shard{{Data: bufs[0], Ctl: ctl}, {Data: bufs[1], Ctl: ctl}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Rebalance(next)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("rebalance against a hung shard succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("rebalance still blocked 2 s after a 100 ms client timeout")
	}
	if v := r.Map().Version; v != 1 {
		t.Fatalf("map version %d after the failed rebalance, want 1", v)
	}

	frame := mustBatch(t, []server.Capture{testCapture(rand.New(rand.NewSource(3)), 1, mover, 1)})
	if err := r.ServeConn(bytes.NewReader(frame)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufs[0].Bytes(), frame) || bufs[1].Len() != 0 {
		t.Fatalf("mover's frame: %d bytes on its old owner, %d on the new one; want %d and 0",
			bufs[0].Len(), bufs[1].Len(), len(frame))
	}
}
