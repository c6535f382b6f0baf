package testbed

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/server"
)

// ingestMetric returns the named metric of an ingest report.
func ingestMetric(t *testing.T, r *Report, name string) float64 {
	t.Helper()
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q missing", name)
	return 0
}

// TestRunIngestMeetsTargets is the ingest acceptance gate: batched v3
// ingest must clear 5x the seed per-record path's captures/sec/core
// at the paper's 8-antenna, 16-sample records, with at most 2
// steady-state allocations per capture, and an absolute throughput
// floor so the speedup cannot be met by regressing both paths. Then, at
// a raw 9x640 capture (what the APs shipped when the gate was
// calibrated; they now trim to 9x128, and the threshold was not retuned
// to the smaller shape), server.AppendBatch must encode at least 1.2x
// as fast as the reference quantizer loop it replaced.
// That is a regression floor — a kernel that lost its fast form reads
// 1.0x — not the 1.8x the kernel was sized for: over a flood read from
// DRAM it measures 1.56x to 1.80x on the 2-vCPU reference box (1.75x
// from cache) and 1.32x to 1.46x in the hours when the box is short of
// memory bandwidth and both loops wait on the same reads, so 1.8x is
// recorded as not met in EXPERIMENTS.md rather than gated here.
//
// The speedups are capability claims measured on a shared, often
// single-core CI host, so each gate takes the best of three full runs:
// external noise only ever subtracts throughput, and a regression in
// the measured path fails every attempt.
func TestRunIngestMeetsTargets(t *testing.T) {
	if raceEnabled {
		t.Skip("flood timing is not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("flood gate skipped in -short mode")
	}
	tb := New()
	opt := DefaultIngestOptions()
	opt.BatchSizes = []int{32}
	opt.Conns = 4
	opt.Trials = 7

	// bestOf runs the sweep over one shape until check passes.
	const attempts = 3
	bestOf := func(sh IngestShape, check func(r *Report) []string) {
		opt.Shapes = []IngestShape{sh}
		var lastErrs []string
		for a := 0; a < attempts; a++ {
			r, err := tb.RunIngest(opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range r.Lines {
				t.Log(l)
			}
			if lastErrs = check(r); len(lastErrs) == 0 {
				return
			}
			t.Logf("attempt %d/%d missed targets: %v", a+1, attempts, lastErrs)
		}
		for _, e := range lastErrs {
			t.Error(e)
		}
	}

	// The gates only need the 8x16 geometry and the raw capture; the full
	// sweep is atbench's job.
	bestOf(IngestShape{8, 16}, func(r *Report) (errs []string) {
		if s := ingestMetric(t, r, "ingest_speedup_8x16"); s < 5.0 {
			errs = append(errs, fmt.Sprintf("batch32 ingest speedup %.2fx < 5x over the seed per-record path", s))
		}
		if al := ingestMetric(t, r, "ingest_allocs_batch32_8x16"); al > 2.0 {
			errs = append(errs, fmt.Sprintf("batch32 steady-state allocs/capture %.2f > 2", al))
		}
		if cps := ingestMetric(t, r, "ingest_cps_batch32_8x16"); cps < 500_000 {
			errs = append(errs, fmt.Sprintf("batch32 ingest rate %.0f caps/s/core below the 500k floor", cps))
		}
		return errs
	})
	opt.Trials = 3
	bestOf(rawShape, func(r *Report) (errs []string) {
		if s := ingestMetric(t, r, "ingest_encode_speedup_9x640"); s < 1.2 {
			errs = append(errs, fmt.Sprintf("9x640 encode %.2fx the reference quantizer loop, want >= 1.2x", s))
		}
		return errs
	})
}

// TestUDPFloodSmallRcvbufLossAccounted pins the fire-and-forget
// contract's honesty clause: when the kernel receive buffer is
// deliberately too small for the flood, captures ARE lost — and the
// backend's per-AP sequence accounting must say so, not hide it. The
// flood lands before anyone reads the socket, so the kernel's drops
// are deterministic: whatever exceeds the buffer is gone, and the
// sequence numbers of what survives expose the gaps.
func TestUDPFloodSmallRcvbufLossAccounted(t *testing.T) {
	opt := DefaultIngestOptions()
	opt.Captures = 1024
	caps := ingestFlood(opt, IngestShape{2, 8})
	// One AP, strictly monotonic sequence: every dropped datagram
	// must surface as a sequence gap.
	for i := range caps {
		caps[i].APID = 1
		caps[i].Seq = uint32(i)
	}
	grams := serializeDatagrams(caps, 4)

	be := server.NewBackendDispatcher(1, time.Second, releaseDispatcher{})
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
	settle := func() uint64 {
		deadline := time.Now().Add(2 * time.Second)
		var got uint64
		for time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			if n := be.UDP().Captures; n == got && n > 0 {
				break
			} else {
				got = n
			}
		}
		return got
	}
	settled := settle()

	// The kernel kept the head of the flood and dropped the tail, so
	// the survivors are gap-free so far — sequence accounting can only
	// see a hole once a later capture arrives. Resend the final
	// datagram into the now-empty buffer: its sequence number is far
	// past the last survivor, exposing the drop.
	if _, err := tx.Write(grams[len(grams)-1]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && be.UDP().Captures <= settled {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	pc.Close()
	<-served

	u := be.UDP()
	sent := uint64(len(caps))
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
