// Command arraytrack-ap emulates one ArrayTrack access point (Figure 1,
// left half): it "overhears" frames from a simulated client through the
// office channel model, detects the preamble, records the capture into
// a circular buffer, and ships the cut window — the ten samples the
// server correlates — to the central server: batch frames on a TCP
// stream, or with -udp one datagram per frame (at most
// server.MaxDatagramBytes) to the server's -udp address.
//
//	arraytrack-ap -id 1 -server localhost:7100 -client 20,6.5 -frames 3
//
// Run several instances with different -id values (1–6) against one
// arraytrack-server to watch a live multi-AP location fix.
//
// Both transports go through one uploader, server.APNode.Upload. With
// -retries N (N ≥ 2) the upload survives network weather: it
// reconnects with jittered exponential backoff (first delay -backoff),
// replays the frame in flight, and logs one line per attempt. Exit
// codes distinguish the failure classes: 0 delivered, 75 (EX_TEMPFAIL)
// the server never came back within N attempts, 1 a fatal error
// retrying cannot fix (and, with fewer than 2 attempts, any error).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/testbed"
	"repro/internal/wifi"
)

func main() {
	id := flag.Int("id", 1, "AP identity (1–6, selects the testbed site)")
	addr := flag.String("server", "localhost:7100", "ArrayTrack server address")
	clientPos := flag.String("client", "20,6.5", "simulated client position x,y in metres")
	clientID := flag.Uint("clientid", 1, "client identifier reported to the server")
	frames := flag.Int("frames", 3, "frames to capture and upload")
	seed := flag.Int64("seed", 0, "noise seed (0 = derived from AP id)")
	batch := flag.Int("batch", 16, "upload frames of up to this many captures (at least 1)")
	udp := flag.Bool("udp", false, "upload batch-frame datagrams over UDP instead of a TCP stream")
	retries := flag.Int("retries", 0,
		"reconnect and replay on transient upload errors, up to this many consecutive attempts, over TCP or -udp (0 or 1 = one attempt, fail on the first error)")
	backoff := flag.Duration("backoff", 100*time.Millisecond, "first reconnect delay (doubles per attempt, jittered)")
	flag.Parse()
	if *batch < 1 {
		fmt.Fprintf(os.Stderr, "arraytrack-ap: -batch %d: want at least 1 capture per frame\n", *batch)
		flag.Usage()
		os.Exit(2)
	}

	tb := testbed.New()
	if *id < 1 || *id > len(tb.Sites) {
		log.Fatalf("ap id %d out of range 1–%d", *id, len(tb.Sites))
	}
	var cx, cy float64
	if _, err := fmt.Sscanf(strings.TrimSpace(*clientPos), "%f,%f", &cx, &cy); err != nil {
		log.Fatalf("bad -client %q: %v", *clientPos, err)
	}
	client := geom.Pt(cx, cy)
	if !tb.Plan.Contains(client) {
		log.Fatalf("client %v outside the %vx%v m floor", client, testbed.FloorW, testbed.FloorH)
	}
	if *seed == 0 {
		*seed = int64(*id)
	}

	site := tb.Sites[*id-1]
	capOpt := testbed.DefaultCaptureOptions()
	arr := tb.NewArray(site, capOpt)
	rng := rand.New(rand.NewSource(*seed))
	det := server.DefaultDetector()
	node := server.NewAPNode(uint32(*id), 16)

	// Simulate the client's transmissions embedded in a longer sample
	// stream, run real preamble detection, and buffer the windows.
	preamble := wifi.Preamble40()
	shipped := 0
	for f := 0; f < *frames; f++ {
		pos := client.Add(geom.Vec{
			X: (rng.Float64()*2 - 1) * capOpt.MoveSigma,
			Y: (rng.Float64()*2 - 1) * capOpt.MoveSigma,
		})
		rec := tb.Model.Receive(pos, arr, preamble, channel.RxConfig{
			TxPowerDBm:    capOpt.TxPowerDBm,
			NoiseFloorDBm: capOpt.NoiseFloorDBm,
			Rng:           rng,
		})
		start, ok := det.Detect(rec.Samples)
		where := fmt.Sprintf("detected at sample %d", start)
		if !ok {
			// Detection margin: the simulated stream holds exactly the
			// preamble, so fall back to sample 0.
			start, where = 0, "not detected, cut from sample 0"
		}
		window := det.Extract(rec.Samples, start)
		if len(window[0]) != det.CaptureLen {
			// Every server refuses a short window: do not ship it.
			log.Printf("AP %d: frame %d %s: the window runs past the %d-sample stream, skipped", *id, f+1, where, len(rec.Samples[0]))
			continue
		}
		if shipped == 0 {
			// One line for the shipped shape: CI greps it, so a silent
			// return to longer captures fails there.
			log.Printf("AP %d: shipping %d x %d samples, %.1f KB per capture",
				*id, len(window), len(window[0]), float64(server.BatchFrameSize([]server.Capture{{Streams: window}}))/1000)
		}
		shipped++
		node.Record(uint32(*clientID), time.Now(), window)
		log.Printf("AP %d: captured frame %d (%s, SNR %.1f dB)", *id, f+1, where, rec.SNRdB)
	}

	network, frameBytes := "tcp", 0
	if *udp {
		// Every frame is one datagram: cap it at what one can carry.
		network, frameBytes = "udp", server.MaxDatagramBytes
	}
	// Exit codes split the outcomes for supervisors: 0 delivered, 75
	// (EX_TEMPFAIL) the network never came back within -retries
	// attempts, 1 anything that retrying cannot fix.
	err := node.Upload(context.Background(), func(ctx context.Context) (net.Conn, error) {
		return net.Dial(network, *addr)
	}, server.UploadOptions{
		Batch:       *batch,
		FrameBytes:  frameBytes,
		MaxAttempts: *retries,
		MinBackoff:  *backoff,
		OnAttempt: func(attempt int, d time.Duration, err error) {
			log.Printf("AP %d: upload attempt %d/%d failed (%v), reconnecting in %v",
				*id, attempt, *retries, err, d.Round(time.Millisecond))
		},
	})
	if errors.Is(err, server.ErrRetriesExhausted) {
		log.Printf("AP %d: giving up: %v", *id, err)
		os.Exit(75)
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("AP %d: uploaded %d frame(s) to %s over %s", *id, shipped, *addr, network)
}
