package server

import (
	"bytes"
	"math/rand"
	"testing"
)

// The capture arraytrack-ap really ships: nine antennas by the window
// the server reads (DefaultDetector().CaptureLen, 10 samples: 0.4 KB on
// the wire). One frame carries an AP's three frames of one
// transmission, as in walk6x3.
const (
	benchAnt           = 9
	benchFrameCaptures = 3
)

var benchSamp = DefaultDetector().CaptureLen

func benchFrame(rng *rand.Rand) []Capture {
	caps := make([]Capture, benchFrameCaptures)
	for i := range caps {
		caps[i] = batchCapture(rng, benchAnt, benchSamp)
	}
	return caps
}

func reportPerCapture(b *testing.B, captures int) {
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*captures), "µs/capture")
}

// BenchmarkAppendBatch is the AP-side encode: peak scan plus quantizer.
func BenchmarkAppendBatch(b *testing.B) {
	caps := benchFrame(rand.New(rand.NewSource(1)))
	buf, err := AppendBatch(nil, caps)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = AppendBatch(buf[:0], caps); err != nil {
			b.Fatal(err)
		}
	}
	reportPerCapture(b, len(caps))
}

// BenchmarkAppendBatchReencode is the router-side encode: the captures
// were decoded from a stream frame and still hold their wire payload.
func BenchmarkAppendBatchReencode(b *testing.B) {
	frame, err := AppendBatch(nil, benchFrame(rand.New(rand.NewSource(1))))
	if err != nil {
		b.Fatal(err)
	}
	ws := GetIngestWorkspace()
	caps, err := ReadFrameInto(bytes.NewReader(frame), ws)
	if err != nil {
		ws.Discard()
		b.Fatal(err)
	}
	defer ReleaseAll(caps)
	buf, err := AppendBatch(nil, caps)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = AppendBatch(buf[:0], caps); err != nil {
			b.Fatal(err)
		}
	}
	reportPerCapture(b, len(caps))
}

// BenchmarkReadFrameInto is the pooled decode of the same frame.
func BenchmarkReadFrameInto(b *testing.B) {
	frame, err := AppendBatch(nil, benchFrame(rand.New(rand.NewSource(1))))
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(frame)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(frame)
		ws := GetIngestWorkspace()
		caps, err := ReadFrameInto(rd, ws)
		if err != nil {
			ws.Discard()
			b.Fatal(err)
		}
		ReleaseAll(caps)
	}
	reportPerCapture(b, benchFrameCaptures)
}
