package testbed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/array"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/geom"
)

// drawDigests are the SHA-256 digests drawDigest returns for the seed-1
// and seed-2 205-scene draws, computed before the ray tracer culled its
// wall scans. Any change to a traced path or a cut sample moves them.
var drawDigests = map[int64]string{
	1: "189cfa9f4af2aef870b28f9305afb90f7511bb2e9dae8e61ad9805f90d66aad9",
	2: "37ea1a04d908ff18da255e8fc57d83731f62bd26e518864a75cf5b163cb21ebd",
}

// drawDigest hashes every field of every path Model.Paths traced for the
// draw opt describes, reception by reception, and every sample of the
// cut frames the draw keeps, in draw order.
func drawDigest(tb *Testbed, opt AccuracyOptions) string {
	h := sha256.New()
	var buf []byte
	put := func(bits uint64) {
		buf = binary.LittleEndian.AppendUint64(buf[:0], bits)
		h.Write(buf)
	}
	putFloat := func(x float64) { put(math.Float64bits(x)) }
	receive := func(tx geom.Point, a *array.Array, sig []complex128, cfg channel.RxConfig) *channel.Reception {
		rec := tb.Model.Receive(tx, a, sig, cfg)
		put(uint64(len(rec.Paths)))
		for _, p := range rec.Paths {
			putFloat(p.AoA)
			putFloat(p.Length)
			putFloat(real(p.Gain))
			putFloat(imag(p.Gain))
			put(uint64(p.Bounces))
			if p.Direct {
				put(1)
			} else {
				put(0)
			}
		}
		return rec
	}
	tb.drawFrames(opt, receive, func(ci, si int, frames []core.FrameCapture) {
		for _, f := range Cut(frames) {
			for _, st := range f.Streams {
				for _, v := range st {
					putFloat(real(v))
					putFloat(imag(v))
				}
			}
		}
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestDrawDigestUnchanged pins the seed-1 and seed-2 205-scene draws bit
// for bit: every traced path of every reception and every cut sample.
// TestDrawWireMatchesPerPath cannot see a ray-tracer fault, since Receive
// and its per-path reference both read Model.Paths; this digest can.
func TestDrawDigestUnchanged(t *testing.T) {
	tb := New()
	for _, seed := range []int64{1, 2} {
		opt := DefaultAccuracyOptions()
		opt.Seed = seed
		if got := drawDigest(tb, opt); got != drawDigests[seed] {
			t.Errorf("seed %d: draw digest %s, want %s", seed, got, drawDigests[seed])
		}
	}
}
