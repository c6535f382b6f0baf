package channel_test

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/testbed"
)

// pathsSink keeps the traced paths live so the compiler cannot drop the
// calls under measurement.
var pathsSink []channel.Path

// BenchmarkPaths traces every testbed client to each of the six AP
// sites over the testbed's 34-wall plan: one op is the 41 × 6 Paths
// calls behind one frame of a full-size draw.
func BenchmarkPaths(b *testing.B) {
	tb := testbed.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range tb.Clients {
			for _, s := range tb.Sites {
				pathsSink = tb.Model.Paths(c, s.Pos, 0)
			}
		}
	}
}
