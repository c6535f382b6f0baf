package engine

import (
	"testing"
	"time"
)

// TestLatencyBuckets: a latency lands in the first bucket whose upper
// bound it does not exceed, and past the last bound in the unbounded one.
func TestLatencyBuckets(t *testing.T) {
	last := latencyBase << (latencyBuckets - 1)
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{0, 0}, {time.Nanosecond, 0}, {latencyBase, 0}, {latencyBase + 1, 1},
		{2 * latencyBase, 1}, {3 * latencyBase, 2}, {4 * latencyBase, 2},
		{last, latencyBuckets - 1}, {last + 1, latencyBuckets}, {time.Hour, latencyBuckets},
	} {
		var h latencyHist
		h.observe(c.d)
		for i := range h.counts {
			if got, want := h.counts[i].Load(), uint64(0); i == c.want {
				if got != 1 {
					t.Errorf("%v: bucket %d holds %d, want 1", c.d, i, got)
				}
			} else if got != want {
				t.Errorf("%v: bucket %d holds %d, want only bucket %d", c.d, i, got, c.want)
			}
		}
	}
}
