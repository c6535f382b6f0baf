package testbed

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
)

// ThroughputOptions shapes the multi-client request fixture the engine
// tests and the root benchmarks share.
type ThroughputOptions struct {
	// Sites indexes the AP sites every client is heard by.
	Sites []int
	// Capture configures the simulated radios.
	Capture CaptureOptions
	// GridCell overrides the synthesis pitch (coarser than the
	// paper's 0.10 m keeps one fix cheap enough to measure in bulk).
	GridCell float64
}

// DefaultThroughputOptions mirrors the paper's ~100 ms/fix scenario.
func DefaultThroughputOptions() ThroughputOptions {
	return ThroughputOptions{
		Sites:    []int{0, 2, 4},
		Capture:  DefaultCaptureOptions(),
		GridCell: 0.25,
	}
}

// ThroughputRequests synthesizes one localization request per client
// position (cycling through the testbed's 41 clients when n exceeds
// them, sharing the underlying captures), ready for the engine or a
// serial loop. The base request set is deterministic.
func (tb *Testbed) ThroughputRequests(n int, opt ThroughputOptions) []engine.Request {
	aps := tb.APsFor(opt.Sites, opt.Capture)
	base := len(tb.Clients)
	if n < base {
		base = n
	}
	captures := make([][][]core.FrameCapture, base)
	for ci := 0; ci < base; ci++ {
		rng := rand.New(rand.NewSource(int64(7000 + ci)))
		captures[ci] = make([][]core.FrameCapture, len(opt.Sites))
		for si, s := range opt.Sites {
			captures[ci][si] = Cut(tb.CaptureClient(tb.Clients[ci], tb.Sites[s], opt.Capture, rng))
		}
	}
	reqs := make([]engine.Request, n)
	for i := 0; i < n; i++ {
		reqs[i] = engine.Request{
			ClientID: uint32(i + 1),
			APs:      aps,
			Captures: captures[i%base],
			Min:      tb.Plan.Min,
			Max:      tb.Plan.Max,
		}
	}
	return reqs
}
