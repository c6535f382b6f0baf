package testbed

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// ThroughputOptions sizes the multi-client throughput experiment.
type ThroughputOptions struct {
	// ClientCounts are the concurrent-client batch sizes measured.
	ClientCounts []int
	// Sites indexes the AP sites every client is heard by.
	Sites []int
	// Capture configures the simulated radios.
	Capture CaptureOptions
	// GridCell overrides the synthesis pitch (coarser than the
	// paper's 0.10 m keeps one fix cheap enough to measure in bulk).
	GridCell float64
}

// DefaultThroughputOptions mirrors the paper's ~100 ms/fix scenario at
// batch sizes matching the benchmark suite.
func DefaultThroughputOptions() ThroughputOptions {
	return ThroughputOptions{
		ClientCounts: []int{1, 8, 64, 256},
		Sites:        []int{0, 2, 4},
		Capture:      DefaultCaptureOptions(),
		GridCell:     0.25,
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
			captures[ci][si] = tb.CaptureClient(tb.Clients[ci], tb.Sites[s], opt.Capture, rng)
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

// RunThroughput measures location fixes per second through the
// concurrent engine for batches of concurrent clients. This is the
// system half of the paper's claim — many clients, many APs, bounded
// latency — measured rather than asserted.
func (tb *Testbed) RunThroughput(opt ThroughputOptions) (*Report, error) {
	r := &Report{ID: "throughput", Title: "multi-client localization throughput (fixes/sec)"}
	r.Addf("%8s %14s", "clients", "engine")

	engineCfg := core.DefaultConfig(tb.Wavelength)
	engineCfg.GridCell = opt.GridCell

	maxClients := 0
	for _, n := range opt.ClientCounts {
		if n > maxClients {
			maxClients = n
		}
	}
	all := tb.ThroughputRequests(maxClients, opt)

	for _, n := range opt.ClientCounts {
		reqs := all[:n]

		eng := engine.New(engine.Options{Config: engineCfg})
		start := time.Now()
		results := eng.LocateBatch(reqs)
		engRate := float64(n) / time.Since(start).Seconds()
		eng.Close()
		for _, res := range results {
			if res.Err != nil {
				return nil, res.Err
			}
		}

		r.Addf("%8d %14.1f", n, engRate)
		r.AddMetric(fmt.Sprintf("fixes_per_sec_engine_%d", n), engRate, "fixes/sec")
	}
	return r, nil
}
