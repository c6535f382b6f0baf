// Roaming: a client walks the office while the production pipeline —
// engine worker pool, pooled workspaces, steering cache, and the
// per-client Kalman tracker — returns a smoothed track update with
// every raw fix, gating out the occasional catastrophic
// (mirror/end-fire) fix. This is the real-time tracking application of
// the paper's introduction, running on the same engine+tracker API the
// server uses.
//
//	go run ./examples/roaming
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/testbed"
)

func main() {
	tb := testbed.New()
	rng := rand.New(rand.NewSource(12))
	capOpt := testbed.DefaultCaptureOptions()
	cfg := core.DefaultConfig(tb.Wavelength)
	cfg.GridCell = 0.25 // coarser synthesis keeps the walk brisk
	aps := tb.APsFor([]int{0, 1, 2, 3, 4, 5}, capOpt)

	// Walking pace: 1.2 m/s, a fix every second.
	const dt = 1.0
	// The tracker reads the walk's clock, so its TTL measures silence in
	// walk time and the client stays live to the end.
	base := time.Unix(1700000000, 0)
	now := base
	tracker := engine.NewTracker(engine.TrackerOptions{ProcessNoise: 0.3, MeasSigma: 0.8, Gate: 3,
		Now: func() time.Time { return now }})
	eng := engine.New(engine.Options{Config: cfg, Tracker: tracker})
	defer eng.Close()

	fmt.Println("step   truth              raw fix      smoothed     raw err  track err")
	var rawErrs, trackErrs []float64
	for i := 0; i < 24; i++ {
		// An L-shaped walk: east along the corridor, then north.
		var truth geom.Point
		if i < 16 {
			truth = geom.Pt(4+1.2*float64(i), 6.5)
		} else {
			truth = geom.Pt(4+1.2*15, 6.5+1.2*float64(i-15))
		}

		var captures [][]core.FrameCapture
		for _, site := range tb.Sites {
			captures = append(captures, testbed.Cut(tb.CaptureClient(truth, site, capOpt, rng)))
		}
		now = base.Add(time.Duration(float64(i) * dt * float64(time.Second)))
		res := eng.Locate(engine.Request{
			ClientID: 1,
			APs:      aps,
			Captures: captures,
			Min:      tb.Plan.Min,
			Max:      tb.Plan.Max,
			Time:     now,
		})
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		upd := res.Track // the smoothed update for this fix
		rawE := res.Pos.Dist(truth) * 100
		trkE := upd.Smoothed.Dist(truth) * 100
		rawErrs = append(rawErrs, rawE)
		trackErrs = append(trackErrs, trkE)
		fmt.Printf("%4d   %-18v %-12s %-12s %6.0fcm %8.0fcm\n",
			i+1, truth, short(res.Pos), short(upd.Smoothed), rawE, trkE)
	}
	fmt.Printf("\nraw fixes:  %v\n", stats.Summarize(rawErrs))
	fmt.Printf("tracked:    %v\n", stats.Summarize(trackErrs))
	ts := tracker.Stats()
	es := eng.Stats()
	fmt.Printf("fixes rejected by the gate: %d  (engine: %d submitted, %d fixes, %d tracked clients)\n",
		ts.GateRejects, es.Submitted, es.Fixes, es.TrackedClients)
	if stats.Median(trackErrs) > stats.Median(rawErrs)*1.5 {
		fmt.Println("note: tracking lagged the walk this run; tune process noise upward")
	}
}

func short(p geom.Point) string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }
