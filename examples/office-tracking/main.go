// Office tracking: follow a client walking through the simulated office
// testbed, re-localizing at every step with all six APs — the
// augmented-reality navigation scenario the paper's introduction
// motivates.
//
//	go run ./examples/office-tracking
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/testbed"
)

func main() {
	tb := testbed.New()
	rng := rand.New(rand.NewSource(7))
	capOpt := testbed.DefaultCaptureOptions()
	cfg := core.DefaultConfig(tb.Wavelength)
	aps := tb.APsFor([]int{0, 1, 2, 3, 4, 5}, capOpt)

	// A walk along the office corridor: from the left wing, past the
	// pillars, to the lab on the right.
	waypoints := []geom.Point{
		{X: 4, Y: 6}, {X: 8, Y: 6.5}, {X: 12, Y: 6.5}, {X: 16, Y: 6},
		{X: 20, Y: 6.5}, {X: 24, Y: 7}, {X: 28, Y: 7}, {X: 32, Y: 7.5},
	}

	fmt.Println("step   true position      estimate           error")
	var errs []float64
	for i, wp := range waypoints {
		var captures [][]core.FrameCapture
		for _, site := range tb.Sites {
			captures = append(captures, testbed.Cut(tb.CaptureClient(wp, site, capOpt, rng)))
		}
		pos, _, err := core.LocateClient(aps, captures, tb.Plan.Min, tb.Plan.Max, cfg)
		if err != nil {
			log.Fatal(err)
		}
		e := pos.Dist(wp) * 100
		errs = append(errs, e)
		fmt.Printf("%4d   %-18v %-18v %5.0f cm\n", i+1, wp, pos, e)
	}
	fmt.Printf("\ntrack summary: %v\n", stats.Summarize(errs))
}
