// Quickstart: localize one WiFi client with three ArrayTrack APs.
//
// This walks the whole pipeline end to end on a minimal scene —
// simulate a client's 802.11 preamble arriving at three 8-antenna APs,
// compute multipath-suppressed AoA spectra, and fuse them into a
// position estimate.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/internal/array"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/wifi"
)

func main() {
	lambda := wifi.Wavelength()
	rng := rand.New(rand.NewSource(1))

	// A 20 m × 12 m room with drywall partitions and a couple of
	// scattering objects.
	var plan geom.Floorplan
	plan.AddRect(geom.Pt(0, 0), geom.Pt(20, 12), geom.Drywall)
	model := &channel.Model{
		Plan:           &plan,
		Wavelength:     lambda,
		MaxReflections: 2,
		WallRoughness:  0.5,
		Scatterers: []channel.Scatterer{
			{Pos: geom.Pt(6, 9), Coeff: 0.15},
			{Pos: geom.Pt(14, 3), Coeff: 0.15},
		},
	}

	// Three APs along the walls, arrays broadside into the room, with
	// the ninth antenna for symmetry removal.
	sites := []struct {
		pos    geom.Point
		orient float64
	}{
		{geom.Pt(2, 0.5), 0},
		{geom.Pt(19.5, 6), math.Pi / 2},
		{geom.Pt(10, 11.5), math.Pi},
	}
	var aps []*core.AP
	for _, s := range sites {
		arr := array.NewLinear(s.pos, s.orient, 8, lambda)
		arr.NinthAntenna = true
		aps = append(aps, &core.AP{Array: arr})
	}

	// The client transmits three frames from (13, 7.5), drifting a few
	// centimetres between them — enough for multipath suppression.
	client := geom.Pt(13, 7.5)
	// Each AP ships the server only the ten samples it correlates,
	// [100, 110) after the frame start (the stream starts at the preamble).
	preamble := wifi.Preamble40()
	det := server.DefaultDetector()
	captures := make([][]core.FrameCapture, len(aps))
	for i, ap := range aps {
		pos := client
		for f := 0; f < 3; f++ {
			rec := model.Receive(pos, ap.Array, preamble, channel.RxConfig{
				TxPowerDBm:    15,
				NoiseFloorDBm: -85,
				Rng:           rng,
			})
			captures[i] = append(captures[i], core.FrameCapture{Streams: det.Extract(rec.Samples, 0)})
			pos = client.Add(geom.Vec{X: rng.Float64()*0.06 - 0.03, Y: rng.Float64()*0.06 - 0.03})
		}
	}

	// Run the backend: per-AP spectra, then maximum-likelihood
	// synthesis over the room.
	cfg := core.DefaultConfig(lambda)
	pos, specs, err := core.LocateClient(aps, captures, plan.Min, plan.Max, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("true position      %v\n", client)
	fmt.Printf("estimated position %v\n", pos)
	fmt.Printf("error              %.0f cm\n\n", pos.Dist(client)*100)
	for i, s := range specs {
		truth := s.Pos.Bearing(client)
		fmt.Printf("AP %d: true bearing %5.1f°, spectrum peak value there %.2f\n",
			i+1, geom.Deg(truth), s.Spectrum.At(truth))
	}
}
