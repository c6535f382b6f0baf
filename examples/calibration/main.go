// Calibration: demonstrate why AoA is impossible on an uncalibrated
// array and how the paper's splitter-swap procedure (§3) fixes it.
//
// Each radio front end adds an unknown downconversion phase. Without
// calibration the MUSIC spectrum is garbage; after the two-measurement
// swap calibration the true bearing reappears.
//
//	go run ./examples/calibration
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/internal/array"
	"repro/internal/channel"
	"repro/internal/geom"
	"repro/internal/music"
	"repro/internal/wifi"
)

func main() {
	lambda := wifi.Wavelength()
	rng := rand.New(rand.NewSource(99))

	// An 8-antenna AP whose radios carry random unknown phase offsets.
	arr := array.NewLinear(geom.Pt(0, 0), 0, 8, lambda)
	arr.RandomizePhaseOffsets(rng)

	// A free-space client at a 62° bearing.
	client := geom.Pt(4, 7.5)
	truth := arr.Pos.Bearing(client)
	model := &channel.Model{Wavelength: lambda}
	rec := model.Receive(client, arr, wifi.Preamble40(), channel.RxConfig{
		TxPowerDBm:    10,
		NoiseFloorDBm: -90,
		Rng:           rng,
	})

	opts := music.Options{
		Wavelength:      lambda,
		SmoothingGroups: 2,
		MaxSamples:      10,
		SampleOffset:    100,
		ForwardBackward: true,
	}

	uncal, err := music.ComputeSpectrumWS(nil, arr, rec.Samples, opts)
	if err != nil {
		log.Fatal(err)
	}
	_, bin := uncal.Max()
	fmt.Printf("true bearing                 %6.1f°\n", geom.Deg(truth))
	fmt.Printf("uncalibrated spectrum peak   %6.1f°  (meaningless)\n", geom.Deg(uncal.Theta(bin)))

	// Calibrate with the USRP2-style tone source: imperfect cables,
	// two runs per radio pair with the external paths exchanged
	// (Equations 9–12).
	tone := &array.CalibrationTone{
		ExternalPhases: array.NewImperfectCables(8, 0.25, rng),
		PhaseNoise:     0.01,
		Rng:            rng,
	}
	measured, err := array.Calibrate(arr, tone)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibration residual         %6.3f rad\n", array.OffsetError(arr, measured))

	opts.CalibrationOffsets = measured
	cal, err := music.ComputeSpectrumWS(nil, arr, rec.Samples, opts)
	if err != nil {
		log.Fatal(err)
	}
	_, bin = cal.Max()
	peak := geom.Deg(cal.Theta(bin))
	fmt.Printf("calibrated spectrum peak     %6.1f°", peak)
	if math.Abs(peak-geom.Deg(truth)) < 3 || math.Abs(360-peak-geom.Deg(truth)) < 3 {
		fmt.Println("  ✓ matches the true bearing (or its mirror)")
	} else {
		fmt.Println()
	}
}
