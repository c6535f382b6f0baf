package core

import (
	"runtime"

	"repro/internal/array"
	"repro/internal/geom"
	"repro/internal/music"
)

// Config selects which stages of the ArrayTrack pipeline run and with
// what parameters. The zero value is not useful; start from
// DefaultConfig or UnoptimizedConfig. No field selects an
// implementation: the caches and worker counts below change where
// tables live and how work is spread, never which arithmetic runs.
type Config struct {
	// Wavelength of the carrier in metres.
	Wavelength float64
	// SmoothingGroups is NG for spatial smoothing (§2.3.2; paper: 2).
	SmoothingGroups int
	// MaxSamples is the length of every stream a capture carries: the
	// preamble samples correlated per frame (paper: 10). A stream of any
	// other length is refused (ErrShortCapture).
	MaxSamples int
	// ForwardBackward enables forward-backward correlation averaging,
	// a standard ULA companion to spatial smoothing.
	ForwardBackward bool
	// UseWeighting enables array geometry weighting (§2.3.3).
	UseWeighting bool
	// UseSuppression enables multipath suppression across frames (§2.4).
	UseSuppression bool
	// UseSymmetryRemoval enables ninth-antenna side selection (§2.3.4).
	UseSymmetryRemoval bool
	// GridCell is the synthesis grid pitch in metres (paper: 0.10).
	GridCell float64
	// Steering holds the precomputed steering-vector tables (and the
	// per-orientation vote and weight lookups) every spectrum computed
	// under this config reads. nil means the process-wide shared cache,
	// which DefaultConfig also wires in explicitly; a private cache only
	// isolates accounting and budget.
	Steering *music.SteeringCache
	// APWorkers bounds the goroutines LocateClient uses to process
	// APs concurrently. 0 or 1 processes APs serially; DefaultConfig
	// sets GOMAXPROCS. Results are deterministic regardless.
	APWorkers int
	// SynthCache holds the precomputed bearing→bin lookup tables for
	// the Eq. 8 synthesis grid per (AP position, grid geometry) — the
	// synthesis-layer sibling of Steering, with the same nil rule: the
	// process-wide shared cache.
	SynthCache *SynthCache
	// SynthWorkers bounds the goroutines sharding a full synthesis
	// surface (a grid too small to screen, the screen's fallback,
	// LogHeatmapInto). 0 or 1 evaluates serially; DefaultConfig sets
	// GOMAXPROCS. Results are deterministic regardless.
	SynthWorkers int
	// Estimator is the frame→spectrum stage (nil means
	// music.MUSICEstimator, the paper's pipeline); tests substitute
	// their own.
	Estimator music.Estimator
}

// The capture window, in samples from the detected frame start. An AP
// cuts [DefaultSampleOffset, DefaultSampleOffset+DefaultMaxSamples) out
// of every antenna's stream — the steady preamble after detection — and
// ships only that (server.DefaultDetector); the server correlates every
// sample it is sent (DefaultConfig's MaxSamples).
const (
	DefaultSampleOffset = 100
	DefaultMaxSamples   = 10
)

// ErrShortCapture fails the fix of a capture whose streams are not
// MaxSamples long: shorter, the AP shipped less than this config reads;
// longer, it is an uncut capture whose first samples are not the window.
var ErrShortCapture = music.ErrShortCapture

// DefaultConfig returns the full ArrayTrack pipeline with the paper's
// parameter choices.
func DefaultConfig(wavelength float64) Config {
	return Config{
		Wavelength:         wavelength,
		SmoothingGroups:    2,
		MaxSamples:         DefaultMaxSamples,
		ForwardBackward:    true,
		UseWeighting:       true,
		UseSuppression:     true,
		UseSymmetryRemoval: true,
		GridCell:           0.10,
		Steering:           music.SharedSteeringCache(),
		APWorkers:          runtime.GOMAXPROCS(0),
		SynthCache:         SharedSynthCache(),
		SynthWorkers:       runtime.GOMAXPROCS(0),
	}
}

// UnoptimizedConfig returns the §4.1 baseline: raw spatially-smoothed
// spectra with no weighting, no suppression, and no symmetry removal.
func UnoptimizedConfig(wavelength float64) Config {
	c := DefaultConfig(wavelength)
	c.UseWeighting = false
	c.UseSuppression = false
	c.UseSymmetryRemoval = false
	return c
}

// AP is one access point as the backend sees it: an antenna array plus
// the phase calibration measured for it (§3).
type AP struct {
	// Array describes the antenna geometry and (hidden) hardware
	// offsets.
	Array *array.Array
	// Calibration holds the measured per-element phase offsets to
	// subtract from received samples; nil means the AP is treated as
	// perfectly calibrated.
	Calibration []float64
}

// FrameCapture is the per-antenna baseband sample streams one AP
// recorded for one frame (all NumElements antennas, ninth last if
// present).
type FrameCapture struct {
	Streams [][]complex128
}

// LocateClient runs the complete backend for one client: per-AP
// processing of that client's frames at every AP, then synthesis over
// the given area. captures[i] holds the frames AP i overheard; APs
// with no captures are skipped. At least one AP must contribute. See
// Pipeline for the explicit stage structure.
func LocateClient(aps []*AP, captures [][]FrameCapture, min, max geom.Point, cfg Config) (geom.Point, []APSpectrum, error) {
	return NewPipeline(cfg).Locate(aps, captures, min, max)
}
