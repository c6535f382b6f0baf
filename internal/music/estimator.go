package music

// Pluggable AoA estimators. The paper's pipeline is MUSIC end to end,
// but the rest of the system — correlation estimation, the steering
// cache, synthesis, tracking — is estimator-agnostic, and the
// evaluation's comparisons (conventional beamforming, classic
// unsmoothed MUSIC) are just different spectrum functions over the
// same snapshots. An Estimator plugs into core's pipeline at the
// frame→spectrum stage; everything downstream is unchanged.

import (
	"errors"
	"fmt"

	"repro/internal/array"
)

// Estimator turns one frame's snapshots into an AoA spectrum. snaps are
// the frame's calibrated snapshots (CalibratedSnapshotsWS), the main row
// first in each: an estimator reads the first a.N elements, so a caller
// may take the ninth antenna's with them for its own use.
// Implementations must be safe for concurrent use by goroutines holding
// distinct workspaces, and must not modify snaps. ws holds the call's
// scratch for the call's duration; nil means a fresh Workspace.
type Estimator interface {
	// Name identifies the estimator ("music", "bartlett", "baseline").
	Name() string
	// Spectrum computes the normalized AoA spectrum from the row's
	// snapshots. The caller may hand the result back to ws with
	// Recycle, which reuses a spectrum that came out of ws's own scans
	// and ignores any other: an estimator that keeps or shares what it
	// returns must therefore build it without ws (a fresh workspace, or
	// a spectrum of its own).
	Spectrum(ws *Workspace, a *array.Array, snaps [][]complex128, opt Options) (*Spectrum, error)
}

// MUSICEstimator is the paper's full §2.3 chain: spatial smoothing,
// optional forward-backward averaging, eigen subspace split, MUSIC
// pseudospectrum. With averaging on it never forms a complex
// correlation (see subspace.go). It is the default estimator everywhere.
var MUSICEstimator Estimator = musicEstimator{}

type musicEstimator struct{}

func (musicEstimator) Name() string { return "music" }

func (musicEstimator) Spectrum(ws *Workspace, a *array.Array, snaps [][]complex128, opt Options) (*Spectrum, error) {
	ws = orFresh(ws)
	noise, err := noiseSubspace(ws, snaps, a.N, opt)
	if err != nil {
		return nil, err
	}
	return MUSICWithTableWS(ws, noise, opt.table(a)), nil
}

// BartlettEstimator is the conventional (delay-and-sum) beamformer:
// P(θ) = a(θ)ᴴ·R·a(θ) on the full-row correlation matrix, no subspace
// machinery. It resolves multipath far worse than MUSIC — which is the
// paper's point — but costs no eigendecomposition.
var BartlettEstimator Estimator = bartlettEstimator{}

type bartlettEstimator struct{}

func (bartlettEstimator) Name() string { return "bartlett" }

func (bartlettEstimator) Spectrum(ws *Workspace, a *array.Array, snaps [][]complex128, opt Options) (*Spectrum, error) {
	ws = orFresh(ws)
	r, err := correlate(&ws.r, snaps, a.N)
	if err != nil {
		return nil, err
	}
	return BartlettWithTableWS(ws, r, opt.table(a)).Normalize(), nil
}

// BaselineEstimator is classic MUSIC as it existed before the paper:
// no spatial smoothing, no forward-backward averaging — the §4.1
// "unoptimized" starting point. Coherent multipath collapses its
// correlation matrix rank, which is exactly the failure §2.3.2 fixes.
var BaselineEstimator Estimator = baselineEstimator{}

type baselineEstimator struct{}

func (baselineEstimator) Name() string { return "baseline" }

func (baselineEstimator) Spectrum(ws *Workspace, a *array.Array, snaps [][]complex128, opt Options) (*Spectrum, error) {
	ws = orFresh(ws)
	r, err := correlate(&ws.r, snaps, a.N)
	if err != nil {
		return nil, err
	}
	maxD := opt.MaxSignals
	if maxD <= 0 {
		maxD = r.Rows / 2
	}
	noise, err := hermitianNoise(ws, r, opt.thresh(), maxD)
	if err != nil {
		return nil, err
	}
	return MUSICWithTableWS(ws, noise, opt.table(a)), nil
}

// ErrShortCapture reports streams that end before the window
// [offset, offset+maxSamples) the snapshots were asked to read (and,
// through core, streams that are not the window's length).
var ErrShortCapture = errors.New("music: capture does not match the correlation window")

// CalibratedSnapshotsWS takes snapshots of the streams (SnapshotsAtWS)
// and removes the calibration offsets when calib is non-nil (the §3
// correction, its phasors computed once for the whole frame). The
// snapshots live in ws until its next snapshots. Unlike SnapshotsAtWS it
// holds the window as a contract: a stream that does not reach
// offset+maxSamples (offset+1 when maxSamples is 0) is refused with
// ErrShortCapture, never read from sample 0 or taken over fewer
// snapshots than configured.
func CalibratedSnapshotsWS(ws *Workspace, streams [][]complex128, offset, maxSamples int, calib []float64) ([][]complex128, error) {
	ws = orFresh(ws)
	need := offset + max(maxSamples, 1)
	for k, st := range streams {
		if offset < 0 || len(st) < need {
			return nil, fmt.Errorf("%w: stream %d has %d samples, window is [%d, %d)", ErrShortCapture, k, len(st), offset, need)
		}
	}
	snaps := SnapshotsAtWS(ws, streams, offset, maxSamples)
	if calib != nil {
		ws.phasors = array.CorrectSnapshots(snaps, calib, ws.phasors)
	}
	return snaps, nil
}

// EstimatorByName resolves "music", "bartlett", or "baseline".
func EstimatorByName(name string) (Estimator, error) {
	switch name {
	case "", "music":
		return MUSICEstimator, nil
	case "bartlett":
		return BartlettEstimator, nil
	case "baseline":
		return BaselineEstimator, nil
	}
	return nil, fmt.Errorf("music: unknown estimator %q (have music, bartlett, baseline)", name)
}

// EstimatorNames lists the registered estimator names.
func EstimatorNames() []string { return []string{"music", "bartlett", "baseline"} }
