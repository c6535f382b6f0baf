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
	"repro/internal/mat"
)

// Estimator turns one frame's correlation matrix into an AoA spectrum.
// r is the calibrated a.N × a.N correlation of the array's main row
// (CalibratedCorrelationWS): the caller correlates each frame once and
// every estimator starts from that matrix. Implementations must be safe
// for concurrent use by multiple goroutines holding distinct
// workspaces, and must not modify r. ws holds the call's scratch and
// must only be used for the duration of the call; nil means a fresh
// Workspace (see Workspace).
type Estimator interface {
	// Name identifies the estimator ("music", "bartlett", "baseline").
	Name() string
	// Spectrum computes the normalized AoA spectrum from the row's
	// correlation matrix. The caller may hand the result back to ws
	// with Recycle, which reuses a spectrum that came out of ws's own
	// scans and ignores any other: an estimator that keeps or shares
	// what it returns must therefore build it without ws (a fresh
	// workspace, or a spectrum of its own).
	Spectrum(ws *Workspace, a *array.Array, r *mat.Matrix, opt Options) (*Spectrum, error)
}

// MUSICEstimator is the paper's full §2.3 chain: spatial smoothing,
// optional forward-backward averaging, eigen subspace split, MUSIC
// pseudospectrum. It is the default estimator everywhere.
var MUSICEstimator Estimator = musicEstimator{}

type musicEstimator struct{}

func (musicEstimator) Name() string { return "music" }

func (musicEstimator) Spectrum(ws *Workspace, a *array.Array, r *mat.Matrix, opt Options) (*Spectrum, error) {
	ws = orFresh(ws)
	noise, err := noiseSubspace(ws, r, opt)
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

func (bartlettEstimator) Spectrum(ws *Workspace, a *array.Array, r *mat.Matrix, opt Options) (*Spectrum, error) {
	return BartlettWithTableWS(ws, r, opt.table(a)).Normalize(), nil
}

// BaselineEstimator is classic MUSIC as it existed before the paper:
// no spatial smoothing, no forward-backward averaging — the §4.1
// "unoptimized" starting point. Coherent multipath collapses its
// correlation matrix rank, which is exactly the failure §2.3.2 fixes.
var BaselineEstimator Estimator = baselineEstimator{}

type baselineEstimator struct{}

func (baselineEstimator) Name() string { return "baseline" }

func (baselineEstimator) Spectrum(ws *Workspace, a *array.Array, r *mat.Matrix, opt Options) (*Spectrum, error) {
	ws = orFresh(ws)
	maxD := opt.MaxSignals
	if maxD <= 0 {
		maxD = r.Rows / 2
	}
	noise, err := noiseVectors(ws, r, opt.thresh(), maxD)
	if err != nil {
		return nil, err
	}
	return MUSICWithTableWS(ws, noise, opt.table(a)), nil
}

// frameCorrelation is ComputeSpectrumWS's front half: snapshots →
// calibration → correlation over the array's main-row streams.
func frameCorrelation(ws *Workspace, a *array.Array, streams [][]complex128, opt Options) (*mat.Matrix, error) {
	if len(streams) < 2 {
		return nil, errors.New("music: need at least two antenna streams")
	}
	if len(streams) > a.N {
		return nil, fmt.Errorf("music: %d streams exceed the %d-element row", len(streams), a.N)
	}
	return CalibratedCorrelationWS(ws, streams, opt.SampleOffset, opt.MaxSamples, opt.CalibrationOffsets)
}

// ErrShortCapture reports streams that end before the window
// [offset, offset+maxSamples) the correlation was asked to read (and,
// through core, streams that are not the window's length).
var ErrShortCapture = errors.New("music: capture does not match the correlation window")

// CalibratedCorrelationWS takes snapshots of the streams (SnapshotsAtWS),
// removes the calibration offsets when calib is non-nil (the §3
// correction, its phasors computed once for the whole frame), and
// returns their correlation matrix (CorrelationMatrixWS). Everything
// lives in ws. Unlike SnapshotsAtWS it holds the window as a contract:
// a stream that does not reach offset+maxSamples (offset+1 when
// maxSamples is 0) is refused with ErrShortCapture, never read from
// sample 0 or correlated over fewer snapshots than configured.
func CalibratedCorrelationWS(ws *Workspace, streams [][]complex128, offset, maxSamples int, calib []float64) (*mat.Matrix, error) {
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
	return CorrelationMatrixWS(ws, snaps)
}

// SplitCorrelationWS correlates a frame over all its streams (the ninth
// antenna included) for a caller that needs both the main row's matrix,
// for an Estimator, and the full one, for the §2.3.4 vote. row is the
// leading n × n block, in the matrix CalibratedCorrelationWS fills; full
// sits in a slot of its own that later correlations leave alone, valid
// until the next SplitCorrelationWS. Each entry of the block sums the
// same products in the same snapshot order as a correlation of the
// first n streams alone, so row equals CalibratedCorrelationWS of
// streams[:n] bit for bit.
func SplitCorrelationWS(ws *Workspace, streams [][]complex128, n, offset, maxSamples int, calib []float64) (row, full *mat.Matrix, err error) {
	ws = orFresh(ws)
	if n < 1 || n > len(streams) {
		return nil, nil, fmt.Errorf("music: row of %d out of %d streams", n, len(streams))
	}
	full, err = CalibratedCorrelationWS(ws, streams, offset, maxSamples, calib)
	if err != nil {
		return nil, nil, err
	}
	ws.full, ws.r = full, mat.ReuseMatrix(ws.full, n, n)
	m := full.Cols
	for i := 0; i < n; i++ {
		copy(ws.r.Data[i*n:(i+1)*n], full.Data[i*m:i*m+n])
	}
	return ws.r, full, nil
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
