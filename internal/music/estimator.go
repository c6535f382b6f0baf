package music

// The frame→spectrum seam. The paper's pipeline, and the service, are
// MUSIC end to end; the rest of the system — the steering cache,
// synthesis, tracking — reads only the spectrum, so an Estimator plugs
// into core's pipeline at this stage with everything downstream
// unchanged. Tests substitute estimators through it.

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

func (musicEstimator) Spectrum(ws *Workspace, a *array.Array, snaps [][]complex128, opt Options) (*Spectrum, error) {
	ws = orFresh(ws)
	noise, err := noiseSubspace(ws, snaps, a.N, opt)
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
