package core

// The streaming localization pipeline, as explicit stages —
//
//	snapshots → subspace → spectrum                 (per frame, via the
//	                                                 injected Estimator,
//	                                                 as suppression asks)
//	suppression → weighting → symmetry removal      (per AP, across frames)
//	synthesis                                       (across APs, Eq. 8)
//
// — with every stage threading a music.Workspace (drawn from a
// sync.Pool, or owned by the caller for its lifetime), so the
// steady-state hot path allocates only what escapes: the fix, and the
// combined spectra unless the caller recycles them. Each frame's
// snapshots are taken once: the estimator (Config.Estimator, pluggable)
// reads their main row, and frame 0's ninth-antenna vote correlates all
// nine — with forward–backward MUSIC, the AP's only complex correlation.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/music"
)

// Pipeline is a Config with every default resolved: the one place a nil
// Steering, SynthCache or Estimator turns into the shared cache or
// MUSIC. It is safe for concurrent use — every public method that takes
// no workspace draws its own from music.SharedWorkspacePool — and cheap
// to build, though a long-lived caller (the engine) builds it once.
type Pipeline struct {
	cfg Config
}

// workspaces is the per-worker scratch pool every pipeline shares.
var workspaces = music.SharedWorkspacePool()

// NewPipeline resolves the config's defaults: a nil Estimator means
// MUSIC, a nil Steering or SynthCache the process-wide shared cache, a
// non-positive GridCell the paper's 10 cm.
func NewPipeline(cfg Config) *Pipeline {
	if cfg.Estimator == nil {
		cfg.Estimator = music.MUSICEstimator
	}
	if cfg.Steering == nil {
		cfg.Steering = music.SharedSteeringCache()
	}
	if cfg.SynthCache == nil {
		cfg.SynthCache = SharedSynthCache()
	}
	if cfg.GridCell <= 0 {
		cfg.GridCell = 0.10
	}
	return &Pipeline{cfg: cfg}
}

// Config returns the pipeline's configuration with every default
// resolved (no nil cache, no nil estimator).
func (p *Pipeline) Config() Config { return p.cfg }

// MUSICOptions translates the config into per-frame spectrum options
// for an AP with the given calibration offsets.
func (c Config) MUSICOptions(calibration []float64) music.Options {
	return music.Options{
		Wavelength:          c.Wavelength,
		SmoothingGroups:     c.SmoothingGroups,
		SignalThresholdFrac: music.DefaultSignalThresholdFrac,
		MaxSamples:          c.MaxSamples,
		ForwardBackward:     c.ForwardBackward,
		Steering:            c.Steering,
		CalibrationOffsets:  calibration,
	}
}

// window refuses streams that are not the MaxSamples samples an AP
// ships: a short one lacks samples, a long one is an uncut capture whose
// first samples would silently stand in for the window.
func (p *Pipeline) window(streams [][]complex128) error {
	for k, st := range streams {
		if len(st) != p.cfg.MaxSamples {
			return fmt.Errorf("%w: stream %d has %d samples, the window is %d", ErrShortCapture, k, len(st), p.cfg.MaxSamples)
		}
	}
	return nil
}

// FrameSpectrum is the per-frame stage chain (snapshots → subspace →
// spectrum): the frame's row snapshots taken here, the rest delegated
// to the estimator, all on the given workspace (nil means a fresh one).
func (p *Pipeline) FrameSpectrum(ws *music.Workspace, ap *AP, frame FrameCapture) (*music.Spectrum, error) {
	if ws == nil {
		ws = &music.Workspace{}
	}
	snaps, err := p.snapshots(ws, ap, frame, false)
	if err != nil {
		return nil, err
	}
	return p.cfg.Estimator.Spectrum(ws, ap.Array, snaps, p.cfg.MUSICOptions(ap.Calibration))
}

// votes reports whether the ninth-antenna vote runs for an AP's frame
// group: it needs the option, the antenna, and frame 0's stream from it.
func (p *Pipeline) votes(ap *AP, frames []FrameCapture) bool {
	return p.cfg.UseSymmetryRemoval && ap.Array.NinthAntenna &&
		len(frames) > 0 && len(frames[0].Streams) >= ap.Array.NumElements()
}

// streams checks a frame and returns the streams the per-AP stage reads
// from it: its main row's, or, when full is set, every element's (the
// vote's, the row's being their leading elements), each the window long.
func (p *Pipeline) streams(ap *AP, frame FrameCapture, full bool) ([][]complex128, error) {
	n := ap.Array.N
	if len(frame.Streams) < n {
		return nil, fmt.Errorf("core: frame has %d streams, need %d row antennas", len(frame.Streams), n)
	}
	streams := frame.Streams[:n]
	if full {
		streams = frame.Streams[:ap.Array.NumElements()]
	}
	if err := p.window(streams); err != nil {
		return nil, err
	}
	return streams, nil
}

// snapshots is the one snapshot site of the per-AP stage: the
// calibrated snapshots of the streams a checked frame offers (see
// streams).
func (p *Pipeline) snapshots(ws *music.Workspace, ap *AP, frame FrameCapture, full bool) ([][]complex128, error) {
	streams, err := p.streams(ap, frame, full)
	if err != nil {
		return nil, err
	}
	return music.CalibratedSnapshotsWS(ws, streams, 0, p.cfg.MaxSamples, ap.Calibration)
}

// framesRead is how many leading frames of an n-frame group CombineAP
// reads: the first three under multipath suppression (step 1 of §2.4),
// the primary alone without it.
func (p *Pipeline) framesRead(n int) int {
	switch {
	case !p.cfg.UseSuppression && n > 1:
		return 1
	case n > 3:
		return 3
	}
	return n
}

// CombineAP is the cross-frame stage for one AP: multipath suppression
// over the frame spectra (§2.4), geometry weighting (§2.3.3), and
// ninth-antenna symmetry removal (§2.3.4). frames supplies the raw
// streams symmetry removal needs, correlated here; spectra are the
// FrameSpectrum outputs in frame order, of which suppression reads the
// first framesRead at most, frame 2 only if frame 1 leaves a primary
// peak unmatched. The returned spectrum is normalized and lent by ws (see
// music.Workspace.Recycle). A nil ws means a fresh workspace.
func (p *Pipeline) CombineAP(ws *music.Workspace, ap *AP, frames []FrameCapture, spectra []*music.Spectrum) (*music.Spectrum, error) {
	if len(spectra) == 0 {
		return nil, errors.New("core: no spectra to combine")
	}
	if ws == nil {
		ws = &music.Workspace{}
	}
	var rFull *mat.Matrix
	if p.votes(ap, frames) {
		snaps, err := p.snapshots(ws, ap, frames[0], true)
		if err != nil {
			return nil, err
		}
		if rFull, err = music.VoteCorrelationWS(ws, snaps); err != nil {
			return nil, err
		}
	}
	return p.combine(ws, ap, spectra[0], len(spectra), precomputed(spectra), rFull)
}

// combine is CombineAP on an n-frame group whose primary spectrum is
// given and whose others suppression takes from frame as it needs them,
// with frame 0's full correlation matrix (nil when the vote does not
// run).
func (p *Pipeline) combine(ws *music.Workspace, ap *AP, primary *music.Spectrum, n int, frame frameSource, rFull *mat.Matrix) (*music.Spectrum, error) {
	out, err := suppressMultipath(ws, primary, p.framesRead(n), frame, DefaultPeakMatchTolDeg)
	if err != nil {
		return nil, err
	}
	if !p.cfg.UseWeighting && rFull == nil {
		return out.Normalize(), nil
	}
	// One cache lookup serves both table-driven steps below.
	tab := p.cfg.Steering.Table(ap.Array, p.cfg.Wavelength, out.Bins())
	if p.cfg.UseWeighting {
		tab.ApplyGeometryWeighting(out)
	}
	if rFull != nil {
		tab.RemoveSymmetryWS(ws, out, rFull)
	}
	return out.Normalize(), nil
}

// ProcessAP runs the per-AP half of the pipeline (frame spectra, then
// the combine stage) with one workspace drawn from the pool.
func (p *Pipeline) ProcessAP(ap *AP, frames []FrameCapture) (*music.Spectrum, error) {
	if len(frames) == 0 {
		return nil, errors.New("core: no frames captured")
	}
	ws := workspaces.Get()
	defer workspaces.Put(ws)
	return p.processAP(ws, ap, frames)
}

// processAP computes a frame's spectrum only when the combine stage
// reads it: frame 0, then the others as multipath suppression asks for
// them — frame 2 only while frame 1 leaves a primary peak unmatched. It
// takes each frame's snapshots once: when the vote runs, frame 0's over
// every element, its estimator reading the row and the vote correlating
// them all. Every frame the stage may read is checked first, so a
// malformed one is refused whether or not its spectrum is needed. It
// owns the frame spectra from scan to combine, so they live in the
// workspace (list and storage both) and go back to it afterwards; only
// the combined spectrum, lent by ws, leaves.
func (p *Pipeline) processAP(ws *music.Workspace, ap *AP, frames []FrameCapture) (*music.Spectrum, error) {
	read := frames[:p.framesRead(len(frames))]
	vote := p.votes(ap, frames)
	for i, f := range read {
		if _, err := p.streams(ap, f, i == 0 && vote); err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
	}
	opt := p.cfg.MUSICOptions(ap.Calibration)
	spectra := ws.FrameList(len(read))
	defer func() { ws.Recycle(spectra...) }()
	var rFull *mat.Matrix
	frame := func(i int) (*music.Spectrum, error) {
		full := i == 0 && vote
		snaps, err := p.snapshots(ws, ap, read[i], full)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		s, err := p.cfg.Estimator.Spectrum(ws, ap.Array, snaps, opt)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
		spectra = append(spectra, s)
		if full {
			if rFull, err = music.VoteCorrelationWS(ws, snaps); err != nil {
				return nil, fmt.Errorf("frame %d: %w", i, err)
			}
		}
		return s, nil
	}
	primary, err := frame(0)
	if err != nil {
		return nil, err
	}
	return p.combine(ws, ap, primary, len(read), frame, rFull)
}

// Synthesize is the final stage: the Eq. 8 grid search plus hill
// climbing (§2.5) on the staged subsystem — cached bearing LUTs,
// log-domain sharded accumulation, coarse-to-fine refinement.
func (p *Pipeline) Synthesize(specs []APSpectrum, min, max geom.Point) (geom.Point, error) {
	sg, err := NewSynthGrid(min, max, p.synthOptions())
	if err != nil {
		return geom.Point{}, err
	}
	return sg.Localize(specs)
}

// synthOptions translates the pipeline config into staged-synthesis
// options.
func (p *Pipeline) synthOptions() SynthOptions {
	return SynthOptions{
		Cell:    p.cfg.GridCell,
		Workers: p.cfg.SynthWorkers,
		Cache:   p.cfg.SynthCache,
	}
}

// SynthesizeRegionInterior is Synthesize restricted to a search region,
// plus a report of whether the region's grid argmax was strictly
// interior to the region on every open side (see SynthGrid.LocalizeInterior) — the
// verification bit the engine's predictive track-guided path keys
// on. A zero region (full area) always reports interior: there is no
// wider area to fall back to.
func (p *Pipeline) SynthesizeRegionInterior(specs []APSpectrum, min, max geom.Point, region Region) (geom.Point, bool, error) {
	if region.IsZero() {
		pos, err := p.Synthesize(specs, min, max)
		return pos, err == nil, err
	}
	sg, err := NewSynthGridRegion(min, max, region, p.synthOptions())
	if err != nil {
		return geom.Point{}, false, err
	}
	return sg.LocalizeInterior(specs)
}

// Locate runs the complete pipeline for one client: per-AP processing
// of every contributing AP (fanned across Config.APWorkers when >1),
// then synthesis. captures[i] holds the frames AP i overheard; APs
// with no captures are skipped. At least one AP must contribute.
func (p *Pipeline) Locate(aps []*AP, captures [][]FrameCapture, min, max geom.Point) (geom.Point, []APSpectrum, error) {
	specs, err := p.ProcessAPs(aps, captures)
	if err != nil {
		return geom.Point{}, nil, err
	}
	pos, err := p.Synthesize(specs, min, max)
	return pos, specs, err
}

// ProcessAPs runs the per-AP half of the pipeline — frame spectra,
// suppression, weighting, symmetry removal — for every contributing
// AP (fanned across Config.APWorkers when >1) and returns the
// position-tagged spectra ready for synthesis. captures[i] holds the
// frames AP i overheard; APs with no captures are skipped. At least
// one AP must contribute. Splitting this stage from synthesis is what
// lets the engine's predictive path try a track-guided region first
// and fall back to the full grid without re-processing a single
// spectrum.
func (p *Pipeline) ProcessAPs(aps []*AP, captures [][]FrameCapture) ([]APSpectrum, error) {
	ws := workspaces.Get()
	defer workspaces.Put(ws)
	return p.ProcessAPsWS(ws, aps, captures)
}

// ProcessAPsWS is ProcessAPs on the caller's workspace (nil means a
// fresh one). Run serially, every combined spectrum it returns is lent
// by ws: a caller that owns ws for many jobs hands them back with
// ws.Recycle once it is done with the job, and the next job's spectra
// reuse their storage. Fanned out, the other workers draw pooled
// workspaces and their spectra are the caller's to keep. On error the
// spectra already made go back to ws.
func (p *Pipeline) ProcessAPsWS(ws *music.Workspace, aps []*AP, captures [][]FrameCapture) ([]APSpectrum, error) {
	if len(aps) != len(captures) {
		return nil, errors.New("core: captures must align with APs")
	}
	n := 0
	for i := range aps {
		if len(captures[i]) > 0 {
			n++
		}
	}
	if n == 0 {
		return nil, errors.New("core: no AP overheard the client")
	}
	if ws == nil {
		ws = &music.Workspace{}
	}
	if workers := min(p.cfg.APWorkers, n); workers > 1 {
		return p.processAPsFanned(ws, workers, aps, captures)
	}
	specs := make([]APSpectrum, 0, n)
	for i, ap := range aps {
		if len(captures[i]) == 0 {
			continue
		}
		s, err := p.processAP(ws, ap, captures[i])
		if err != nil {
			for _, sp := range specs {
				ws.Recycle(sp.Spectrum)
			}
			return nil, fmt.Errorf("core: AP %d: %w", i, err)
		}
		specs = append(specs, APSpectrum{Pos: ap.Array.Pos, Spectrum: s})
	}
	return specs, nil
}

// processAPsFanned is ProcessAPsWS over a bounded worker pool: per-AP
// processing is independent, and results land in AP-indexed slots, so
// ordering — and therefore the synthesis output — is identical to the
// serial path. The first worker runs on ws, each other on a pooled
// workspace held for its whole run.
func (p *Pipeline) processAPsFanned(ws *music.Workspace, workers int, aps []*AP, captures [][]FrameCapture) ([]APSpectrum, error) {
	spectra := make([]*music.Spectrum, len(aps))
	errs := make([]error, len(aps))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		own := ws
		if w > 0 {
			own = workspaces.Get()
			defer workspaces.Put(own)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				spectra[i], errs[i] = p.processAP(own, aps[i], captures[i])
			}
		}()
	}
	for i := range aps {
		if len(captures[i]) > 0 {
			idx <- i
		}
	}
	close(idx)
	wg.Wait()

	var specs []APSpectrum
	for i := range aps {
		if len(captures[i]) == 0 {
			continue
		}
		if errs[i] != nil {
			ws.Recycle(spectra...)
			return nil, fmt.Errorf("core: AP %d: %w", i, errs[i])
		}
		specs = append(specs, APSpectrum{Pos: aps[i].Array.Pos, Spectrum: spectra[i]})
	}
	return specs, nil
}
