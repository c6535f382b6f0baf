package core

// The streaming localization pipeline. The seed's LocateClient was one
// monolithic function: every stage inlined, every intermediate
// allocated per call. This file restructures it into explicit stages —
//
//	snapshots → correlation → subspace → spectrum   (per frame, via the
//	                                                 injected Estimator)
//	suppression → weighting → symmetry removal      (per AP, across frames)
//	synthesis                                       (across APs, Eq. 8)
//
// — with every stage threading a music.Workspace drawn from a
// sync.Pool, so the steady-state hot path allocates only what escapes
// (the spectra and the fix). The estimator is pluggable
// (Config.Estimator); the math is bit-identical to the seed for the
// default MUSIC estimator, pinned by equivalence tests.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/music"
)

// Pipeline binds a Config to its resolved estimator and workspace
// pool. It is cheap to construct and safe for concurrent use: every
// public method acquires its own workspace from the pool.
type Pipeline struct {
	cfg  Config
	est  music.Estimator
	pool *music.WorkspacePool
}

// NewPipeline resolves the config's estimator (nil means MUSIC) and
// workspace pool (nil means allocate per call, the seed behaviour).
func NewPipeline(cfg Config) *Pipeline {
	est := cfg.Estimator
	if est == nil {
		est = music.MUSICEstimator
	}
	return &Pipeline{cfg: cfg, est: est, pool: cfg.Workspaces}
}

// Estimator returns the pipeline's resolved estimator.
func (p *Pipeline) Estimator() music.Estimator { return p.est }

// musicOptions translates the pipeline config into per-frame spectrum
// options for the given AP.
func (p *Pipeline) musicOptions(ap *AP) music.Options {
	opt := music.Options{
		Wavelength:          p.cfg.Wavelength,
		SmoothingGroups:     p.cfg.SmoothingGroups,
		SignalThresholdFrac: p.cfg.SignalThresholdFrac,
		MaxSamples:          p.cfg.MaxSamples,
		SampleOffset:        p.cfg.SampleOffset,
		ForwardBackward:     p.cfg.ForwardBackward,
		Steering:            p.cfg.Steering,
	}
	if ap.Calibration != nil {
		opt.CalibrationOffsets = ap.Calibration
	}
	return opt
}

// FrameSpectrum is the per-frame stage chain (snapshots → correlation
// → subspace → spectrum), delegated to the estimator with the given
// workspace (nil allocates).
func (p *Pipeline) FrameSpectrum(ws *music.Workspace, ap *AP, frame FrameCapture) (*music.Spectrum, error) {
	streams, err := frameRowStreams(ap, frame)
	if err != nil {
		return nil, fmt.Errorf("core: frame %w", err)
	}
	return p.est.Spectrum(ws, ap.Array, streams, p.musicOptions(ap))
}

// frameRowStreams validates a frame against the AP's row size and
// returns the main-row streams. The error is unprefixed; callers add
// their own context.
func frameRowStreams(ap *AP, frame FrameCapture) ([][]complex128, error) {
	nRow := ap.Array.N
	if len(frame.Streams) < nRow {
		return nil, fmt.Errorf("has %d streams, need %d row antennas", len(frame.Streams), nRow)
	}
	return frame.Streams[:nRow], nil
}

// frameSpectrumIndexed is FrameSpectrum with the seed's per-frame
// error messages (no double package prefix when wrapped with the frame
// index).
func (p *Pipeline) frameSpectrumIndexed(ws *music.Workspace, ap *AP, frame FrameCapture, i int) (*music.Spectrum, error) {
	streams, err := frameRowStreams(ap, frame)
	if err != nil {
		return nil, fmt.Errorf("core: frame %d %w", i, err)
	}
	s, err := p.est.Spectrum(ws, ap.Array, streams, p.musicOptions(ap))
	if err != nil {
		return nil, fmt.Errorf("core: frame %d: %w", i, err)
	}
	return s, nil
}

// CombineAP is the cross-frame stage for one AP: multipath suppression
// over the frame spectra (§2.4), geometry weighting (§2.3.3), and
// ninth-antenna symmetry removal (§2.3.4). frames supplies the raw
// streams symmetry removal needs; spectra are the FrameSpectrum
// outputs in frame order. The returned spectrum is freshly allocated
// and normalized.
func (p *Pipeline) CombineAP(ws *music.Workspace, ap *AP, frames []FrameCapture, spectra []*music.Spectrum) (*music.Spectrum, error) {
	if len(spectra) == 0 {
		return nil, errors.New("core: no spectra to combine")
	}
	var out *music.Spectrum
	if p.cfg.UseSuppression && len(spectra) >= 2 {
		// Group at most three spectra, per step 1 of the algorithm.
		group := spectra
		if len(group) > 3 {
			group = group[:3]
		}
		out = suppressMultipath(ws, group, p.cfg.PeakMatchTolDeg)
	} else {
		out = spectra[0].Clone()
	}

	vote := p.cfg.UseSymmetryRemoval && ap.Array.NinthAntenna &&
		len(frames) > 0 && len(frames[0].Streams) >= ap.Array.NumElements()
	// One cache lookup serves both table-driven steps below.
	var tab *music.SteeringTable
	if p.cfg.Steering != nil && (p.cfg.UseWeighting || vote) {
		tab = p.cfg.Steering.Table(ap.Array, p.cfg.Wavelength, out.Bins())
	}

	if p.cfg.UseWeighting {
		if tab != nil {
			tab.ApplyGeometryWeighting(out)
		} else {
			out.ApplyGeometryWeighting(ap.Array.Orient)
		}
	}

	if vote {
		full := frames[0].Streams[:ap.Array.NumElements()]
		rFull, err := music.CalibratedCorrelationWS(ws, full, p.cfg.SampleOffset, p.cfg.MaxSamples, ap.Calibration)
		if err != nil {
			return nil, err
		}
		if tab != nil {
			tab.RemoveSymmetryWS(ws, out, rFull)
		} else {
			music.SymmetryRemoval(out, ap.Array, rFull, p.cfg.Wavelength)
		}
	}

	out.Normalize()
	return out, nil
}

// ProcessAP runs the per-AP half of the pipeline (frame spectra, then
// the combine stage) with one workspace drawn from the pool.
func (p *Pipeline) ProcessAP(ap *AP, frames []FrameCapture) (*music.Spectrum, error) {
	if len(frames) == 0 {
		return nil, errors.New("core: no frames captured")
	}
	ws := p.pool.Get()
	defer p.pool.Put(ws)
	return p.processAP(ws, ap, frames)
}

// processAP owns its frame spectra from scan to combine, so they live
// in the workspace (list and storage both) and go back to it afterwards;
// only the combined spectrum escapes.
func (p *Pipeline) processAP(ws *music.Workspace, ap *AP, frames []FrameCapture) (*music.Spectrum, error) {
	spectra := ws.FrameList(len(frames))
	defer func() { ws.Recycle(spectra...) }()
	for i, f := range frames {
		s, err := p.frameSpectrumIndexed(ws, ap, f, i)
		if err != nil {
			return nil, err
		}
		spectra = append(spectra, s)
	}
	return p.CombineAP(ws, ap, frames, spectra)
}

// Synthesize is the final stage: the Eq. 8 grid search plus hill
// climbing (§2.5). With a SynthCache configured it runs the staged
// subsystem — cached bearing LUTs, log-domain sharded accumulation,
// coarse-to-fine refinement; a nil SynthCache keeps the seed's serial
// product-domain path.
func (p *Pipeline) Synthesize(specs []APSpectrum, min, max geom.Point) (geom.Point, error) {
	return p.SynthesizeRegion(specs, min, max, Region{})
}

// SynthesizeRegion is Synthesize restricted to an ad-hoc search
// region (zero region = full area). On the staged path a region at
// the configured pitch snaps to the full grid's lattice, so its
// bearing LUTs slice out of cached full-grid entries and its argmax
// equals the full-grid argmax restricted to the box; the seed path
// grid-searches the clamped box directly. The region is validated
// here, so malformed boxes fail a fix rather than corrupting it.
func (p *Pipeline) SynthesizeRegion(specs []APSpectrum, min, max geom.Point, region Region) (geom.Point, error) {
	if err := region.Validate(); err != nil {
		return geom.Point{}, err
	}
	cell := p.cfg.GridCell
	if cell <= 0 {
		cell = 0.10
	}
	if p.cfg.SynthCache == nil {
		lo, hi, cell, _, err := seedRegionClamp(min, max, region, cell)
		if err != nil {
			return geom.Point{}, err
		}
		pos, _, err := Localize(specs, lo, hi, cell)
		return pos, err
	}
	sg, err := NewSynthGridRegion(min, max, region, p.synthOptions(cell))
	if err != nil {
		return geom.Point{}, err
	}
	return sg.Localize(specs)
}

// synthOptions translates the pipeline config into staged-synthesis
// options at the given fine pitch.
func (p *Pipeline) synthOptions(cell float64) SynthOptions {
	return SynthOptions{
		Cell:         cell,
		Workers:      p.cfg.SynthWorkers,
		Cache:        p.cfg.SynthCache,
		CoarseFactor: p.cfg.CoarseFactor,
		RefineTopK:   p.cfg.RefineTopK,
		Yield:        p.cfg.SynthYield,
	}
}

// SynthesizeRegionInterior is SynthesizeRegion plus a report of
// whether the region's grid argmax was strictly interior to the
// region on every open side (see SynthGrid.LocalizeInterior) — the
// verification bit the engine's predictive track-guided path keys
// on. A zero region (full area) always reports interior: there is no
// wider area to fall back to.
func (p *Pipeline) SynthesizeRegionInterior(specs []APSpectrum, min, max geom.Point, region Region) (geom.Point, bool, error) {
	if region.IsZero() {
		pos, err := p.Synthesize(specs, min, max)
		return pos, err == nil, err
	}
	if err := region.Validate(); err != nil {
		return geom.Point{}, false, err
	}
	cell := p.cfg.GridCell
	if cell <= 0 {
		cell = 0.10
	}
	if p.cfg.SynthCache == nil {
		return p.seedRegionInterior(specs, min, max, region, cell)
	}
	sg, err := NewSynthGridRegion(min, max, region, p.synthOptions(cell))
	if err != nil {
		return geom.Point{}, false, err
	}
	return sg.LocalizeInterior(specs)
}

// seedRegionClamp resolves the seed path's clamped box, effective
// pitch, and scoped-pitch flag for a non-zero region, enforcing the
// same work cap as the staged path: a scoped pitch may not demand
// more cells than a full-area fix (regions arrive untrusted). Shared
// by SynthesizeRegion and seedRegionInterior so both entry points
// validate identically.
func seedRegionClamp(min, max geom.Point, region Region, cell float64) (lo, hi geom.Point, outCell float64, scoped bool, err error) {
	lo, hi = min, max
	if region.IsZero() {
		return lo, hi, cell, false, nil
	}
	if lo, hi, err = region.clampTo(min, max); err != nil {
		return lo, hi, cell, false, err
	}
	if region.Cell != 0 && region.Cell != cell {
		full, err := GridSpecFor(min, max, cell)
		if err != nil {
			return lo, hi, cell, true, err
		}
		sc, err := GridSpecFor(lo, hi, region.Cell)
		if err != nil {
			return lo, hi, cell, true, err
		}
		if sc.Cells() > full.Cells() {
			return lo, hi, cell, true, fmt.Errorf("%w: %d cells at pitch %g exceeds the %d-cell full grid",
				ErrBadRegion, sc.Cells(), region.Cell, full.Cells())
		}
		cell = region.Cell
		scoped = true
	}
	return lo, hi, cell, scoped, nil
}

// seedRegionInterior is the seed-path (no SynthCache) region search
// with the interior report derived from the coarse heatmap argmax,
// mirroring the staged path's semantics exactly: for a lattice-
// aligned region a side flush with the configured search area counts
// as closed (nothing lies beyond it), while a scoped-pitch region —
// which the staged path builds without a parent grid — treats every
// side as open (conservative).
func (p *Pipeline) seedRegionInterior(specs []APSpectrum, min, max geom.Point, region Region, cell float64) (geom.Point, bool, error) {
	lo, hi, cell, scoped, err := seedRegionClamp(min, max, region, cell)
	if err != nil {
		return geom.Point{}, false, err
	}
	pos, h, err := Localize(specs, lo, hi, cell)
	if err != nil {
		return geom.Point{}, false, err
	}
	best := 0
	for c := 1; c < len(h.Flat); c++ {
		if h.Flat[c] > h.Flat[best] {
			best = c
		}
	}
	ix, iy := best%h.Nx, best/h.Nx
	const eps = 1e-9
	interior := (ix > 0 || (!scoped && lo.X <= min.X+eps)) &&
		(ix < h.Nx-1 || (!scoped && hi.X >= max.X-eps)) &&
		(iy > 0 || (!scoped && lo.Y <= min.Y+eps)) &&
		(iy < h.Ny-1 || (!scoped && hi.Y >= max.Y-eps))
	return pos, interior, nil
}

// Locate runs the complete pipeline for one client: per-AP processing
// of every contributing AP (fanned across Config.APWorkers when >1),
// then synthesis. captures[i] holds the frames AP i overheard; APs
// with no captures are skipped. At least one AP must contribute.
func (p *Pipeline) Locate(aps []*AP, captures [][]FrameCapture, min, max geom.Point) (geom.Point, []APSpectrum, error) {
	return p.LocateRegion(aps, captures, min, max, Region{})
}

// LocateRegion is Locate with the synthesis stage restricted to an
// ad-hoc search region (zero region = full area). Spectrum processing
// is identical; only the Eq. 8 search area changes.
func (p *Pipeline) LocateRegion(aps []*AP, captures [][]FrameCapture, min, max geom.Point, region Region) (geom.Point, []APSpectrum, error) {
	specs, err := p.ProcessAPs(aps, captures)
	if err != nil {
		return geom.Point{}, nil, err
	}
	pos, err := p.SynthesizeRegion(specs, min, max, region)
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
	if len(aps) != len(captures) {
		return nil, errors.New("core: captures must align with APs")
	}
	contrib := make([]int, 0, len(aps))
	for i := range aps {
		if len(captures[i]) > 0 {
			contrib = append(contrib, i)
		}
	}
	if len(contrib) == 0 {
		return nil, errors.New("core: no AP overheard the client")
	}

	// Per-AP processing is independent; fan it out over a bounded
	// worker pool when the config allows. Results land in AP-indexed
	// slots, so ordering — and therefore the synthesis output — is
	// identical to the serial path. Each worker holds its own
	// workspace for its whole run.
	spectra := make([]*music.Spectrum, len(aps))
	errs := make([]error, len(aps))
	workers := p.cfg.APWorkers
	if workers > len(contrib) {
		workers = len(contrib)
	}
	if workers > 1 {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := p.pool.Get()
				defer p.pool.Put(ws)
				for i := range idx {
					spectra[i], errs[i] = p.processAP(ws, aps[i], captures[i])
				}
			}()
		}
		for _, i := range contrib {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		ws := p.pool.Get()
		for _, i := range contrib {
			if spectra[i], errs[i] = p.processAP(ws, aps[i], captures[i]); errs[i] != nil {
				break
			}
		}
		p.pool.Put(ws)
	}

	specs := make([]APSpectrum, 0, len(contrib))
	for _, i := range contrib {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: AP %d: %w", i, errs[i])
		}
		specs = append(specs, APSpectrum{Pos: aps[i].Array.Pos, Spectrum: spectra[i]})
	}
	return specs, nil
}
