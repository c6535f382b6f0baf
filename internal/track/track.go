// Package track adds the temporal layer the paper's introduction
// motivates ("track wireless clients at a very fine granularity in real
// time, as they roam about a building"): a constant-velocity Kalman
// filter over the per-frame position fixes produced by the ArrayTrack
// backend, plus gating that rejects the occasional catastrophic fix
// (mirror-ambiguity or end-fire failures) which would otherwise yank
// the track across the building.
package track

import (
	"errors"
	"math"

	"repro/internal/geom"
)

// Filter is a 2-D constant-velocity Kalman filter with state
// [x, y, vx, vy]. The zero value is not ready; use NewFilter.
type Filter struct {
	// x is the state estimate.
	x [4]float64
	// p is the state covariance (row-major 4×4).
	p [16]float64
	// processNoise is the white-acceleration spectral density q
	// (m²/s³); larger tolerates more manoeuvring.
	processNoise float64
	// measNoise is the per-axis measurement standard deviation σ (m).
	measNoise float64
	// gate is the Mahalanobis-distance gate (in σ units) beyond which
	// a fix is rejected as an outlier.
	gate        float64
	initialized bool
	rejects     int
	accepts     int
}

// NewFilter returns a tracker. processNoise is the acceleration
// spectral density in m²/s³ (≈1 suits walking), measSigma the expected
// per-axis fix error in metres (≈0.3–0.5 for ArrayTrack with several
// APs), and gate the outlier gate in standard deviations (0 disables
// gating; 3–5 is typical).
func NewFilter(processNoise, measSigma, gate float64) *Filter {
	return &Filter{
		processNoise: math.Max(processNoise, 1e-6),
		measNoise:    math.Max(measSigma, 1e-3),
		gate:         gate,
	}
}

// State returns the current position and velocity estimates.
func (f *Filter) State() (pos geom.Point, vel geom.Vec) {
	return geom.Pt(f.x[0], f.x[1]), geom.Vec{X: f.x[2], Y: f.x[3]}
}

// Rejected returns how many fixes the gate has discarded.
func (f *Filter) Rejected() int { return f.rejects }

// Accepted returns how many fixes have been folded into the state
// (the initializing fix included).
func (f *Filter) Accepted() int { return f.accepts }

// Gate returns the configured Mahalanobis gate in σ units (0 when
// gating is disabled).
func (f *Filter) Gate() float64 { return f.gate }

// Predict advances the state by dt seconds without a measurement.
func (f *Filter) Predict(dt float64) error {
	if !f.initialized {
		return errors.New("track: Predict before first Update")
	}
	if dt < 0 {
		return errors.New("track: negative dt")
	}
	f.predict(dt)
	return nil
}

func (f *Filter) predict(dt float64) {
	// x ← F x with F = [I, dt·I; 0, I].
	f.x[0] += dt * f.x[2]
	f.x[1] += dt * f.x[3]
	// P ← F P Fᵀ + Q, with the white-acceleration Q.
	var fp [16]float64
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := f.p[r*4+c]
			if r < 2 {
				v += dt * f.p[(r+2)*4+c]
			}
			fp[r*4+c] = v
		}
	}
	var pNew [16]float64
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := fp[r*4+c]
			if c < 2 {
				v += dt * fp[r*4+c+2]
			}
			pNew[r*4+c] = v
		}
	}
	q := f.processNoise
	dt2 := dt * dt
	dt3 := dt2 * dt / 2
	dt4 := dt2 * dt2 / 4
	for axis := 0; axis < 2; axis++ {
		pNew[axis*4+axis] += q * dt4
		pNew[axis*4+axis+2] += q * dt3
		pNew[(axis+2)*4+axis] += q * dt3
		pNew[(axis+2)*4+axis+2] += q * dt2
	}
	f.p = pNew
}

// Update folds a position fix taken dt seconds after the previous one
// into the track. The first call initializes the filter at the fix. It
// reports whether the fix was accepted (false means the gate rejected
// it and only the prediction advanced).
func (f *Filter) Update(fix geom.Point, dt float64) (accepted bool, err error) {
	return f.update(fix, dt, f.gate)
}

// UpdateScaled is Update with the Mahalanobis gate widened by scale
// for this one fix (scale ≤ 1 applies the configured gate unchanged).
// Degraded fixes — localized from fewer APs than the full quorum —
// carry more error than the gate's σ budget assumes; widening the gate
// for exactly those fixes lets an outage-degraded fix sustain a track
// the normal gate would starve, without loosening it for healthy
// traffic.
func (f *Filter) UpdateScaled(fix geom.Point, dt, scale float64) (accepted bool, err error) {
	gate := f.gate
	if scale > 1 && gate > 0 {
		gate *= scale
	}
	return f.update(fix, dt, gate)
}

func (f *Filter) update(fix geom.Point, dt, gate float64) (accepted bool, err error) {
	if !f.initialized {
		f.x = [4]float64{fix.X, fix.Y, 0, 0}
		// Generous initial uncertainty: position at measurement noise,
		// velocity unknown at walking scale.
		for i := range f.p {
			f.p[i] = 0
		}
		f.p[0] = f.measNoise * f.measNoise
		f.p[5] = f.measNoise * f.measNoise
		f.p[10] = 4
		f.p[15] = 4
		f.initialized = true
		f.accepts = 1
		return true, nil
	}
	if dt < 0 {
		return false, errors.New("track: negative dt")
	}
	f.predict(dt)

	// Innovation and its covariance S = H P Hᵀ + R (H picks x, y).
	iy0 := fix.X - f.x[0]
	iy1 := fix.Y - f.x[1]
	r2 := f.measNoise * f.measNoise
	s00 := f.p[0] + r2
	s01 := f.p[1]
	s10 := f.p[4]
	s11 := f.p[5] + r2
	det := s00*s11 - s01*s10
	if det <= 0 {
		return false, errors.New("track: degenerate innovation covariance")
	}
	// Mahalanobis gate.
	inv00, inv01, inv10, inv11 := s11/det, -s01/det, -s10/det, s00/det
	d2 := iy0*(inv00*iy0+inv01*iy1) + iy1*(inv10*iy0+inv11*iy1)
	if gate > 0 && d2 > gate*gate {
		f.rejects++
		return false, nil
	}

	// Kalman gain K = P Hᵀ S⁻¹ (4×2).
	var k [8]float64
	for r := 0; r < 4; r++ {
		pc0 := f.p[r*4+0]
		pc1 := f.p[r*4+1]
		k[r*2+0] = pc0*inv00 + pc1*inv10
		k[r*2+1] = pc0*inv01 + pc1*inv11
	}
	for r := 0; r < 4; r++ {
		f.x[r] += k[r*2+0]*iy0 + k[r*2+1]*iy1
	}
	// P ← (I − K H) P.
	var pNew [16]float64
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := f.p[r*4+c] - k[r*2+0]*f.p[0*4+c] - k[r*2+1]*f.p[1*4+c]
			pNew[r*4+c] = v
		}
	}
	f.p = pNew
	f.accepts++
	return true, nil
}

// PositionVariance returns the per-axis position variances, a measure
// of track confidence.
func (f *Filter) PositionVariance() (vx, vy float64) {
	return f.p[0], f.p[5]
}

// FilterState is the complete serializable state of a Filter: the
// state vector, the full covariance, the noise/gate parameters, and
// the accept/reject counters. It is the unit the engine's tracker
// snapshot/restore (and the shard-migration path built on it) ships
// across process boundaries; NewFilterFromState rebuilds a filter
// whose every subsequent Predict/Update/PredictState is bit-identical
// to the original's. All fields are plain numbers, so the struct
// round-trips exactly through encoding/json (Go emits the shortest
// decimal that parses back to the same float64).
type FilterState struct {
	// X is the state estimate [x, y, vx, vy].
	X [4]float64 `json:"x"`
	// P is the row-major 4×4 state covariance.
	P [16]float64 `json:"p"`
	// ProcessNoise, MeasNoise, Gate mirror the NewFilter parameters
	// (post-clamping, so restoring never re-clamps a live value).
	ProcessNoise float64 `json:"process_noise"`
	MeasNoise    float64 `json:"meas_noise"`
	Gate         float64 `json:"gate"`
	// Initialized reports whether the first fix has been folded in.
	Initialized bool `json:"initialized"`
	// Accepts and Rejects are the gate counters.
	Accepts int `json:"accepts"`
	Rejects int `json:"rejects"`
}

// Snapshot captures the filter's complete state.
func (f *Filter) Snapshot() FilterState {
	return FilterState{
		X:            f.x,
		P:            f.p,
		ProcessNoise: f.processNoise,
		MeasNoise:    f.measNoise,
		Gate:         f.gate,
		Initialized:  f.initialized,
		Accepts:      f.accepts,
		Rejects:      f.rejects,
	}
}

// Valid reports whether the state is restorable: finite numbers
// everywhere and positive noise parameters. It rejects snapshots that
// were corrupted in transit rather than trying to repair them.
func (s FilterState) Valid() bool {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, v := range s.X {
		if !finite(v) {
			return false
		}
	}
	for _, v := range s.P {
		if !finite(v) {
			return false
		}
	}
	return finite(s.ProcessNoise) && s.ProcessNoise > 0 &&
		finite(s.MeasNoise) && s.MeasNoise > 0 &&
		finite(s.Gate) && s.Gate >= 0
}

// NewFilterFromState rebuilds a filter from a snapshot. The state is
// copied verbatim — no clamping, no re-derivation — so predictions and
// updates continue bit-identically from where the snapshotted filter
// left off. It returns an error for states Valid rejects.
func NewFilterFromState(s FilterState) (*Filter, error) {
	if !s.Valid() {
		return nil, errors.New("track: invalid filter state")
	}
	return &Filter{
		x:            s.X,
		p:            s.P,
		processNoise: s.ProcessNoise,
		measNoise:    s.MeasNoise,
		gate:         s.Gate,
		initialized:  s.Initialized,
		accepts:      s.Accepts,
		rejects:      s.Rejects,
	}, nil
}

// Prediction is the filter's state extrapolated forward without a
// measurement: where the next fix is expected and the innovation
// covariance S = H(FPFᵀ+Q)Hᵀ + R it will be gated against. It is the
// covariance→region export the predictive localization path consumes:
// Box bounds where a gate-accepted fix can land, so a search
// restricted to it provably never excludes a fix the tracker would
// have accepted.
type Prediction struct {
	// Pos is the predicted position, Vel the velocity estimate carried
	// with it.
	Pos geom.Point
	Vel geom.Vec
	// Sxx, Sxy, Syy are the innovation covariance entries (m²).
	Sxx, Sxy, Syy float64
	// Gate is the filter's Mahalanobis gate in σ units (0 = disabled).
	Gate float64
}

// PredictState returns the prediction dt seconds ahead of the last
// update without mutating the filter. It reports false before the
// first accepted fix. Negative dt is treated as zero (a simultaneous
// or slightly reordered capture, as in Update).
func (f *Filter) PredictState(dt float64) (Prediction, bool) {
	if !f.initialized {
		return Prediction{}, false
	}
	if dt < 0 || math.IsNaN(dt) {
		dt = 0
	}
	g := *f // value copy: predict scratch, the filter is untouched
	g.predict(dt)
	r2 := f.measNoise * f.measNoise
	return Prediction{
		Pos:  geom.Pt(g.x[0], g.x[1]),
		Vel:  geom.Vec{X: g.x[2], Y: g.x[3]},
		Sxx:  g.p[0] + r2,
		Sxy:  g.p[1],
		Syy:  g.p[5] + r2,
		Gate: f.gate,
	}, true
}

// MahalanobisSq returns the squared Mahalanobis distance of a fix
// under the prediction's innovation covariance — the quantity Update
// gates against. A degenerate covariance returns +Inf (nothing is
// accepted).
func (p Prediction) MahalanobisSq(fix geom.Point) float64 {
	det := p.Sxx*p.Syy - p.Sxy*p.Sxy
	if det <= 0 {
		return math.Inf(1)
	}
	y0, y1 := fix.X-p.Pos.X, fix.Y-p.Pos.Y
	return (y0*(p.Syy*y0-p.Sxy*y1) + y1*(p.Sxx*y1-p.Sxy*y0)) / det
}

// Accepts reports whether a fix at the given position would pass the
// prediction's Mahalanobis gate (always true when gating is disabled).
func (p Prediction) Accepts(fix geom.Point) bool {
	if p.Gate <= 0 {
		return true
	}
	return p.MahalanobisSq(fix) <= p.Gate*p.Gate
}

// Box returns the axis-aligned box covering the sigma-σ innovation
// ellipse around the predicted position: half-extents sigma·√Sxx and
// sigma·√Syy (the ellipse's exact axis-aligned bound, whatever the
// cross-correlation). Every fix with Mahalanobis distance ≤ sigma
// lies inside it, so with sigma ≥ Gate the box contains every fix the
// filter could accept.
func (p Prediction) Box(sigma float64) (min, max geom.Point) {
	hx := sigma * math.Sqrt(math.Max(p.Sxx, 0))
	hy := sigma * math.Sqrt(math.Max(p.Syy, 0))
	return geom.Pt(p.Pos.X-hx, p.Pos.Y-hy), geom.Pt(p.Pos.X+hx, p.Pos.Y+hy)
}
