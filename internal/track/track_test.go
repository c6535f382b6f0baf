package track

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestFilterInitializesAtFirstFix(t *testing.T) {
	f := NewFilter(1, 0.3, 0)
	ok, err := f.Update(geom.Pt(3, 4), 0)
	if err != nil || !ok {
		t.Fatalf("first update: %v %v", ok, err)
	}
	pos, vel := f.State()
	if pos != geom.Pt(3, 4) || vel != (geom.Vec{}) {
		t.Errorf("state after init = %v %v", pos, vel)
	}
}

func TestFilterSmoothsNoisyStraightWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewFilter(0.5, 0.4, 0)
	const dt = 0.5
	var rawErr, smoothErr float64
	n := 0
	for i := 0; i < 60; i++ {
		truth := geom.Pt(1.2*float64(i)*dt, 5)
		fix := truth.Add(geom.Vec{X: rng.NormFloat64() * 0.4, Y: rng.NormFloat64() * 0.4})
		if _, err := f.Update(fix, dt); err != nil {
			t.Fatal(err)
		}
		if i >= 10 { // after convergence
			pos, _ := f.State()
			rawErr += fix.Dist(truth)
			smoothErr += pos.Dist(truth)
			n++
		}
	}
	if smoothErr >= rawErr {
		t.Errorf("filter no better than raw fixes: %.2f vs %.2f", smoothErr/float64(n), rawErr/float64(n))
	}
	// Velocity should approach (1.2, 0).
	_, vel := f.State()
	if math.Abs(vel.X-1.2) > 0.4 || math.Abs(vel.Y) > 0.4 {
		t.Errorf("velocity = %v, want ≈(1.2, 0)", vel)
	}
}

func TestFilterGateRejectsOutlier(t *testing.T) {
	f := NewFilter(0.5, 0.3, 4)
	for i := 0; i < 20; i++ {
		if _, err := f.Update(geom.Pt(float64(i)*0.3, 2), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := f.State()
	// A catastrophic mirror fix 15 m away.
	ok, err := f.Update(geom.Pt(before.X, 17), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("outlier fix accepted")
	}
	if f.Rejected() != 1 {
		t.Errorf("Rejected = %d", f.Rejected())
	}
	after, _ := f.State()
	if after.Dist(before) > 1 {
		t.Errorf("outlier moved the track %v → %v", before, after)
	}
}

func TestFilterPredictWithoutMeasurement(t *testing.T) {
	f := NewFilter(0.5, 0.3, 0)
	if err := f.Predict(0.5); err == nil {
		t.Error("Predict before init should error")
	}
	// Converge on a moving target, then coast.
	for i := 0; i < 30; i++ {
		f.Update(geom.Pt(float64(i)*0.5, 0), 0.5)
	}
	pos0, _ := f.State()
	if err := f.Predict(1.0); err != nil {
		t.Fatal(err)
	}
	pos1, _ := f.State()
	if pos1.X <= pos0.X {
		t.Errorf("coasting did not advance: %v → %v", pos0, pos1)
	}
	vx0, _ := f.PositionVariance()
	f.Predict(5)
	vx1, _ := f.PositionVariance()
	if vx1 <= vx0 {
		t.Error("coasting should grow uncertainty")
	}
	if err := f.Predict(-1); err == nil {
		t.Error("negative dt should error")
	}
}

func TestFilterNegativeDtUpdate(t *testing.T) {
	f := NewFilter(1, 0.3, 0)
	f.Update(geom.Pt(0, 0), 0)
	if _, err := f.Update(geom.Pt(1, 1), -0.5); err == nil {
		t.Error("negative dt should error")
	}
}

// TestTrackTrail: the smoothed positions a filter reports after each
// fix of a straight walk are monotone in x.
func TestTrackTrail(t *testing.T) {
	f := NewFilter(0.5, 0.3, 4)
	var trail []geom.Point
	for i := 0; i < 5; i++ {
		if _, err := f.Update(geom.Pt(float64(i), 0), 0.5); err != nil {
			t.Fatal(err)
		}
		pos, _ := f.State()
		trail = append(trail, pos)
	}
	for i := 1; i < len(trail); i++ {
		if trail[i].X < trail[i-1].X-0.2 {
			t.Errorf("trail regressed at %d: %v", i, trail)
		}
	}
}

func TestPredictStateMatchesPredictAndDoesNotMutate(t *testing.T) {
	f := NewFilter(0.5, 0.3, 4)
	if _, ok := f.PredictState(1); ok {
		t.Fatal("PredictState before init must report false")
	}
	for i := 0; i < 20; i++ {
		f.Update(geom.Pt(float64(i)*0.5, 2), 0.5)
	}
	posBefore, velBefore := f.State()
	vxB, vyB := f.PositionVariance()

	pred, ok := f.PredictState(0.5)
	if !ok {
		t.Fatal("PredictState after init must report true")
	}
	// Non-mutating: the filter is exactly where it was.
	posAfter, velAfter := f.State()
	vxA, vyA := f.PositionVariance()
	if posAfter != posBefore || velAfter != velBefore || vxA != vxB || vyA != vyB {
		t.Fatal("PredictState mutated the filter")
	}
	// Consistent with the mutating Predict: same predicted position
	// and position covariance.
	g := *f
	if err := g.Predict(0.5); err != nil {
		t.Fatal(err)
	}
	gpos, gvel := g.State()
	if pred.Pos != gpos || pred.Vel != gvel {
		t.Fatalf("PredictState pos %v vel %v != Predict %v %v", pred.Pos, pred.Vel, gpos, gvel)
	}
	gx, gy := g.PositionVariance()
	r2 := 0.3 * 0.3
	if math.Abs(pred.Sxx-(gx+r2)) > 1e-12 || math.Abs(pred.Syy-(gy+r2)) > 1e-12 {
		t.Fatalf("innovation covariance %v %v != predicted P + R (%v %v)", pred.Sxx, pred.Syy, gx+r2, gy+r2)
	}
	if pred.Gate != 4 {
		t.Fatalf("Gate = %v, want 4", pred.Gate)
	}
}

// TestPredictionGateMatchesFilterGate: a fix the prediction's
// Mahalanobis check accepts is exactly a fix Update would accept at
// the same dt, and vice versa — the predictive region path and the
// tracker gate agree by construction.
func TestPredictionGateMatchesFilterGate(t *testing.T) {
	mk := func() *Filter {
		f := NewFilter(0.5, 0.3, 4)
		for i := 0; i < 15; i++ {
			f.Update(geom.Pt(float64(i)*0.4, 1), 0.5)
		}
		return f
	}
	base := mk()
	pred, _ := base.PredictState(0.5)
	for _, fix := range []geom.Point{
		pred.Pos,                            // dead centre: accepted
		pred.Pos.Add(geom.Vec{X: 0.5}),      // near: accepted
		pred.Pos.Add(geom.Vec{X: 10, Y: 5}), // catastrophic: rejected
	} {
		f := mk()
		accepted, err := f.Update(fix, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if got := pred.Accepts(fix); got != accepted {
			t.Fatalf("fix %v: Prediction.Accepts=%v, Filter.Update accepted=%v", fix, got, accepted)
		}
	}
}

// TestPredictionBoxCoversGate: every fix at Mahalanobis distance ≤
// sigma lies inside Box(sigma), so a region search over the box never
// excludes a fix the gate would accept.
func TestPredictionBoxCoversGate(t *testing.T) {
	f := NewFilter(0.8, 0.4, 4)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		f.Update(geom.Pt(float64(i)*0.6+rng.NormFloat64()*0.2, 3+rng.NormFloat64()*0.2), 0.5)
	}
	pred, _ := f.PredictState(1.0)
	min, max := pred.Box(pred.Gate)
	if !(min.X < pred.Pos.X && pred.Pos.X < max.X && min.Y < pred.Pos.Y && pred.Pos.Y < max.Y) {
		t.Fatalf("box %v–%v does not contain predicted pos %v", min, max, pred.Pos)
	}
	// Sample the gate ellipse boundary densely: all inside the box.
	for k := 0; k < 360; k++ {
		// A point at Mahalanobis distance exactly Gate along direction θ:
		// solve y = d·u / sqrt(uᵀS⁻¹u) for unit u.
		th := 2 * math.Pi * float64(k) / 360
		ux, uy := math.Cos(th), math.Sin(th)
		det := pred.Sxx*pred.Syy - pred.Sxy*pred.Sxy
		q := (pred.Syy*ux*ux - 2*pred.Sxy*ux*uy + pred.Sxx*uy*uy) / det
		s := pred.Gate / math.Sqrt(q)
		p := geom.Pt(pred.Pos.X+s*ux, pred.Pos.Y+s*uy)
		if d2 := pred.MahalanobisSq(p); math.Abs(math.Sqrt(d2)-pred.Gate) > 1e-9 {
			t.Fatalf("boundary construction off: d=%v want %v", math.Sqrt(d2), pred.Gate)
		}
		if p.X < min.X-1e-9 || p.X > max.X+1e-9 || p.Y < min.Y-1e-9 || p.Y > max.Y+1e-9 {
			t.Fatalf("gate-ellipse point %v escapes box %v–%v", p, min, max)
		}
	}
	if !pred.Accepts(pred.Pos) {
		t.Fatal("predicted position itself must be accepted")
	}
}

func TestFilterAcceptedCount(t *testing.T) {
	f := NewFilter(0.5, 0.3, 4)
	if f.Accepted() != 0 {
		t.Fatalf("Accepted before init = %d", f.Accepted())
	}
	f.Update(geom.Pt(0, 0), 0)
	f.Update(geom.Pt(0.3, 0), 0.5)
	if f.Accepted() != 2 {
		t.Fatalf("Accepted = %d, want 2", f.Accepted())
	}
	f.Update(geom.Pt(40, 40), 0.5) // gated outlier
	if f.Accepted() != 2 || f.Rejected() != 1 {
		t.Fatalf("after outlier: accepts %d rejects %d", f.Accepted(), f.Rejected())
	}
}

func TestCovarianceStaysSymmetricPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := NewFilter(1, 0.3, 0)
	for i := 0; i < 200; i++ {
		fix := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		if _, err := f.Update(fix, 0.2); err != nil {
			t.Fatal(err)
		}
		vx, vy := f.PositionVariance()
		if vx <= 0 || vy <= 0 || math.IsNaN(vx) || math.IsNaN(vy) {
			t.Fatalf("variance degenerate at step %d: %v %v", i, vx, vy)
		}
	}
}

// TestFilterSnapshotRoundTripBitIdentical is the restore property
// test: for random fix histories (including gated outliers and
// degenerate dts), Snapshot → JSON → NewFilterFromState must yield a
// filter whose predictions, state, and future updates are bit-for-bit
// identical to the live one — a restarted server resumes tracks as if
// it never died.
func TestFilterSnapshotRoundTripBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		gate := float64(rng.Intn(4)) // 0 disables on some trials
		f := NewFilter(0.2+rng.Float64()*2, 0.1+rng.Float64(), gate)
		steps := 1 + rng.Intn(50)
		for i := 0; i < steps; i++ {
			fix := geom.Pt(rng.Float64()*40, rng.Float64()*16)
			if rng.Intn(8) == 0 {
				fix = geom.Pt(rng.Float64()*1e3, rng.Float64()*1e3) // outlier: exercise rejects
			}
			if _, err := f.Update(fix, rng.Float64()*2); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, i, err)
			}
		}

		data, err := json.Marshal(f.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var st FilterState
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		g, err := NewFilterFromState(st)
		if err != nil {
			t.Fatalf("trial %d: restore rejected a live filter's snapshot: %v", trial, err)
		}

		if g.Accepted() != f.Accepted() || g.Rejected() != f.Rejected() || g.Gate() != f.Gate() {
			t.Fatalf("trial %d: counters drifted across restore", trial)
		}
		for _, dt := range []float64{0, 0.37, 1.5, 10} {
			pa, oka := f.PredictState(dt)
			pb, okb := g.PredictState(dt)
			if oka != okb || pa != pb {
				t.Fatalf("trial %d dt=%v: restored prediction %+v != live %+v", trial, dt, pb, pa)
			}
		}

		// The filters must also continue identically.
		next := geom.Pt(rng.Float64()*40, rng.Float64()*16)
		accA, errA := f.Update(next, 0.5)
		accB, errB := g.Update(next, 0.5)
		if accA != accB || (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d: post-restore update diverged: %v/%v vs %v/%v", trial, accA, errA, accB, errB)
		}
		pA, vA := f.State()
		pB, vB := g.State()
		if pA != pB || vA != vB {
			t.Fatalf("trial %d: post-restore state %v %v != live %v %v", trial, pB, vB, pA, vA)
		}
		vxA, vyA := f.PositionVariance()
		vxB, vyB := g.PositionVariance()
		if vxA != vxB || vyA != vyB {
			t.Fatalf("trial %d: post-restore variance diverged", trial)
		}
	}
}

// TestFilterStateValidation: restore refuses corrupted snapshots
// (NaN/Inf fields, non-positive noise) instead of installing them.
func TestFilterStateValidation(t *testing.T) {
	f := NewFilter(1, 0.3, 4)
	f.Update(geom.Pt(1, 2), 0)
	good := f.Snapshot()
	if !good.Valid() {
		t.Fatal("live snapshot must validate")
	}
	cases := map[string]func(*FilterState){
		"nan state":     func(s *FilterState) { s.X[2] = math.NaN() },
		"inf cov":       func(s *FilterState) { s.P[0] = math.Inf(1) },
		"zero process":  func(s *FilterState) { s.ProcessNoise = 0 },
		"neg meas":      func(s *FilterState) { s.MeasNoise = -1 },
		"negative gate": func(s *FilterState) { s.Gate = -2 },
	}
	for name, corrupt := range cases {
		s := good
		corrupt(&s)
		if _, err := NewFilterFromState(s); err == nil {
			t.Errorf("%s: corrupted snapshot restored without error", name)
		}
	}
}

func TestUpdateScaledWidensGate(t *testing.T) {
	// Two filters fed the same settled track; a fix chosen between the
	// base gate and the widened gate is rejected by Update but accepted
	// by UpdateScaled.
	mk := func() *Filter {
		f := NewFilter(0.5, 0.3, 4)
		for i := 0; i < 20; i++ {
			if _, err := f.Update(geom.Pt(float64(i)*0.3, 2), 0.5); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	base, wide := mk(), mk()
	// Find an offset whose Mahalanobis distance lands in (gate, 1.5×gate).
	pred, ok := base.PredictState(0.5)
	if !ok {
		t.Fatal("no prediction")
	}
	var fix geom.Point
	found := false
	for dy := 0.1; dy < 20; dy += 0.05 {
		p := geom.Pt(pred.Pos.X, pred.Pos.Y+dy)
		d2 := pred.MahalanobisSq(p)
		if d2 > 4*4 && d2 < 6*6 {
			fix, found = p, true
			break
		}
	}
	if !found {
		t.Fatal("no fix between gate and 1.5×gate found")
	}
	if ok, err := base.Update(fix, 0.5); err != nil || ok {
		t.Fatalf("base gate: accepted=%v err=%v, want rejection", ok, err)
	}
	if ok, err := wide.UpdateScaled(fix, 0.5, 1.5); err != nil || !ok {
		t.Fatalf("widened gate: accepted=%v err=%v, want acceptance", ok, err)
	}
	if ok, err := mk().UpdateScaled(fix, 0.5, 1.0); err != nil || ok {
		t.Fatalf("scale 1: accepted=%v err=%v, want base-gate rejection", ok, err)
	}
}
