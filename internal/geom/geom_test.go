package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointArith(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(4, 6)
	if got := p.Dist(q); !almost(got, 5, 1e-12) {
		t.Errorf("Dist = %v, want 5", got)
	}
	v := q.Sub(p)
	if v != (Vec{3, 4}) {
		t.Errorf("Sub = %v, want {3 4}", v)
	}
	if got := p.Add(v); got != q {
		t.Errorf("Add = %v, want %v", got, q)
	}
}

func TestBearing(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(1, 0), 0},
		{Pt(0, 0), Pt(0, 1), math.Pi / 2},
		{Pt(0, 0), Pt(-1, 0), math.Pi},
		{Pt(0, 0), Pt(0, -1), 3 * math.Pi / 2},
		{Pt(1, 1), Pt(2, 2), math.Pi / 4},
	}
	for _, c := range cases {
		if got := c.p.Bearing(c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Bearing(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestVecOps(t *testing.T) {
	v := Vec{3, 4}
	if got := v.Norm(); !almost(got, 5, 1e-12) {
		t.Errorf("Norm = %v", got)
	}
	u := v.Unit()
	if !almost(u.Norm(), 1, 1e-12) {
		t.Errorf("Unit().Norm() = %v", u.Norm())
	}
	if got := v.Dot(Vec{1, 0}); !almost(got, 3, 1e-12) {
		t.Errorf("Dot = %v", got)
	}
	if got := v.Cross(Vec{1, 0}); !almost(got, -4, 1e-12) {
		t.Errorf("Cross = %v", got)
	}
	if got := (Vec{}).Unit(); got != (Vec{}) {
		t.Errorf("zero Unit = %v", got)
	}
}

func TestFromAngleRoundTrip(t *testing.T) {
	for _, a := range []float64{0, 0.3, 1.5, math.Pi, 4.2, 6.1} {
		v := FromAngle(a)
		if !almost(v.Angle(), a, 1e-12) {
			t.Errorf("Angle(FromAngle(%v)) = %v", a, v.Angle())
		}
		if !almost(v.Norm(), 1, 1e-12) {
			t.Errorf("FromAngle(%v) not unit", a)
		}
	}
}

func TestSegmentProject(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	tpar, q := s.Project(Pt(3, 5))
	if !almost(tpar, 0.3, 1e-12) || !almost(q.X, 3, 1e-12) || !almost(q.Y, 0, 1e-12) {
		t.Errorf("Project = %v %v", tpar, q)
	}
	// Clamping beyond the endpoints.
	tpar, q = s.Project(Pt(-5, 1))
	if tpar != 0 || q != s.A {
		t.Errorf("Project clamp low = %v %v", tpar, q)
	}
	tpar, q = s.Project(Pt(99, 1))
	if tpar != 1 || q != s.B {
		t.Errorf("Project clamp high = %v %v", tpar, q)
	}
	if got := s.DistTo(Pt(3, 5)); !almost(got, 5, 1e-12) {
		t.Errorf("DistTo = %v", got)
	}
}

func TestSegmentMirror(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0)) // the x axis
	m := s.Mirror(Pt(3, 4))
	if !almost(m.X, 3, 1e-12) || !almost(m.Y, -4, 1e-12) {
		t.Errorf("Mirror = %v", m)
	}
	// Mirroring across a diagonal line y=x swaps coordinates.
	d := Seg(Pt(0, 0), Pt(1, 1))
	m = d.Mirror(Pt(5, 2))
	if !almost(m.X, 2, 1e-9) || !almost(m.Y, 5, 1e-9) {
		t.Errorf("diagonal Mirror = %v", m)
	}
}

func TestMirrorInvolution(t *testing.T) {
	// Property: mirroring twice is the identity, and the foot of the
	// segment from p to its mirror lies on the mirror line.
	f := func(ax, ay, bx, by, px, py float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		if a.Dist(b) < 1e-3 {
			return true // degenerate segment, skip
		}
		s := Seg(a, b)
		p := Pt(px, py)
		m := s.Mirror(s.Mirror(p))
		return almost(m.X, p.X, 1e-6) && almost(m.Y, p.Y, 1e-6)
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vs []reflect.Value, r *rand.Rand) {
			for i := range vs {
				vs[i] = reflect.ValueOf(r.Float64()*20 - 10)
			}
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSegmentIntersect(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	o := Seg(Pt(5, -5), Pt(5, 5))
	p, tpar, ok := s.Intersect(o)
	if !ok || !almost(p.X, 5, 1e-12) || !almost(p.Y, 0, 1e-12) || !almost(tpar, 0.5, 1e-12) {
		t.Errorf("Intersect = %v %v %v", p, tpar, ok)
	}
	// Parallel segments never intersect.
	if _, _, ok := s.Intersect(Seg(Pt(0, 1), Pt(10, 1))); ok {
		t.Error("parallel segments reported intersecting")
	}
	// Disjoint segments.
	if _, _, ok := s.Intersect(Seg(Pt(20, -1), Pt(20, 1))); ok {
		t.Error("disjoint segments reported intersecting")
	}
}

func TestFloorplanLoS(t *testing.T) {
	var f Floorplan
	f.AddWall(Pt(5, -5), Pt(5, 5), Concrete)
	if f.LineOfSight(Pt(0, 0), Pt(10, 0)) {
		t.Error("wall should block LoS")
	}
	if !f.LineOfSight(Pt(0, 0), Pt(4, 0)) {
		t.Error("short path should be clear")
	}
	if got := f.PathLossDB(Pt(0, 0), Pt(10, 0), -1, -1); !almost(got, Concrete.TransmissionLossDB, 1e-12) {
		t.Errorf("PathLossDB = %v", got)
	}
	// Skipping the wall index, as either skip, removes the obstruction.
	if got := f.PathLossDB(Pt(0, 0), Pt(10, 0), 0, -1); got != 0 {
		t.Errorf("skipped PathLossDB = %v", got)
	}
	if got := f.PathLossDB(Pt(0, 0), Pt(10, 0), -1, 0); got != 0 {
		t.Errorf("skipped PathLossDB = %v", got)
	}
}

func TestFloorplanRectAndBounds(t *testing.T) {
	var f Floorplan
	f.AddRect(Pt(0, 0), Pt(30, 15), Drywall)
	if len(f.Walls) != 4 {
		t.Fatalf("walls = %d", len(f.Walls))
	}
	if f.Min != Pt(0, 0) || f.Max != Pt(30, 15) {
		t.Errorf("bounds = %v %v", f.Min, f.Max)
	}
	if !f.Contains(Pt(15, 7)) || f.Contains(Pt(40, 7)) {
		t.Error("Contains wrong")
	}
}

func TestObstructionEndpointTolerance(t *testing.T) {
	// A transmitter sitting exactly on a wall should not be "blocked"
	// by that wall.
	var f Floorplan
	f.AddWall(Pt(0, -5), Pt(0, 5), Drywall)
	if !f.LineOfSight(Pt(0, 0), Pt(3, 0)) {
		t.Error("endpoint on wall should not count as obstruction")
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{2 * math.Pi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); !almost(got, c.want, 1e-12) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	if got := AngleDiff(0.1, 2*math.Pi-0.1); !almost(got, 0.2, 1e-12) {
		t.Errorf("AngleDiff wraparound = %v", got)
	}
	if got := AngleDiff(0, math.Pi); !almost(got, math.Pi, 1e-12) {
		t.Errorf("AngleDiff(0,π) = %v", got)
	}
}

func TestDegRad(t *testing.T) {
	if !almost(Deg(math.Pi), 180, 1e-12) || !almost(Rad(180), math.Pi, 1e-12) {
		t.Error("Deg/Rad conversion wrong")
	}
}

func TestSegmentNormalPerpendicular(t *testing.T) {
	s := Seg(Pt(1, 1), Pt(4, 5))
	if got := s.Normal().Dot(s.Dir()); !almost(got, 0, 1e-12) {
		t.Errorf("normal not perpendicular: dot = %v", got)
	}
	if !almost(s.Normal().Norm(), 1, 1e-12) {
		t.Error("normal not unit")
	}
}
