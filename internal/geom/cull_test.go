package geom_test

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/testbed"
)

// scanCrossed is the unculled wall scan: the walls, other than skipA and
// skipB, that every one take Intersect's exact test and that the segment
// from a to b crosses in its open interior, in wall order.
func scanCrossed(f *geom.Floorplan, a, b geom.Point, skipA, skipB int) []int {
	ray := geom.Seg(a, b)
	var out []int
	for i, w := range f.Walls {
		if i == skipA || i == skipB {
			continue
		}
		if _, t, ok := ray.Intersect(w.Seg); ok && t >= 1e-6 && t <= 1-1e-6 {
			out = append(out, i)
		}
	}
	return out
}

// along returns the point at parameter u on the line through s.
func along(s geom.Segment, u float64) geom.Point {
	return s.A.Add(s.B.Sub(s.A).Scale(u))
}

// TestPathLossCullMatchesScan holds the culled PathLossDB and LineOfSight
// to the unculled scan, ==, on the testbed plan: random legs within and
// beyond the floor, and for every wall legs that end on it and at its
// corners, lie along its line or parallel to it, cross it at angles
// shallow enough to bring Intersect's denominator down to Eps, pass its
// ends within and just beyond Intersect's tolerance, lie one margin from
// its box, or have no length. It also checks the cull's own claim
// directly: no wall wholly outside a leg's reach passes the exact test.
func TestPathLossCullMatchesScan(t *testing.T) {
	f := testbed.New().Plan
	rng := rand.New(rand.NewSource(1))
	pick := func() geom.Point {
		return geom.Pt(f.Min.X-5+rng.Float64()*(f.Max.X-f.Min.X+10), f.Min.Y-5+rng.Float64()*(f.Max.Y-f.Min.Y+10))
	}
	type leg struct{ a, b geom.Point }
	var legs []leg
	for i := 0; i < 20000; i++ {
		legs = append(legs, leg{pick(), pick()})
	}
	for wi, w := range f.Walls {
		s := w.Seg
		n := s.Normal()
		other := f.Walls[(wi+7)%len(f.Walls)].Seg
		for k := 0; k < 20; k++ {
			p := pick()
			legs = append(legs,
				leg{along(s, rng.Float64()), p}, leg{p, along(s, rng.Float64())},
				leg{s.A, p}, leg{p, s.B},
				leg{along(s, rng.Float64()), along(other, rng.Float64())},
				leg{s.B, other.A},
			)
		}
		// Zero-length legs: at a corner, on the wall, near it.
		mid := along(s, 0.5)
		legs = append(legs, leg{s.A, s.A}, leg{mid, mid}, leg{mid.Add(n.Scale(0.1)), mid.Add(n.Scale(0.1))})
		// Along the wall's line: inside it, over either end, around it,
		// end to end, and touching it at one corner.
		for _, uv := range [][2]float64{{0.2, 0.7}, {-0.5, 0.5}, {0.5, 1.5}, {-1, 2}, {0, 1}, {1, 0}, {1, 2}, {-1, 0}} {
			legs = append(legs, leg{along(s, uv[0]), along(s, uv[1])})
		}
		for _, h := range []float64{1e-13, 1e-10, 1e-9, 1e-6, 1e-3, 0.1} {
			for _, sign := range []float64{-1, 1} {
				off := n.Scale(sign * h)
				// Parallel, offset by h.
				legs = append(legs, leg{along(s, -0.5).Add(off), along(s, 1.5).Add(off)}, leg{along(s, 0.1).Add(off), along(s, 0.9).Add(off)})
				// Through the wall at a shallow angle: h either side.
				legs = append(legs, leg{along(s, -0.1).Add(off), along(s, 1.1).Add(off.Scale(-1))})
			}
		}
		// Across the wall's line just past each end, and through the
		// corners: Intersect's u tolerance is Eps.
		for _, e := range []float64{-1e-6, -1e-9, -1e-12, 0, 1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-6} {
			for _, u := range []float64{-e, 1 + e} {
				c := along(s, u)
				legs = append(legs, leg{c.Add(n.Scale(-1)), c.Add(n.Scale(1))}, leg{c.Add(n.Scale(-1)), c.Add(n.Scale(1e-7))})
			}
		}
		// One margin from the wall's box on each side, and a hair
		// either way. The margin depends on the leg's length alone
		// here, so a vertical (horizontal) leg at x = 0 (y = 0) of the
		// same length gives it.
		wlo := geom.Pt(min(s.A.X, s.B.X), min(s.A.Y, s.B.Y))
		whi := geom.Pt(max(s.A.X, s.B.X), max(s.A.Y, s.B.Y))
		y0, y1 := wlo.Y-1, whi.Y+1
		x0, x1 := wlo.X-1, whi.X+1
		_, hv := f.Reach(geom.Pt(0, y0), geom.Pt(0, y1))
		_, hh := f.Reach(geom.Pt(x0, 0), geom.Pt(x1, 0))
		for _, d := range []float64{-1e-9, 0, 1e-9} {
			mx, my := hv.X+d, hh.Y+d
			legs = append(legs,
				leg{geom.Pt(whi.X+mx, y0), geom.Pt(whi.X+mx, y1)}, leg{geom.Pt(wlo.X-mx, y1), geom.Pt(wlo.X-mx, y0)},
				leg{geom.Pt(x0, whi.Y+my), geom.Pt(x1, whi.Y+my)}, leg{geom.Pt(x1, wlo.Y-my), geom.Pt(x0, wlo.Y-my)},
			)
		}
	}

	var crossed, culled, tolerance int
	for _, l := range legs {
		skips := [][2]int{{-1, -1}, {rng.Intn(len(f.Walls)), -1}, {rng.Intn(len(f.Walls)), rng.Intn(len(f.Walls))}}
		for _, sk := range skips {
			var want float64
			for _, i := range scanCrossed(f, l.a, l.b, sk[0], sk[1]) {
				want += f.Walls[i].Mat.TransmissionLossDB
			}
			if got := f.PathLossDB(l.a, l.b, sk[0], sk[1]); got != want {
				t.Fatalf("PathLossDB(%v, %v, %d, %d) = %v, unculled scan %v", l.a, l.b, sk[0], sk[1], got, want)
			}
		}
		hits := scanCrossed(f, l.a, l.b, -1, -1)
		if got := f.LineOfSight(l.a, l.b); got != (len(hits) == 0) {
			t.Fatalf("LineOfSight(%v, %v) = %v, unculled scan crosses %v", l.a, l.b, got, hits)
		}
		crossed += len(hits)
		lo, hi := f.Reach(l.a, l.b)
		for i, w := range f.Walls {
			s := w.Seg
			if (s.A.X < lo.X && s.B.X < lo.X) || (s.A.X > hi.X && s.B.X > hi.X) ||
				(s.A.Y < lo.Y && s.B.Y < lo.Y) || (s.A.Y > hi.Y && s.B.Y > hi.Y) {
				culled++
				if _, tt, ok := geom.Seg(l.a, l.b).Intersect(s); ok && tt >= 1e-6 && tt <= 1-1e-6 {
					t.Fatalf("wall %d lies outside the reach [%v, %v] of (%v, %v) but is crossed", i, lo, hi, l.a, l.b)
				}
			}
		}
		for _, i := range hits {
			s := f.Walls[i].Seg
			p, _, _ := geom.Seg(l.a, l.b).Intersect(s)
			d := s.B.Sub(s.A)
			if u := p.Sub(s.A).Dot(d); u < 0 || u > d.Dot(d) {
				tolerance++
			}
		}
	}
	if culled == 0 || tolerance == 0 {
		t.Fatalf("%d legs: %d culled (leg, wall) pairs, %d crossings past a wall's end; the probe must reach both", len(legs), culled, tolerance)
	}
	t.Logf("%d legs == the unculled scan: %d of %d (leg, wall) pairs culled, %d crossings, %d of them past a wall's end within Intersect's tolerance",
		len(legs), culled, len(legs)*len(f.Walls), crossed, tolerance)
}
