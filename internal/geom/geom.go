// Package geom provides the 2-D computational geometry substrate used by
// the indoor RF channel simulator: points, vectors, wall segments,
// image-method reflections, visibility tests, and floorplans with
// material properties.
//
// The coordinate system is metres, x to the right, y up. Angles are
// radians measured counter-clockwise from the +x axis, matching the
// bearing convention used by the antenna-array steering vectors.
package geom

import (
	"fmt"
	"math"
)

// Eps is the absolute tolerance used by geometric predicates. Positions
// in the testbed are on the order of metres, so 1e-9 m (a nanometre) is
// far below any physically meaningful distance while staying well above
// float64 rounding error for our magnitudes.
const Eps = 1e-9

// Point is a location in the plane, in metres.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p translated by the vector v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Bearing returns the angle of the ray from p to q, in radians in
// [0, 2π).
func (p Point) Bearing(q Point) float64 {
	a := math.Atan2(q.Y-p.Y, q.X-p.X)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Vec is a displacement in the plane, in metres.
type Vec struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the z component of the 3-D cross product v × w.
func (v Vec) Cross(w Vec) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length of v.
func (v Vec) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Unit returns v normalized to unit length. The zero vector is returned
// unchanged.
func (v Vec) Unit() Vec {
	n := v.Norm()
	if n < Eps {
		return v
	}
	return v.Scale(1 / n)
}

// Angle returns the direction of v in radians in [0, 2π).
func (v Vec) Angle() float64 {
	a := math.Atan2(v.Y, v.X)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// FromAngle returns the unit vector pointing along angle a (radians).
func FromAngle(a float64) Vec { return Vec{math.Cos(a), math.Sin(a)} }

// Segment is a wall segment between two endpoints.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{a, b} }

// Len returns the length of the segment.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Dir returns the unit direction vector from A to B.
func (s Segment) Dir() Vec { return s.B.Sub(s.A).Unit() }

// Normal returns a unit normal of the segment (rotated +90° from Dir).
func (s Segment) Normal() Vec {
	d := s.Dir()
	return Vec{-d.Y, d.X}
}

// Project returns the parameter t in [0,1] of the point on s closest to
// p, and that closest point.
func (s Segment) Project(p Point) (t float64, q Point) {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 < Eps*Eps {
		return 0, s.A
	}
	t = p.Sub(s.A).Dot(d) / l2
	t = math.Max(0, math.Min(1, t))
	return t, s.A.Add(d.Scale(t))
}

// DistTo returns the distance from p to the nearest point of s.
func (s Segment) DistTo(p Point) float64 {
	_, q := s.Project(p)
	return p.Dist(q)
}

// Mirror returns the mirror image of p across the infinite line through
// the segment. This is the "image source" of the image method for
// specular reflection.
func (s Segment) Mirror(p Point) Point {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 < Eps*Eps {
		return p
	}
	t := p.Sub(s.A).Dot(d) / l2
	foot := s.A.Add(d.Scale(t))
	return Point{2*foot.X - p.X, 2*foot.Y - p.Y}
}

// Intersect reports whether segments s and o properly intersect, and if
// so the intersection point and the parameter t along s (0 at A, 1 at
// B). Collinear overlap is reported as no intersection: grazing
// incidence carries negligible reflected energy and the ray tracer
// treats it as a miss.
func (s Segment) Intersect(o Segment) (p Point, t float64, ok bool) {
	r := s.B.Sub(s.A)
	d := o.B.Sub(o.A)
	denom := r.Cross(d)
	if math.Abs(denom) < Eps {
		return Point{}, 0, false
	}
	ao := o.A.Sub(s.A)
	t = ao.Cross(d) / denom
	u := ao.Cross(r) / denom
	if t < -Eps || t > 1+Eps || u < -Eps || u > 1+Eps {
		return Point{}, 0, false
	}
	return s.A.Add(r.Scale(t)), t, true
}

// Material describes the RF properties of a wall or obstacle surface.
type Material struct {
	// Name identifies the material in floorplan listings.
	Name string
	// Reflectivity is the magnitude of the specular reflection
	// coefficient, in [0,1].
	Reflectivity float64
	// TransmissionLossDB is the attenuation in dB suffered by a ray
	// passing through the surface.
	TransmissionLossDB float64
}

// Standard materials, with reflectivity and penetration loss figures in
// the range reported for 2.4 GHz indoor propagation surveys.
var (
	Drywall  = Material{Name: "drywall", Reflectivity: 0.35, TransmissionLossDB: 3}
	Concrete = Material{Name: "concrete", Reflectivity: 0.65, TransmissionLossDB: 12}
	Metal    = Material{Name: "metal", Reflectivity: 0.95, TransmissionLossDB: 30}
)

// Wall is a surface in the floorplan: a segment plus its material.
type Wall struct {
	Seg Segment
	Mat Material
}

// Floorplan is a collection of walls and solid obstacles describing one
// floor of a building.
type Floorplan struct {
	// Walls are the reflecting/occluding surfaces.
	Walls []Wall
	// Bounds is the bounding rectangle (min and max corners) of the
	// plan, used to size likelihood grids. The wall scans of PathLossDB
	// and LineOfSight rely on it covering every wall, as AddWall keeps
	// it.
	Min, Max Point
}

// AddWall appends a wall and grows the bounding box.
func (f *Floorplan) AddWall(a, b Point, m Material) {
	f.Walls = append(f.Walls, Wall{Seg: Seg(a, b), Mat: m})
	f.grow(a)
	f.grow(b)
}

// AddRect appends the four walls of an axis-aligned rectangle with
// corners min and max. Used for pillars, rooms, and the outer shell.
func (f *Floorplan) AddRect(min, max Point, m Material) {
	a := min
	b := Pt(max.X, min.Y)
	c := max
	d := Pt(min.X, max.Y)
	f.AddWall(a, b, m)
	f.AddWall(b, c, m)
	f.AddWall(c, d, m)
	f.AddWall(d, a, m)
}

func (f *Floorplan) grow(p Point) {
	if len(f.Walls) == 1 && f.Min == (Point{}) && f.Max == (Point{}) {
		f.Min, f.Max = p, p
	}
	f.Min.X = math.Min(f.Min.X, p.X)
	f.Min.Y = math.Min(f.Min.Y, p.Y)
	f.Max.X = math.Max(f.Max.X, p.X)
	f.Max.Y = math.Max(f.Max.Y, p.Y)
}

// PathLossDB sums, in wall order, the transmission loss of every wall
// the segment from a to b crosses, except walls skipA and skipB (a
// reflected leg skips the wall or walls it bounces off, so a reflection
// point does not count as an obstruction; -1 skips none).
func (f *Floorplan) PathLossDB(a, b Point, skipA, skipB int) float64 {
	l := f.newLeg(a, b, skipA, skipB)
	var loss float64
	for i := f.nextCrossed(&l, 0); i >= 0; i = f.nextCrossed(&l, i+1) {
		loss += f.Walls[i].Mat.TransmissionLossDB
	}
	return loss
}

// LineOfSight reports whether the segment from a to b crosses no walls.
func (f *Floorplan) LineOfSight(a, b Point) bool {
	l := f.newLeg(a, b, -1, -1)
	return f.nextCrossed(&l, 0) < 0
}

// leg is a segment under a wall scan: the walls it skips, and its reach,
// the box [lo, hi] outside which no wall can cross it.
type leg struct {
	ray          Segment
	skipA, skipB int
	lo, hi       Point
}

// newLeg returns the scan state of the segment from a to b. Its reach is
// the segment's bounding box widened on every side by a margin large
// enough that a wall lying wholly outside it fails nextCrossed's exact
// test even after rounding, so culling on the box changes no answer.
//
// The bound: Intersect computes the denominator r×d and the numerators
// of t and u as differences of products of coordinate differences, each
// within γ4 = 4ε/(1−4ε) (ε = 2⁻⁵³) of exact times the sum of its product
// magnitudes: γ4·L·W for r×d and γ4·D·W, γ4·D·L for the numerators, with
// L the leg's length, W the wall's and D = |w.A − a| ≤ |t|L + |u|W. A wall
// passes only with |computed r×d| ≥ Eps, computed t in [1e-6, 1−1e-6] and
// computed u in [−Eps, 1+Eps]. With M = max(L, W) and σ = γ4·M²/Eps ≤
// 0.01, that gives |t| + |u| ≤ 2.07 and moves the exact t and u by at most
// 3.1σ/(1−σ) each, so the exact crossing of the two lines lies within
// 3.2σL of the leg and 3.2σW + Eps·W of the wall: their boxes are within
// 6.4·γ4·M³/Eps + Eps·M ≤ 2.9e-6·M³ + Eps·M of each other on both axes.
// M is at most the larger of the leg's length and the diagonal of the
// plan's [Min, Max] (which AddWall keeps around every wall), so a margin
// of 3e-6·M³ + 1e-6 covers the bound, the rounding of lo and hi included
// for coordinates within 1e6 m of the origin, while σ ≤ 0.01, that is
// while M ≤ 100 m; beyond that the reach is unbounded and every wall
// takes the exact test. The testbed's 40 × 16 m floor gives a margin of
// 0.24 m.
func (f *Floorplan) newLeg(a, b Point, skipA, skipB int) leg {
	l := leg{ray: Seg(a, b), skipA: skipA, skipB: skipB, lo: a, hi: b}
	if b.X < a.X {
		l.lo.X, l.hi.X = b.X, a.X
	}
	if b.Y < a.Y {
		l.lo.Y, l.hi.Y = b.Y, a.Y
	}
	dx, dy := l.hi.X-l.lo.X, l.hi.Y-l.lo.Y
	px, py := f.Max.X-f.Min.X, f.Max.Y-f.Min.Y
	m2 := max(dx*dx+dy*dy, px*px+py*py)
	margin := math.Inf(1)
	if m2 <= 100*100 {
		margin = 3e-6*m2*math.Sqrt(m2) + 1e-6
	}
	l.lo = Point{l.lo.X - margin, l.lo.Y - margin}
	l.hi = Point{l.hi.X + margin, l.hi.Y + margin}
	return l
}

// nextCrossed returns the index of the first wall from i on, other than
// l's skipped walls, that l crosses in its open interior, or -1 if there
// is none. Intersections at the very endpoints of the leg do not count:
// the transmitter or receiver may sit flush against a wall. A wall with
// both endpoints on one side of l's reach is skipped without the exact
// test (see leg).
func (f *Floorplan) nextCrossed(l *leg, i int) int {
	for ; i < len(f.Walls); i++ {
		s := &f.Walls[i].Seg
		if i == l.skipA || i == l.skipB ||
			(s.A.X < l.lo.X && s.B.X < l.lo.X) || (s.A.X > l.hi.X && s.B.X > l.hi.X) ||
			(s.A.Y < l.lo.Y && s.B.Y < l.lo.Y) || (s.A.Y > l.hi.Y && s.B.Y > l.hi.Y) {
			continue
		}
		if _, t, ok := l.ray.Intersect(*s); ok && t >= 1e-6 && t <= 1-1e-6 {
			return i
		}
	}
	return -1
}

// Contains reports whether p lies inside the bounding box of the plan.
func (f *Floorplan) Contains(p Point) bool {
	return p.X >= f.Min.X-Eps && p.X <= f.Max.X+Eps &&
		p.Y >= f.Min.Y-Eps && p.Y <= f.Max.Y+Eps
}

// NormalizeAngle maps a to the range [0, 2π).
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	if a < 0 {
		a += 2 * math.Pi
	}
	return a
}

// AngleDiff returns the absolute angular difference between a and b,
// folded into [0, π].
func AngleDiff(a, b float64) float64 {
	d := math.Abs(NormalizeAngle(a) - NormalizeAngle(b))
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }
