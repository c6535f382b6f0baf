// Package array models the AP antenna array: element geometry (uniform
// linear arrays at half-wavelength spacing, the optional ninth off-row
// antenna used for symmetry removal, and circular arrays for the §6
// discussion), plane-wave steering vectors, per-radio oscillator phase
// offsets, and the splitter-swap phase calibration procedure of §3.
package array

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"

	"repro/internal/geom"
)

// Geometry enumerates supported element layouts.
type Geometry int

const (
	// Linear is a uniform linear array (the paper's arrangement).
	Linear Geometry = iota
	// Circular is a uniform circular array (§6 discussion).
	Circular
)

// Array describes one AP's antenna array.
type Array struct {
	// Pos is the position of the array reference point (element 0 for
	// linear arrays, the centre for circular arrays).
	Pos geom.Point
	// Orient is the direction, in radians, along which a linear
	// array's elements are laid out (or the bearing of element 0 for a
	// circular array).
	Orient float64
	// Spacing is the inter-element spacing in metres (the radius for
	// circular arrays).
	Spacing float64
	// N is the number of elements in the main row/circle.
	N int
	// Geom selects the element layout.
	Geom Geometry
	// NinthAntenna, if true, adds one extra element displaced
	// perpendicular to a linear array's axis. Section 2.3.4 uses it to
	// resolve the 180° front/back ambiguity.
	NinthAntenna bool
	// PhaseOffsets holds the unknown per-radio downconversion phase
	// offsets ψ_k (radians) that the hardware introduces (§3). The
	// channel simulator applies them; localization must calibrate them
	// away. Zero-length means a perfectly calibrated array.
	PhaseOffsets []float64
}

// NewLinear returns an N-element uniform linear array at half-wavelength
// spacing for wavelength lambda, positioned at pos with its element row
// along orient.
func NewLinear(pos geom.Point, orient float64, n int, lambda float64) *Array {
	return &Array{Pos: pos, Orient: orient, Spacing: lambda / 2, N: n, Geom: Linear}
}

// NewCircular returns an N-element uniform circular array of the given
// radius centred at pos.
func NewCircular(pos geom.Point, radius float64, n int) *Array {
	return &Array{Pos: pos, Spacing: radius, N: n, Geom: Circular}
}

// NumElements returns the total element count including the ninth
// antenna if present.
func (a *Array) NumElements() int {
	n := a.N
	if a.NinthAntenna && a.Geom == Linear {
		n++
	}
	return n
}

// ElementPos returns the position of element k. For linear arrays,
// elements 0..N-1 lie along Orient at multiples of Spacing; the ninth
// antenna (index N) sits half a row-length along the array displaced
// perpendicular to the row by a quarter wavelength (half the λ/2
// spacing), off the array axis as §2.3.4 requires. The λ/4 offset
// makes the front/back phase difference π·sin θ — unambiguous over the
// whole half-circle, where a λ/2 offset would alias to zero at
// broadside.
func (a *Array) ElementPos(k int) geom.Point {
	switch a.Geom {
	case Circular:
		ang := a.Orient + 2*math.Pi*float64(k)/float64(a.N)
		return a.Pos.Add(geom.FromAngle(ang).Scale(a.Spacing))
	default:
		if a.NinthAntenna && k == a.N {
			along := geom.FromAngle(a.Orient).Scale(a.Spacing * float64(a.N-1) / 2)
			perp := geom.FromAngle(a.Orient + math.Pi/2).Scale(a.Spacing / 2)
			return a.Pos.Add(along).Add(perp)
		}
		return a.Pos.Add(geom.FromAngle(a.Orient).Scale(a.Spacing * float64(k)))
	}
}

// Centroid returns the mean element position.
func (a *Array) Centroid() geom.Point {
	var sx, sy float64
	n := a.NumElements()
	for k := 0; k < n; k++ {
		p := a.ElementPos(k)
		sx += p.X
		sy += p.Y
	}
	return geom.Pt(sx/float64(n), sy/float64(n))
}

// SteeringVector returns the ideal (offset-free) array response
// a(θ) for a plane wave arriving from global bearing theta at
// wavelength lambda: element k has phase 2π·((r_k−r_0)·u)/λ where u is
// the unit vector from the array toward the source. Includes the ninth
// antenna if enabled. Element 0 is the phase reference.
func (a *Array) SteeringVector(theta, lambda float64) []complex128 {
	return a.AppendSteeringVector(nil, theta, lambda)
}

// AppendSteeringVector appends SteeringVector(theta, lambda) to dst and
// returns the extended slice, so a caller that needs one vector at a
// time can reuse a buffer.
func (a *Array) AppendSteeringVector(dst []complex128, theta, lambda float64) []complex128 {
	var buf [9]geom.Vec // eight in a row and the ninth, without allocating
	return AppendSteering(dst, a.AppendElementOffsets(buf[:0]), theta, lambda)
}

// AppendElementOffsets appends every element's displacement from element
// 0, the geometry a steering vector reads, to dst and returns the
// extended slice.
func (a *Array) AppendElementOffsets(dst []geom.Vec) []geom.Vec {
	n := a.NumElements()
	r0 := a.ElementPos(0)
	dst = slices.Grow(dst, n)
	for k := 0; k < n; k++ {
		dst = append(dst, a.ElementPos(k).Sub(r0))
	}
	return dst
}

// AppendSteering appends the steering vector of an array whose element
// offsets are offs (AppendElementOffsets) to dst and returns the extended
// slice: a caller steering one array toward many bearings computes the
// offsets once.
func AppendSteering(dst []complex128, offs []geom.Vec, theta, lambda float64) []complex128 {
	u := geom.FromAngle(theta)
	dst = slices.Grow(dst, len(offs))
	for _, o := range offs {
		d := o.Dot(u)
		dst = append(dst, cmplx.Exp(complex(0, 2*math.Pi*d/lambda)))
	}
	return dst
}

// SteeringVectorRow is SteeringVector restricted to the main row
// (excludes the ninth antenna): the MUSIC spectrum is computed on the
// uniform row, while the ninth antenna only votes on front/back.
func (a *Array) SteeringVectorRow(theta, lambda float64) []complex128 {
	full := a.SteeringVector(theta, lambda)
	return full[:a.N]
}

// RandomizePhaseOffsets draws a fresh set of per-radio phase offsets
// uniformly from [0, 2π), simulating the unknown downconversion phases
// that make uncalibrated AoA impossible (§3). Element 0 keeps offset 0
// as the reference.
func (a *Array) RandomizePhaseOffsets(rng *rand.Rand) {
	n := a.NumElements()
	a.PhaseOffsets = make([]float64, n)
	for k := 1; k < n; k++ {
		a.PhaseOffsets[k] = rng.Float64() * 2 * math.Pi
	}
}

// ApplyOffsets multiplies a per-element sample vector by the hardware
// phase offsets in place. The channel simulator calls this on every
// received snapshot.
func (a *Array) ApplyOffsets(x []complex128) {
	if len(a.PhaseOffsets) == 0 {
		return
	}
	for k := range x {
		if k < len(a.PhaseOffsets) && a.PhaseOffsets[k] != 0 {
			x[k] *= cmplx.Exp(complex(0, a.PhaseOffsets[k]))
		}
	}
}

// CorrectOffsets removes previously measured calibration offsets from a
// sample vector in place (the "subtracting the measured phase offsets"
// step of §3).
func CorrectOffsets(x []complex128, measured []float64) {
	CorrectSnapshots([][]complex128{x}, measured, nil)
}

// CorrectSnapshots removes the measured offsets from every snapshot of
// one frame in place: the per-element phasor e^{−jψ_k} is computed once
// into scratch (grown as needed and returned for reuse) and multiplied
// into each snapshot. Elements whose measured offset is zero, or that
// lie beyond measured, are left untouched.
func CorrectSnapshots(snaps [][]complex128, measured []float64, scratch []complex128) []complex128 {
	if cap(scratch) < len(measured) {
		scratch = make([]complex128, len(measured))
	}
	scratch = scratch[:len(measured)]
	for k, psi := range measured {
		scratch[k] = cmplx.Exp(complex(0, -psi))
	}
	for _, x := range snaps {
		for k := range x {
			if k < len(measured) && measured[k] != 0 {
				x[k] *= scratch[k]
			}
		}
	}
	return scratch
}

// Validate checks the array for configuration errors.
func (a *Array) Validate() error {
	if a.N < 2 {
		return fmt.Errorf("array: need at least 2 elements, have %d", a.N)
	}
	if a.Spacing <= 0 {
		return fmt.Errorf("array: spacing %v must be positive", a.Spacing)
	}
	if len(a.PhaseOffsets) != 0 && len(a.PhaseOffsets) != a.NumElements() {
		return fmt.Errorf("array: %d phase offsets for %d elements", len(a.PhaseOffsets), a.NumElements())
	}
	return nil
}
