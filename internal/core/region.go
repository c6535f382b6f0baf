package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Region is a synthesis search box inside the configured search area —
// the engine's predictive path searches one around a track's
// prediction. The zero value means "no region": search the full
// configured area.
//
// A region snaps to the full grid's lattice: its cells are exactly the
// full-grid cells whose centres fall inside the box, so a region
// argmax equals the full-grid argmax restricted to those cells, and
// cached full-grid bearing LUTs are viewed in place instead of rebuilt.
type Region struct {
	// Min, Max are the box corners (Min strictly below Max on both
	// axes).
	Min, Max geom.Point
}

// ErrBadRegion is returned (wrapped) for malformed search regions:
// NaN/Inf coordinates, inverted or degenerate boxes, boxes outside the
// search area.
var ErrBadRegion = errors.New("core: bad search region")

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// IsZero reports whether the region is unset.
func (r Region) IsZero() bool { return r == Region{} }

// Validate rejects malformed regions. The zero region is valid (it
// means "no region").
func (r Region) Validate() error {
	if r.IsZero() {
		return nil
	}
	for _, v := range [...]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} {
		if !finite(v) {
			return fmt.Errorf("%w: corner coordinate %v", ErrBadRegion, v)
		}
	}
	if !(r.Max.X > r.Min.X) || !(r.Max.Y > r.Min.Y) {
		return fmt.Errorf("%w: empty or inverted box %v–%v", ErrBadRegion, r.Min, r.Max)
	}
	return nil
}

// clampTo intersects the region's box with [min, max] (the configured
// search area), so an oversized or partly outside box never demands
// more work than a full-area fix. An empty intersection errors.
func (r Region) clampTo(min, max geom.Point) (geom.Point, geom.Point, error) {
	lo := geom.Pt(math.Max(r.Min.X, min.X), math.Max(r.Min.Y, min.Y))
	hi := geom.Pt(math.Min(r.Max.X, max.X), math.Min(r.Max.Y, max.Y))
	if !(hi.X > lo.X) || !(hi.Y > lo.Y) {
		return lo, hi, fmt.Errorf("%w: box %v–%v outside search area", ErrBadRegion, r.Min, r.Max)
	}
	return lo, hi, nil
}
