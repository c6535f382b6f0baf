package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/geom"
	"repro/internal/music"
)

// likelihoodFloor keeps the product in Eq. 8 finite where a spectrum
// was explicitly zeroed (suppression, symmetry removal): a location is
// penalized heavily, not annihilated, by one dissenting AP.
const likelihoodFloor = 1e-6

// APSpectrum pairs one AP's processed AoA spectrum with the array
// position it was measured at, ready for synthesis.
type APSpectrum struct {
	// Pos is the AP's array reference position.
	Pos geom.Point
	// Spectrum is the processed AoA spectrum P_i(θ).
	Spectrum *music.Spectrum
}

// Likelihood evaluates Eq. 8, L(x) = Π_i P_i(θ_i), where θ_i is the
// bearing from AP i to the candidate position x.
func Likelihood(x geom.Point, aps []APSpectrum) float64 {
	l := 1.0
	for _, ap := range aps {
		p := ap.Spectrum.At(ap.Pos.Bearing(x))
		if p < likelihoodFloor {
			p = likelihoodFloor
		}
		l *= p
	}
	return l
}

// LogLikelihood evaluates Eq. 8 in the log domain, Σ_i log P_i(θ_i),
// with each factor clamped at likelihoodFloor exactly as Likelihood
// clamps it. The log is strictly monotone, so LogLikelihood orders
// candidate positions identically to Likelihood (pinned by
// TestLogLikelihoodPreservesOrdering) while staying finite for any AP
// count — the accumulation the staged synthesis layer (SynthGrid)
// runs over its flat surface.
func LogLikelihood(x geom.Point, aps []APSpectrum) float64 {
	l := 0.0
	for _, ap := range aps {
		p := ap.Spectrum.At(ap.Pos.Bearing(x))
		if p < likelihoodFloor {
			p = likelihoodFloor
		}
		l += math.Log(p)
	}
	return l
}

// LogLikelihoodBins evaluates Eq. 8 in the log domain with the
// synthesis surface's native sub-bin semantics: each AP's
// log-spectrum, log(max(P[b], likelihoodFloor)), is interpolated
// linearly between bins — a geometric interpolation of the spectrum.
// It agrees with LogLikelihood exactly at bin centres and differs
// between them (lerp of logs vs log of a lerp); this is what
// SynthGrid accumulates per cell and scores per hill-climb probe.
// LogLikelihoodBins is the scalar reference path — fresh BinLookup
// and two math.Log per AP per call; the grid's table-driven probe
// scorer reproduces it bit for bit (TestHillClimbTabsMatchesScalar).
func LogLikelihoodBins(x geom.Point, aps []APSpectrum) float64 {
	l := 0.0
	for _, ap := range aps {
		n := ap.Spectrum.Bins()
		b, f := music.BinLookup(ap.Pos.Bearing(x), n)
		j := b + 1
		if j == n {
			j = 0
		}
		pb, pj := ap.Spectrum.P[b], ap.Spectrum.P[j]
		if pb < likelihoodFloor {
			pb = likelihoodFloor
		}
		if pj < likelihoodFloor {
			pj = likelihoodFloor
		}
		l += math.Log(pb)*(1-f) + math.Log(pj)*f
	}
	return l
}

// Heatmap is a sampled likelihood surface over a rectangle, the
// structure rendered in Figure 14. Values live in one flat row-major
// array (Flat) with per-row views (Vals) over it; surfaces from
// SynthGrid.LogHeatmapInto hold log-likelihoods (≤ 0) instead of raw
// products, which every consumer here treats equivalently since the
// log is monotone.
type Heatmap struct {
	// Min is the corner of cell (0,0); Cell is the spacing in metres.
	Min  geom.Point
	Cell float64
	// Nx, Ny are the cell counts along each axis.
	Nx, Ny int
	// Flat is the row-major backing array: cell (ix, iy) is
	// Flat[iy*Nx+ix].
	Flat []float64
	// Vals[iy][ix] is the value at (Min.X + ix·Cell, Min.Y + iy·Cell),
	// a view over Flat.
	Vals [][]float64
}

// reshape sizes the heatmap for spec, reusing the backing array and
// row views when the shape already matches.
func (h *Heatmap) reshape(spec GridSpec) {
	h.Min, h.Cell = spec.Origin(), spec.Cell
	if h.Nx == spec.Nx && h.Ny == spec.Ny && len(h.Flat) == spec.Cells() {
		return
	}
	h.Nx, h.Ny = spec.Nx, spec.Ny
	h.Flat = make([]float64, spec.Cells())
	h.Vals = make([][]float64, spec.Ny)
	for iy := 0; iy < spec.Ny; iy++ {
		h.Vals[iy] = h.Flat[iy*spec.Nx : (iy+1)*spec.Nx : (iy+1)*spec.Nx]
	}
}

// ComputeHeatmap evaluates the likelihood on a grid with the given cell
// size (the paper uses 10 cm). This is the serial product-domain
// oracle, and Figure 14's renderer; the staged SynthGrid reproduces its
// argmax with cached bearing LUTs at a fraction of the cost.
func ComputeHeatmap(aps []APSpectrum, min, max geom.Point, cell float64) (*Heatmap, error) {
	spec, err := GridSpecFor(min, max, cell)
	if err != nil {
		return nil, err
	}
	h := &Heatmap{}
	h.reshape(spec)
	for iy := 0; iy < spec.Ny; iy++ {
		for ix := 0; ix < spec.Nx; ix++ {
			h.Vals[iy][ix] = Likelihood(h.CellCenter(ix, iy), aps)
		}
	}
	return h, nil
}

// CellCenter returns the position of cell (ix, iy).
func (h *Heatmap) CellCenter(ix, iy int) geom.Point {
	return geom.Pt(h.Min.X+float64(ix)*h.Cell, h.Min.Y+float64(iy)*h.Cell)
}

// TopCells returns the k highest-likelihood cell positions, best first.
func (h *Heatmap) TopCells(k int) []geom.Point {
	type cell struct {
		v      float64
		ix, iy int
	}
	var best []cell
	for iy := range h.Vals {
		for ix, v := range h.Vals[iy] {
			if len(best) < k {
				best = append(best, cell{v, ix, iy})
				for j := len(best) - 1; j > 0 && best[j].v > best[j-1].v; j-- {
					best[j], best[j-1] = best[j-1], best[j]
				}
				continue
			}
			if v > best[k-1].v {
				best[k-1] = cell{v, ix, iy}
				for j := k - 1; j > 0 && best[j].v > best[j-1].v; j-- {
					best[j], best[j-1] = best[j-1], best[j]
				}
			}
		}
	}
	out := make([]geom.Point, len(best))
	for i, c := range best {
		out[i] = h.CellCenter(c.ix, c.iy)
	}
	return out
}

// ASCII renders the heatmap as text (one character per cell, darker =
// more likely), with optional marks drawn at given positions. Row 0 of
// the output is the maximum-Y edge so the picture reads like a map.
func (h *Heatmap) ASCII(marks map[byte]geom.Point) string {
	shades := []byte(" .:-=+*#%@")
	// Linear-domain surfaces shade by v/max (lo stays anchored at 0); a
	// log-domain surface (negative values) is
	// shifted so its full span maps onto the same ramp.
	lo, max := 0.0, math.Inf(-1)
	for _, row := range h.Vals {
		for _, v := range row {
			if v > max {
				max = v
			}
			if v < lo {
				lo = v
			}
		}
	}
	span := max - lo
	if span <= 0 {
		span = 1
	}
	var b strings.Builder
	for iy := len(h.Vals) - 1; iy >= 0; iy-- {
		row := make([]byte, len(h.Vals[iy]))
		for ix, v := range h.Vals[iy] {
			s := int((v - lo) / span * float64(len(shades)-1))
			row[ix] = shades[s]
		}
		for ch, p := range marks {
			ix := int(math.Round((p.X - h.Min.X) / h.Cell))
			my := int(math.Round((p.Y - h.Min.Y) / h.Cell))
			if my == iy && ix >= 0 && ix < len(row) {
				row[ix] = ch
			}
		}
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// Localize runs the §2.5 estimator as the paper states it: grid search
// at the given cell size over [min,max], then hill climbing from the
// three best cells, returning the maximum-likelihood position and the
// grid. It is the oracle the staged subsystem (SynthGrid, what
// Pipeline.Synthesize runs) is tested against; no pipeline calls it.
func Localize(aps []APSpectrum, min, max geom.Point, cell float64) (geom.Point, *Heatmap, error) {
	if len(aps) == 0 {
		return geom.Point{}, nil, errors.New("core: no AP spectra to synthesize")
	}
	h, err := ComputeHeatmap(aps, min, max, cell)
	if err != nil {
		return geom.Point{}, nil, err
	}
	best := geom.Point{}
	bestL := math.Inf(-1)
	for _, seed := range h.TopCells(3) {
		p, l := hillClimb(seed, aps, cell, min, max)
		if l > bestL {
			best, bestL = p, l
		}
	}
	return best, h, nil
}

// hillClimb refines a position by compass pattern search on the
// likelihood surface, shrinking the step from one cell down to 1 cm.
func hillClimb(start geom.Point, aps []APSpectrum, step float64, min, max geom.Point) (geom.Point, float64) {
	return hillClimbFn(start, aps, step, min, max, Likelihood)
}

// hillClimbFn is the compass search over any likelihood score:
// product-domain Likelihood for Localize, and the scalar log-surface
// scores the table-driven climbs are tested against.
func hillClimbFn(start geom.Point, aps []APSpectrum, step float64, min, max geom.Point, score func(geom.Point, []APSpectrum) float64) (geom.Point, float64) {
	cur := start
	curL := score(cur, aps)
	for step > 0.01 {
		improved := false
		for _, d := range [4]geom.Vec{{X: step}, {X: -step}, {Y: step}, {Y: -step}} {
			cand := cur.Add(d)
			if cand.X < min.X || cand.X > max.X || cand.Y < min.Y || cand.Y > max.Y {
				continue
			}
			if l := score(cand, aps); l > curL {
				cur, curL = cand, l
				improved = true
			}
		}
		if !improved {
			step /= 2
		}
	}
	return cur, curL
}

// String summarizes the heatmap dimensions.
func (h *Heatmap) String() string {
	ny := len(h.Vals)
	nx := 0
	if ny > 0 {
		nx = len(h.Vals[0])
	}
	return fmt.Sprintf("heatmap %d×%d @ %.2f m from %v", nx, ny, h.Cell, h.Min)
}
