package core

import (
	"testing"

	"repro/internal/geom"
)

// cleanScene builds APs with a single Gaussian lobe at the true
// bearing to the client — no clutter, so the likelihood surface has
// one basin and boundary behaviour is deterministic.
func cleanScene(client geom.Point) []APSpectrum {
	positions := []geom.Point{
		geom.Pt(0.5, 0.5), geom.Pt(39.5, 0.7), geom.Pt(39.3, 15.5), geom.Pt(0.6, 15.2),
	}
	aps := make([]APSpectrum, len(positions))
	for i, pos := range positions {
		aps[i] = APSpectrum{Pos: pos, Spectrum: gaussSpectrum(
			[]float64{geom.Deg(pos.Bearing(client))}, []float64{1})}
	}
	return aps
}

// TestRegionInteriorReporting pins the region-border semantics the
// predictive path relies on (satellite: a region argmax on a boundary
// cell must report non-interior so the caller falls back):
//
//   - target well inside the region → interior;
//   - target just outside the region → the restricted argmax hugs the
//     facing border cell → non-interior;
//   - target on a region side flush with the full search area →
//     interior (the area ends there; nothing lies beyond), unless the
//     argmax also touches an open side.
func TestRegionInteriorReporting(t *testing.T) {
	min, max := synthBounds()
	cache := NewSynthCache(0)
	mk := func(region Region) *SynthGrid {
		t.Helper()
		sg, err := NewSynthGridRegion(min, max, region, SynthOptions{
			Cell: 0.10, Workers: 1, Cache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sg
	}

	inside := geom.Pt(20, 8)
	sg := mk(Region{Min: geom.Pt(16, 5), Max: geom.Pt(24, 11)})
	pos, interior, err := sg.LocalizeInterior(cleanScene(inside))
	if err != nil {
		t.Fatal(err)
	}
	if !interior {
		t.Fatalf("target %v centred in the region reported non-interior (pos %v)", inside, pos)
	}
	if pos.Dist(inside) > 1.0 {
		t.Fatalf("clean-scene fix %v far from target %v", pos, inside)
	}

	// Target 4 m left of the region: the restricted maximum lands on
	// the region's left border column.
	sg = mk(Region{Min: geom.Pt(24, 4), Max: geom.Pt(32, 12)})
	_, interior, err = sg.LocalizeInterior(cleanScene(inside))
	if err != nil {
		t.Fatal(err)
	}
	if interior {
		t.Fatal("target outside the region reported interior — border fallback would never fire")
	}

	// Near-wall client, region flush with the floor's bottom edge: the
	// argmax sits on the flush (closed) side but inside on x, so the
	// fix is trustworthy and must report interior.
	wall := geom.Pt(20, 0.05)
	sg = mk(Region{Min: geom.Pt(16, 0), Max: geom.Pt(24, 3)})
	_, interior, err = sg.LocalizeInterior(cleanScene(wall))
	if err != nil {
		t.Fatal(err)
	}
	if !interior {
		t.Fatal("argmax on a side flush with the search area must count as interior")
	}

	// Same flush region, but the target escapes through an open side:
	// non-interior again.
	farRight := geom.Pt(30, 0.05)
	_, interior, err = sg.LocalizeInterior(cleanScene(farRight))
	if err != nil {
		t.Fatal(err)
	}
	if interior {
		t.Fatal("argmax on the open right side of a flush region must report non-interior")
	}
}

// TestSynthesizeRegionInterior runs the border cases through the
// pipeline entry point, plus the one only it can see: the zero region.
func TestSynthesizeRegionInterior(t *testing.T) {
	min, max := synthBounds()
	p := NewPipeline(Config{Wavelength: lambda, GridCell: 0.10, SynthCache: NewSynthCache(0)})

	cases := []struct {
		name   string
		client geom.Point
		region Region
		want   bool
	}{
		{"inside", geom.Pt(20, 8), Region{Min: geom.Pt(16, 5), Max: geom.Pt(24, 11)}, true},
		{"outside-left", geom.Pt(20, 8), Region{Min: geom.Pt(24, 4), Max: geom.Pt(32, 12)}, false},
		{"flush-wall", geom.Pt(20, 0.05), Region{Min: geom.Pt(16, 0), Max: geom.Pt(24, 3)}, true},
	}
	for _, tc := range cases {
		_, interior, err := p.SynthesizeRegionInterior(cleanScene(tc.client), min, max, tc.region)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if interior != tc.want {
			t.Fatalf("%s: interior = %v, want %v", tc.name, interior, tc.want)
		}
	}
	// A zero region is the full area: always interior.
	_, interior, err := p.SynthesizeRegionInterior(cleanScene(geom.Pt(3, 3)), min, max, Region{})
	if err != nil || !interior {
		t.Fatalf("zero region: interior=%v err=%v, want true/nil", interior, err)
	}
}
