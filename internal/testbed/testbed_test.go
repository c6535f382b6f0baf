package testbed

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

func TestNewDeterministic(t *testing.T) {
	a := New()
	b := New()
	if len(a.Clients) != 41 {
		t.Fatalf("clients = %d, want 41", len(a.Clients))
	}
	if len(a.Sites) != 6 {
		t.Fatalf("sites = %d, want 6", len(a.Sites))
	}
	for i := range a.Clients {
		if a.Clients[i] != b.Clients[i] {
			t.Fatal("testbed not deterministic")
		}
	}
	for _, c := range a.Clients {
		if !a.Plan.Contains(c) {
			t.Errorf("client %v outside the floor", c)
		}
	}
	for _, s := range a.Sites {
		if !a.Plan.Contains(s.Pos) {
			t.Errorf("site %v outside the floor", s.Pos)
		}
	}
}

func TestCombinations(t *testing.T) {
	cs := Combinations(6, 3)
	if len(cs) != 20 {
		t.Errorf("C(6,3) = %d, want 20", len(cs))
	}
	if len(Combinations(6, 6)) != 1 {
		t.Error("C(6,6) should be 1")
	}
	if Combinations(3, 5) != nil {
		t.Error("C(3,5) should be empty")
	}
	// Each combo strictly increasing and within range.
	for _, c := range cs {
		for i := range c {
			if c[i] < 0 || c[i] >= 6 || (i > 0 && c[i] <= c[i-1]) {
				t.Fatalf("bad combo %v", c)
			}
		}
	}
}

func TestSampleClients(t *testing.T) {
	all := New().Clients
	if got := sampleClients(all, 0); len(got) != len(all) {
		t.Error("max=0 should keep all")
	}
	got := sampleClients(all, 10)
	if len(got) != 10 {
		t.Fatalf("sampled %d", len(got))
	}
	// Spread: first and elements near the end both represented.
	if got[0] != all[0] || got[9] == all[9] {
		t.Error("sampling should stride across the population")
	}
}

func TestCaptureClientShapes(t *testing.T) {
	tb := New()
	rng := rand.New(rand.NewSource(1))
	opt := DefaultCaptureOptions()
	frames := tb.CaptureClient(tb.Clients[10], tb.Sites[0], opt, rng)
	if len(frames) != opt.Frames {
		t.Fatalf("frames = %d", len(frames))
	}
	for _, f := range frames {
		if len(f.Streams) != 9 { // 8 + ninth
			t.Fatalf("streams = %d", len(f.Streams))
		}
		if len(f.Streams[0]) != 640 {
			t.Fatalf("samples = %d", len(f.Streams[0]))
		}
	}
}

func TestEndToEndSingleClient(t *testing.T) {
	tb := New()
	rng := rand.New(rand.NewSource(3))
	opt := DefaultCaptureOptions()
	client := tb.Clients[20]
	aps := tb.APsFor([]int{0, 1, 2, 3, 4, 5}, opt)
	var captures [][]core.FrameCapture
	for _, site := range tb.Sites {
		captures = append(captures, Cut(tb.CaptureClient(client, site, opt, rng)))
	}
	pos, specs, err := core.LocateClient(aps, captures, tb.Plan.Min, tb.Plan.Max, core.DefaultConfig(tb.Wavelength))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("spectra = %d", len(specs))
	}
	if d := pos.Dist(client); d > 1.5 {
		t.Errorf("6-AP location error %.2f m for a mid-floor client", d)
	}
}

func TestRunTable1Shape(t *testing.T) {
	tb := New()
	r, err := tb.RunTable1(20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) != 4 {
		t.Fatalf("table rows = %d", len(r.Lines))
	}
	if !strings.Contains(r.Lines[0], "direct same; reflections changed") {
		t.Errorf("row 0 = %q", r.Lines[0])
	}
}

func TestRunFig7Shape(t *testing.T) {
	tb := New()
	r, err := tb.RunFig7(7)
	if err != nil {
		t.Fatal(err)
	}
	// Header plus NG=1..4.
	if len(r.Lines) != 5 {
		t.Fatalf("lines = %d", len(r.Lines))
	}
	if !strings.Contains(r.String(), "NG=2") {
		t.Error("missing NG=2 row")
	}
}

func TestRunAccuracySmall(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	opt.MaxClients = 6
	opt.MaxCombos = 2
	opt.APCounts = []int{3}
	res, clients, err := tb.RunAccuracy(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(clients) != 6 {
		t.Fatalf("clients = %d", len(clients))
	}
	if got := len(res.ErrorsCM[3]); got != 12 {
		t.Fatalf("errors = %d, want 6 clients × 2 combos", got)
	}
	for _, e := range res.ErrorsCM[3] {
		if e < 0 || e > 5000 {
			t.Errorf("implausible error %v cm", e)
		}
	}
}

// TestSharedDrawMatchesFreshDraws pins the shared draw as read-only: two
// pipeline configs run over one draw's cut frames, the first again after
// the second, must give the == errors each gives over its own fresh
// draw. A stage that writes into its input frames changes what the
// next config reads and fails this.
func TestSharedDrawMatchesFreshDraws(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	opt.MaxClients = 10
	opt.MaxCombos = 4
	opt.APCounts = []int{3, 6}
	unoptimized := func(c *core.Config) { *c = core.UnoptimizedConfig(c.Wavelength) }
	vs := []variant{{name: "full"}, {name: "unoptimized", config: unoptimized}, {name: "full again"}}
	shared, err := tb.runVariants(opt, vs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range []core.Config{core.DefaultConfig(tb.Wavelength), core.UnoptimizedConfig(tb.Wavelength), core.DefaultConfig(tb.Wavelength)} {
		v, fresh := vs[i], opt
		fresh.Pipeline = cfg
		want, _, err := tb.RunAccuracy(fresh)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range opt.APCounts {
			if len(want.ErrorsCM[k]) == 0 {
				t.Fatalf("%s, %d APs: no errors", v.name, k)
			}
			if !slices.Equal(shared[i].ErrorsCM[k], want.ErrorsCM[k]) {
				t.Errorf("%s, %d APs: errors over the shared draw differ from a fresh draw's", v.name, k)
			}
		}
	}
}

func TestRunHeightErrorMatchesClosedForm(t *testing.T) {
	tb := New()
	r, err := tb.RunHeightError()
	if err != nil {
		t.Fatal(err)
	}
	// Both rows must show closed-form and simulated agreeing (the
	// simulator implements exactly the Appendix A geometry).
	out := r.String()
	if !strings.Contains(out, "4.4%") || !strings.Contains(out, "1.1%") {
		t.Errorf("unexpected height error table:\n%s", out)
	}
}

func TestRunCollisionRecoversBoth(t *testing.T) {
	tb := New()
	r, err := tb.RunCollision(22)
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	if !strings.Contains(out, "after SIC") {
		t.Fatalf("missing SIC section:\n%s", out)
	}
}

func TestRunDetectionHighSNRPerfect(t *testing.T) {
	tb := New()
	r, err := tb.RunDetection(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The +10 dB row must show 100% detection.
	if !strings.Contains(r.Lines[1], "100%") {
		t.Errorf("high-SNR detection not perfect: %q", r.Lines[1])
	}
}

func TestReportString(t *testing.T) {
	r := &Report{ID: "x", Title: "y"}
	r.Addf("row %d", 1)
	out := r.String()
	if !strings.Contains(out, "== x: y ==") || !strings.Contains(out, "row 1") {
		t.Errorf("Report.String = %q", out)
	}
}

func TestSitesOrientBroadside(t *testing.T) {
	// Every site's array must face the floor: the centroid of clients
	// should be off-axis (not end-fire) for most sites.
	tb := New()
	var cx, cy float64
	for _, c := range tb.Clients {
		cx += c.X
		cy += c.Y
	}
	centroid := geom.Pt(cx/float64(len(tb.Clients)), cy/float64(len(tb.Clients)))
	for i, s := range tb.Sites {
		off := geom.AngleDiff(s.Pos.Bearing(centroid), s.Orient)
		if off < geom.Rad(20) || off > geom.Rad(160) {
			t.Errorf("site %d nearly end-fire to the floor centroid (%.0f°)", i, geom.Deg(off))
		}
	}
}
