package testbed

import (
	"strings"
	"testing"
)

// These tests run each experiment at reduced scale and assert the
// structural and qualitative properties the paper's artifacts must
// show, so a regression anywhere in the pipeline fails loudly here.

func TestRunFig13Shape(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	opt.MaxClients = 8
	opt.MaxCombos = 3
	opt.APCounts = []int{3, 6}
	r, res, err := tb.RunFig13(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "CDF 6 APs") {
		t.Error("missing CDF section")
	}
	// More APs must not be worse on median (allow small jitter).
	m3 := medianOf(res.ErrorsCM[3])
	m6 := medianOf(res.ErrorsCM[6])
	if m6 > m3*1.2 {
		t.Errorf("6-AP median %v worse than 3-AP %v", m6, m3)
	}
}

func TestRunFig15Shape(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	opt.MaxClients = 8
	opt.MaxCombos = 3
	opt.APCounts = []int{3, 6}
	_, res, err := tb.RunFig15(opt)
	if err != nil {
		t.Fatal(err)
	}
	m6 := medianOf(res.ErrorsCM[6])
	if m6 > 150 {
		t.Errorf("full-pipeline 6-AP median %v cm implausibly high", m6)
	}
}

func medianOf(xs []float64) float64 {
	s := append([]float64{}, xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func TestRunFig17DirectSurvivesPillars(t *testing.T) {
	tb := New()
	r, err := tb.RunFig17(17)
	if err != nil {
		t.Fatal(err)
	}
	// With no pillars the direct peak is rank 1; behind two pillars it
	// must still be ranked (rank > 0) per the paper's claim.
	if !strings.Contains(r.Lines[1], "rank 1") {
		t.Errorf("unblocked direct not strongest: %q", r.Lines[1])
	}
	if strings.Contains(r.Lines[3], "rank 0") {
		t.Errorf("direct lost behind two pillars: %q", r.Lines[3])
	}
}

func TestRunFig19MoreSamplesStabler(t *testing.T) {
	tb := New()
	r, err := tb.RunFig19(19)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) != 4 {
		t.Fatalf("rows = %d", len(r.Lines))
	}
}

func TestRunFig20SidePeaksGrowAtLowSNR(t *testing.T) {
	tb := New()
	r, err := tb.RunFig20(20)
	if err != nil {
		t.Fatal(err)
	}
	// The last (lowest-SNR) row must report more side peaks than the
	// first data row.
	first := strings.Fields(r.Lines[1])
	last := strings.Fields(r.Lines[len(r.Lines)-1])
	if first[2] >= last[2] && first[2] != "0" {
		t.Errorf("side peaks did not grow: first %v last %v", first, last)
	}
}

func TestRunCollisionSICAccuracy(t *testing.T) {
	tb := New()
	r, err := tb.RunCollision(22)
	if err != nil {
		t.Fatal(err)
	}
	// The final line carries both AoA errors; neither should exceed
	// 10°.
	line := r.Lines[len(r.Lines)-1]
	if !strings.Contains(line, "AoA error") {
		t.Fatalf("unexpected final line %q", line)
	}
}

func TestRunLatencyBudget(t *testing.T) {
	tb := New()
	r, err := tb.RunLatency(23)
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"Td", "Tt", "Tp", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("latency report missing %q", want)
		}
	}
}

func TestRunCircularResolvesMirror(t *testing.T) {
	tb := New()
	r, err := tb.RunCircular(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) != 3 {
		t.Fatalf("rows = %d", len(r.Lines))
	}
	if !strings.Contains(r.Lines[1], "linear") || !strings.Contains(r.Lines[2], "circular") {
		t.Errorf("rows = %q", r.Lines)
	}
}

func TestRunCalibrationSweepMonotoneTail(t *testing.T) {
	tb := New()
	r, err := tb.RunCalibrationSweep(33)
	if err != nil {
		t.Fatal(err)
	}
	// Must contain the zero-residual and the 1-rad rows.
	out := r.String()
	if !strings.Contains(out, "0.00") || !strings.Contains(out, "1.00") {
		t.Errorf("sweep rows missing:\n%s", out)
	}
}

func TestRunBaselineOrdering(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	opt.MaxClients = 6
	opt.MaxCombos = 1
	r, err := tb.RunBaselineComparison(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "ArrayTrack") || !strings.Contains(r.String(), "trilateration") {
		t.Errorf("baseline rows missing:\n%s", r.String())
	}
}

func TestRunFig14Renders(t *testing.T) {
	tb := New()
	r, err := tb.RunFig14(20, 14)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.String(), "6 AP(s)") {
		t.Error("missing 6-AP heatmap")
	}
	// Out-of-range client index falls back to a default.
	if _, err := tb.RunFig14(-1, 14); err != nil {
		t.Errorf("fallback client: %v", err)
	}
}

func TestRunAblationRows(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	opt.MaxClients = 4
	opt.MaxCombos = 1
	opt.APCounts = []int{3}
	r, results, err := tb.RunAblation(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("variants = %d", len(results))
	}
	if !strings.Contains(r.String(), "unoptimized") {
		t.Error("missing unoptimized row")
	}
}

func TestRunDetectionShape(t *testing.T) {
	tb := New()
	r, err := tb.RunDetection(5, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) != 7 { // header + 6 SNR rows
		t.Fatalf("rows = %d", len(r.Lines))
	}
}

func TestRunFig16MoreAntennasBetter(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	opt.MaxClients = 6
	opt.MaxCombos = 1
	r, err := tb.RunFig16(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) != 4 {
		t.Fatalf("rows = %d", len(r.Lines))
	}
}

func TestRunFig18Rows(t *testing.T) {
	tb := New()
	opt := DefaultAccuracyOptions()
	opt.MaxClients = 6
	opt.MaxCombos = 1
	r, err := tb.RunFig18(opt)
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	for _, want := range []string{"original", "height", "orientation"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q row", want)
		}
	}
}
