package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ops"
	"repro/internal/server"
)

// TestKnobsFileRefusesUnknownKey: a knobs file naming a key no knob
// has — a misspelling, or the retired age_limit_ms — is refused whole:
// the refusal is logged and not even the file's valid knobs apply, as
// POST /knobs refuses the same document.
func TestKnobsFileRefusesUnknownKey(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, ClientQuota: 16,
		Config: core.Config{Wavelength: 0.1225, GridCell: 0.5}})
	defer eng.Close()
	srv := &ops.Server{Engine: eng}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	dir := t.TempDir()
	for _, key := range []string{"age_limit_ms", "clint_quota"} {
		logged.Reset()
		path := filepath.Join(dir, key+".json")
		if err := os.WriteFile(path, []byte(`{"client_quota": 4, "`+key+`": 100}`), 0o600); err != nil {
			t.Fatal(err)
		}
		applyKnobsFile(srv, path)
		if out := logged.String(); !strings.Contains(out, `unknown field "`+key+`"`) {
			t.Errorf("%s: log %q does not name the refused key", key, out)
		}
		if q := eng.ClientQuota(); q != 16 {
			t.Errorf("%s: client quota %d after a refused file, want 16 unchanged", key, q)
		}
	}

	// The same file without the stray key applies.
	path := filepath.Join(dir, "good.json")
	if err := os.WriteFile(path, []byte(`{"client_quota": 4}`), 0o600); err != nil {
		t.Fatal(err)
	}
	applyKnobsFile(srv, path)
	if q := eng.ClientQuota(); q != 4 {
		t.Fatalf("client quota %d after a valid file, want 4", q)
	}
}

// TestDegradedSweepPeriodPositive: every -degraded-after value resolves
// to the age the backend uses and to a positive sweep period, so the
// janitor's ticker cannot panic at startup (0 and −1s used to tick at
// ≤ 0, as did 1ns).
func TestDegradedSweepPeriodPositive(t *testing.T) {
	for _, tc := range []struct {
		after, resolved, period time.Duration
	}{
		{0, server.DefaultDegradedAfter, server.DefaultDegradedAfter / 2},
		{-time.Second, server.DefaultDegradedAfter, server.DefaultDegradedAfter / 2},
		{time.Nanosecond, time.Nanosecond, time.Millisecond},
		{500 * time.Millisecond, 500 * time.Millisecond, 250 * time.Millisecond},
	} {
		resolved, period := degradedSweep(tc.after)
		if resolved != tc.resolved || period != tc.period {
			t.Errorf("degradedSweep(%v) = %v, %v; want %v, %v", tc.after, resolved, period, tc.resolved, tc.period)
		}
		time.NewTicker(period).Stop() // panics on a period ≤ 0
	}
}
