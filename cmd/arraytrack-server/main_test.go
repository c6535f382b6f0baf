package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/music"
	"repro/internal/ops"
	"repro/internal/server"
)

// TestKnobsFileRefusesUnknownKey: a knobs file naming a key no knob
// has — a misspelling, or the retired age_limit_ms or shed_after_ms —
// is refused whole: applyKnobsFile returns an error naming the key
// (main exits on it at start-up, logs it on SIGHUP) and not even the
// file's valid knobs apply, as POST /knobs refuses the same document.
func TestKnobsFileRefusesUnknownKey(t *testing.T) {
	eng := newEngine(1, core.Config{Wavelength: 0.1225, GridCell: 0.5}, nil)
	defer eng.Close()
	srv := &ops.Server{Engine: eng}

	dir := t.TempDir()
	for _, key := range []string{"age_limit_ms", "shed_after_ms", "clint_quota"} {
		path := writeKnobs(t, dir, key, `{"client_quota": 4, "`+key+`": 100}`)
		err := applyKnobsFile(srv, path)
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Errorf("%s: error %v does not name the refused key", key, err)
		}
		if q := eng.ClientQuota(); q != 16 {
			t.Errorf("%s: client quota %d after a refused file, want 16 unchanged", key, q)
		}
	}
	if err := applyKnobsFile(srv, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a knobs file that cannot be read returned no error")
	}

	// The same file without the stray key applies.
	if err := applyKnobsFile(srv, writeKnobs(t, dir, "good", `{"client_quota": 4}`)); err != nil {
		t.Fatal(err)
	}
	if q := eng.ClientQuota(); q != 4 {
		t.Fatalf("client quota %d after a valid file, want 4", q)
	}
}

// TestKnobsFileSetsEachLiveValue: the knobs document is the one way to
// set the five live values that once had start-up flags. For each
// deleted flag, one start-up document reproduces its non-default
// effect on the engine newEngine builds, and leaves the other four at
// their defaults.
func TestKnobsFileSetsEachLiveValue(t *testing.T) {
	for _, tc := range []struct {
		flag, doc string
		set       func(k *ops.Knobs)
	}{
		{"-synth-cache-budget 1048576", `{"synth_cache_budget": 1048576}`,
			func(k *ops.Knobs) { *k.SynthCacheBudget = 1 << 20 }},
		{"-steering-cache-budget 0", `{"steering_cache_budget": 0}`,
			func(k *ops.Knobs) { *k.SteeringCacheBudget = 0 }},
		{"-client-quota 8", `{"client_quota": 8}`,
			func(k *ops.Knobs) { *k.ClientQuota = 8 }},
		{"-predict=false", `{"predict_sigma": -1}`,
			func(k *ops.Knobs) { *k.PredictSigma = 0 }},
		{"-predict-sigma 6", `{"predict_sigma": 6}`,
			func(k *ops.Knobs) { *k.PredictSigma = 6 }},
		{"-track-ttl 5s", `{"track_ttl_ms": 5000}`,
			func(k *ops.Knobs) { *k.TrackTTLMillis = 5000 }},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			cfg := core.Config{Wavelength: 0.1225, GridCell: 0.5,
				SynthCache: core.NewSynthCache(core.DefaultSynthCacheBudget),
				Steering:   music.NewSteeringCache(music.DefaultSteeringCacheBudget)}
			eng := newEngine(1, cfg, engine.NewTracker(engine.TrackerOptions{}))
			defer eng.Close()
			srv := &ops.Server{Engine: eng}

			want := srv.Current()
			if got := knobsJSON(t, want); got != noFlagKnobs {
				t.Fatalf("defaults %s, want %s", got, noFlagKnobs)
			}
			tc.set(&want)
			if err := applyKnobsFile(srv, writeKnobs(t, t.TempDir(), "knobs", tc.doc)); err != nil {
				t.Fatal(err)
			}
			if got := knobsJSON(t, srv.Current()); got != knobsJSON(t, want) {
				t.Fatalf("live knobs %s, want %s", got, knobsJSON(t, want))
			}
		})
	}
}

// noFlagKnobs is GET /knobs of a server started with no flags and no
// knobs file.
const noFlagKnobs = `{"synth_cache_budget":268435456,"steering_cache_budget":33554432,` +
	`"client_quota":16,"predict_sigma":4,"track_ttl_ms":30000}`

func knobsJSON(t *testing.T, k ops.Knobs) string {
	t.Helper()
	b, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func writeKnobs(t *testing.T, dir, name, doc string) string {
	t.Helper()
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
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
