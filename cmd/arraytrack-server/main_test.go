package main

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ops"
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
