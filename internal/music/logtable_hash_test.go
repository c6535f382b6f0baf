package music_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/music"
	"repro/internal/testbed"
)

// TestLogTablesHashOnTestbedSpectra hashes every bit of the log tables
// of the testbed's 246 combined per-AP spectra (41 clients × 6 sites, at
// synthesis's 1e-6 floor) three ways: the clamp-then-math.Log loop, and
// PaddedLogValues under the Go bodies and under the machine's. One hash,
// logged so that it can be compared across commits.
func TestLogTablesHashOnTestbedSpectra(t *testing.T) {
	tb := testbed.New()
	opt := testbed.DefaultAccuracyOptions()
	specs, err := tb.Draw(opt).Spectra(opt.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	const floor = 1e-6
	hash := func(table func(s *music.Spectrum) []float64) string {
		h, n := sha256.New(), 0
		var word [8]byte
		for _, row := range specs {
			for _, s := range row {
				for _, v := range table(s) {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
					h.Write(word[:])
				}
				n++
			}
		}
		if n != 246 {
			t.Fatalf("%d spectra, want the testbed's 246", n)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	want := hash(func(s *music.Spectrum) []float64 {
		tab := make([]float64, s.Bins()+1)
		for i, v := range s.P {
			tab[i] = math.Log(math.Max(v, floor))
		}
		tab[s.Bins()] = tab[0]
		return tab
	})
	padded := func(s *music.Spectrum) []float64 { return s.PaddedLogValues(nil, floor) }
	restore := music.UseGoKernels()
	generic := hash(padded)
	restore()
	if own := hash(padded); generic != want || own != want {
		t.Fatalf("log tables differ: math.Log loop %s, Go bodies %s, %s bodies %s", want, generic, music.Kernels(), own)
	}
	t.Logf("SHA-256 of the 246 log tables, math.Log loop == Go bodies == %s bodies: %s", music.Kernels(), want)
}
