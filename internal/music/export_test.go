package music

import (
	"math/rand"

	"repro/internal/mat"
)

// Internals for the external tests that need internal/testbed's frames
// (testbed imports this package, so they cannot live inside it).

// NoiseSubspace is noiseSubspace: the noise subspace of the first n
// elements of a frame's snapshots, as MUSICEstimator scans it.
func NoiseSubspace(ws *Workspace, snaps [][]complex128, n int, opt Options) (*mat.Matrix, error) {
	return noiseSubspace(ws, snaps, n, opt)
}

// RealForm is realForm: the upper triangle of the real symmetric
// (n−ng+1)-order matrix built from the snapshots, row-major in storage
// ws owns.
func RealForm(ws *Workspace, snaps [][]complex128, n, ng int) ([]float64, error) {
	err := realForm(ws, snaps, n, ng)
	return ws.sym, err
}

// UseGoKernels switches the bin-parallel loops of packed.go and music.go
// to their Go bodies alone — what a machine without AVX2 runs — and
// returns the call that puts the machine's own set back. Tests only: the set is a
// property of the CPU, not a setting.
func UseGoKernels() (restore func()) {
	was := useAVX2
	useAVX2 = false
	return func() { useAVX2 = was }
}

// PeaksRef is peaksRef, the reference peak finder.
func PeaksRef(s *Spectrum, minRel float64) []Peak { return peaksRef(s, minRel) }

// RandomSpectrum is randomSpectrum: n bins uniform in [0, 10).
func RandomSpectrum(n int, rng *rand.Rand) *Spectrum { return randomSpectrum(n, rng) }
