package music

import "repro/internal/mat"

// The eigen split's internals, for the external tests that need
// internal/testbed's matrices (testbed imports this package, so they
// cannot live inside it).

// NoiseVectors is noiseVectors.
func NoiseVectors(ws *Workspace, r *mat.Matrix, thresholdFrac float64, maxD int) (*mat.Matrix, error) {
	return noiseVectors(ws, r, thresholdFrac, maxD)
}

// RealEig is realEig: the ascending eigenvalues through the real form,
// or ok false when r does not qualify for it.
func RealEig(ws *Workspace, r *mat.Matrix) (vals []float64, ok bool) { return realEig(ws, r) }

// UseGoKernels switches the bin-parallel loops of packed.go and music.go
// to their Go bodies alone — what a machine without AVX2 runs — and
// returns the call that puts the machine's own set back. Tests only: the set is a
// property of the CPU, not a setting.
func UseGoKernels() (restore func()) {
	was := useAVX2
	useAVX2 = false
	return func() { useAVX2 = was }
}
