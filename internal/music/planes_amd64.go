package music

// The AVX2 bodies of planes_amd64.s; its header states each contract.

func cpuHasAVX2() bool

//go:noescape
func planeSumsVec(p []float64, c0 float64, cRe, cIm, re, im []float64, stride int) int

//go:noescape
func musicFinishVec(p []float64, guard, max float64) (n int, m float64)

//go:noescape
func divVec(p []float64, m float64) int

//go:noescape
func voteCombineVec(p, sre, sim, re, im []float64, ree float64) int

//go:noescape
func logVec(dst, src []float64, floor float64) int

//go:noescape
func maxVec(p []float64, m float64) (n int, max float64)
