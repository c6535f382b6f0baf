//go:build !amd64

package music

// No vector bodies here: zero bins taken leaves every bin to the calling Go loop.

func cpuHasAVX2() bool { return false }

func planeSumsVec(p []float64, c0 float64, cRe, cIm, re, im []float64, stride int) int { return 0 }

func musicFinishVec(p []float64, guard, max float64) (n int, m float64) { return 0, max }

func divVec(p []float64, m float64) int { return 0 }

func voteCombineVec(p, sre, sim, re, im []float64, ree float64) int { return 0 }

func logVec(dst, src []float64, floor float64) int { return 0 }

func maxVec(p []float64, m float64) (n int, max float64) { return 0, m }
