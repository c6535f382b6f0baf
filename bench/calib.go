package main

import (
	"math"
	"time"
)

// The reference box is a small guest on a shared host, and how fast it
// runs the same code changes by up to a factor of two from one tenth of
// a second to the next and, averaged over a run, by a third from one
// quarter of an hour to the next. Raw times therefore say more about the
// host than about the program, and no run the contract allows is long
// enough to average the host out. So the benchmark measures the host
// alongside the program and reports times "at reference speed". For the
// timed phases that is the yardstick's job (refsys.go). This file holds
// the compute kernel the yardstick's workers run, and calibrate, which
// times the kernel alone on one goroutine: the single-threaded direct
// calls of the ledger pass are divided by it, and so is the set-up. The
// kernel shares no code with the system under test, so no change to the
// system can move it.

// calRef is the kernel's usual time on one core of the reference box:
// the median of seven thousand samples taken over two hours, of which
// the fastest tenth were under 1370 us and the slowest over 2230 us. So
// "at reference speed" reads as the box on an ordinary day.
const calRef = 1550 * time.Microsecond

// calReps is how often calibrate times the kernel; it keeps the fastest,
// which a stolen millisecond cannot touch.
const calReps = 3

// calKernel is a fix in miniature, so that what slows the system slows
// it about as much: dequantize a 9 x 640 capture through a lookup table,
// correlate eight antennas, scan 360 bearings against the correlation
// matrix, then search a 1000-cell grid from six sites by bearing. Table
// look-ups, dense complex arithmetic and branchy libm calls, in a
// working set of a few hundred kilobytes.
type calKernel struct {
	raw   []int16
	lut   []float64
	x     []complex128
	r     [64]complex128
	steer []complex128
	spec  []float64
	sink  float64
}

const (
	calAntennas = 8
	calSamples  = 640
	calBearings = 360
	calCells    = 1000
	calSites    = 6
	calRounds   = 6
)

func newCalKernel() *calKernel {
	k := &calKernel{
		raw:   make([]int16, (calAntennas+1)*calSamples*2),
		lut:   make([]float64, 1<<16),
		x:     make([]complex128, (calAntennas+1)*calSamples),
		steer: make([]complex128, calBearings*calAntennas),
		spec:  make([]float64, calBearings),
	}
	for i := range k.lut {
		k.lut[i] = float64(int16(i)) / 32768
	}
	for i := range k.spec {
		k.spec[i] = 1
	}
	v := uint32(12345)
	for i := range k.raw {
		v = v*1664525 + 1013904223
		k.raw[i] = int16(v >> 16)
	}
	for b := 0; b < calBearings; b++ {
		for a := 0; a < calAntennas; a++ {
			ph := math.Pi * float64(a) * math.Cos(float64(b)*math.Pi/180)
			k.steer[b*calAntennas+a] = complex(math.Cos(ph), math.Sin(ph))
		}
	}
	return k
}

func (k *calKernel) run() {
	for round := 0; round < calRounds; round++ {
		for i := range k.x {
			k.x[i] = complex(k.lut[uint16(k.raw[2*i])], k.lut[uint16(k.raw[2*i+1])])
		}
		for part := 0; part < 4; part++ {
			k.computeQuarter(part)
		}
	}
}

// computeQuarter is a quarter of a round without the dequantizing: the
// given quarter of the samples in k.x, of the bearings and of the grid.
// The yardstick's workers size their jobs in these.
func (k *calKernel) computeQuarter(part int) {
	k.r = [64]complex128{}
	for t := part * calSamples / 4; t < (part+1)*calSamples/4; t++ {
		for i := 0; i < calAntennas; i++ {
			xi := k.x[i*calSamples+t]
			for j := i; j < calAntennas; j++ {
				xj := k.x[j*calSamples+t]
				k.r[i*calAntennas+j] += xi * complex(real(xj), -imag(xj))
			}
		}
	}
	for b := part * calBearings / 4; b < (part+1)*calBearings/4; b++ {
		var p complex128
		s := k.steer[b*calAntennas : (b+1)*calAntennas]
		for i := 0; i < calAntennas; i++ {
			for j := i; j < calAntennas; j++ {
				p += complex(real(s[i]), -imag(s[i])) * k.r[i*calAntennas+j] * s[j]
			}
		}
		k.spec[b] = real(p)*real(p) + imag(p)*imag(p) + 1e-9
	}
	best := math.Inf(-1)
	for c := part * calCells / 4; c < (part+1)*calCells/4; c++ {
		cx, cy := float64(c%40)*0.5, float64(c/40)*0.5
		l := 0.0
		for s := 0; s < calSites; s++ {
			sx, sy := float64(s)*7+1.3, float64(s%2)*11+0.7
			th := math.Atan2(cy-sy, cx-sx)
			l += math.Log(k.spec[int((th+math.Pi)*(180/math.Pi))%calBearings])
		}
		best = math.Max(best, l)
	}
	k.sink += best
}

var theCalKernel = newCalKernel()

// calibrate returns how many times slower than calRef the box runs the
// kernel right now, on the calling goroutine. The caller makes sure the
// system under test is idle.
func calibrate() float64 {
	best := time.Duration(0)
	for rep := 0; rep < calReps; rep++ {
		t0 := time.Now()
		theCalKernel.run()
		if d := time.Since(t0); rep == 0 || d < best {
			best = d
		}
	}
	return float64(best) / float64(calRef)
}
