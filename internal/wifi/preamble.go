// Package wifi models the parts of 802.11a/g that ArrayTrack touches:
// the OFDM PLCP preamble (ten short training symbols, guard interval,
// two long training symbols — Figure 2 of the paper), frame air-time,
// and the 20→40 Msps sample-rate conversion performed by the WARP
// front ends.
package wifi

import (
	"math"
	"slices"
	"sync"

	"repro/internal/dsp"
)

// Physical-layer constants for 2.4 GHz 802.11g OFDM.
const (
	// CarrierHz is the RF carrier frequency.
	CarrierHz = 2.447e9 // channel 8, mid-band
	// SpeedOfLight in m/s.
	SpeedOfLight = 299792458.0
	// BasebandRate is the native OFDM sample rate (20 Msps).
	BasebandRate = 20e6
	// WARPRate is the AP front-end sampling rate (40 Msps), as in §2.1.
	WARPRate = 40e6
	// NFFT is the OFDM FFT size.
	NFFT = 64
	// ShortSymbolSamples is the length of one short training symbol at
	// 20 Msps (0.8 µs).
	ShortSymbolSamples = 16
	// LongSymbolSamples is the length of one long training symbol at
	// 20 Msps (3.2 µs).
	LongSymbolSamples = 64
	// GuardSamples is the long-preamble guard interval at 20 Msps
	// (1.6 µs = two short symbols).
	GuardSamples = 32
	// NumShortSymbols is the count of repeated short training symbols
	// (s0…s9 in Figure 2).
	NumShortSymbols = 10
)

// Wavelength returns the carrier wavelength in metres (≈12.25 cm at
// 2.447 GHz; the paper's λ/2 antenna spacing of 6.13 cm matches).
func Wavelength() float64 { return SpeedOfLight / CarrierHz }

// shortSeq is the frequency-domain short training sequence S_{-26..26}
// from IEEE 802.11-2012 §18.3.3, scaled by sqrt(13/6). Index 0 here is
// subcarrier -26.
func shortSeq() []complex128 {
	s := math.Sqrt(13.0 / 6.0)
	p := complex(s, s)
	m := complex(-s, -s)
	seq := make([]complex128, 53)
	// Non-zero entries at subcarriers ±{4,8,12,16,20,24} and -26? No:
	// the standard places them at -24,-20,-16,-12,-8,-4,4,8,12,16,20,24.
	set := func(k int, v complex128) { seq[k+26] = v }
	set(-24, p)
	set(-20, m)
	set(-16, p)
	set(-12, m)
	set(-8, m)
	set(-4, p)
	set(4, m)
	set(8, m)
	set(12, p)
	set(16, p)
	set(20, p)
	set(24, p)
	return seq
}

// longSeq is the frequency-domain long training sequence L_{-26..26}
// from IEEE 802.11-2012 §18.3.3.
func longSeq() []complex128 {
	vals := []float64{
		1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1, 1, 1, -1, -1, 1, 1, -1,
		1, -1, 1, 1, 1, 1, // subcarriers -26..-1
		0, // DC
		1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1, -1, 1, 1, -1, -1,
		1, -1, 1, -1, 1, 1, 1, 1, // subcarriers 1..26
	}
	seq := make([]complex128, 53)
	for i, v := range vals {
		seq[i] = complex(v, 0)
	}
	return seq
}

// timeDomain converts a 53-entry frequency-domain sequence (subcarriers
// -26..26) into one 64-sample time-domain OFDM symbol at 20 Msps.
func timeDomain(seq []complex128) []complex128 {
	bins := make([]complex128, NFFT)
	for k := -26; k <= 26; k++ {
		v := seq[k+26]
		if k >= 0 {
			bins[k] = v
		} else {
			bins[NFFT+k] = v
		}
	}
	return dsp.IFFT(bins)
}

// ShortSymbol returns one 16-sample short training symbol at 20 Msps.
// The 64-point IFFT of the short sequence is periodic with period 16,
// so the symbol is its first quarter.
func ShortSymbol() []complex128 {
	td := timeDomain(shortSeq())
	out := make([]complex128, ShortSymbolSamples)
	copy(out, td[:ShortSymbolSamples])
	return out
}

// LongSymbol returns one 64-sample long training symbol at 20 Msps.
func LongSymbol() []complex128 {
	return timeDomain(longSeq())
}

// Preamble returns the full 802.11 OFDM PLCP preamble at 20 Msps:
// ten short training symbols (8 µs), the long guard interval (1.6 µs),
// and two long training symbols (6.4 µs) — 320 samples, 16 µs. The
// output is scaled to unit mean power, the normalization the channel
// simulator's TxPowerDBm accounting assumes.
func Preamble() []complex128 {
	short := ShortSymbol()
	long := LongSymbol()
	out := make([]complex128, 0, NumShortSymbols*ShortSymbolSamples+GuardSamples+2*LongSymbolSamples)
	for i := 0; i < NumShortSymbols; i++ {
		out = append(out, short...)
	}
	// The guard interval is a cyclic prefix: the last 32 samples of the
	// long symbol.
	out = append(out, long[LongSymbolSamples-GuardSamples:]...)
	out = append(out, long...)
	out = append(out, long...)
	scale := complex(1/math.Sqrt(dsp.Power(out)), 0)
	for i := range out {
		out[i] *= scale
	}
	return out
}

// Preamble40 returns the preamble resampled to the 40 Msps WARP
// front-end rate (640 samples). The resampling runs once per process;
// every call returns a fresh copy the caller may write.
func Preamble40() []complex128 {
	return slices.Clone(preamble40())
}

var preamble40 = sync.OnceValue(func() []complex128 { return dsp.Upsample(Preamble(), 2) })

// LongSymbolOffsets40 returns the sample offsets, at 40 Msps, of the
// first samples of long training symbols S0 and S1 within Preamble40.
// Diversity synthesis (§2.2) records S0 on the upper antenna set and S1
// on the lower set.
func LongSymbolOffsets40() (s0, s1 int) {
	base := NumShortSymbols*ShortSymbolSamples + GuardSamples
	return 2 * base, 2 * (base + LongSymbolSamples)
}

// PreambleDuration is the preamble air time (16 µs).
const PreambleDuration = 16e-6

// AirTime returns the time on air of a frame of the given payload size
// at the given bit rate, including the 16 µs preamble and 4 µs PLCP
// header (§4.4's T term: ~222 µs for 1500 B at 54 Mbit/s, ~12 ms at
// 1 Mbit/s).
func AirTime(payloadBytes int, bitrateMbps float64) float64 {
	if bitrateMbps <= 0 {
		return math.Inf(1)
	}
	const header = 4e-6
	return PreambleDuration + header + float64(payloadBytes*8)/(bitrateMbps*1e6)
}

// Frame describes a transmission for the simulator: who sent it, when,
// and at what rate. The contents are immaterial to ArrayTrack (§2.1) so
// only metadata is modelled; the payload is represented by its length.
type Frame struct {
	// ClientID identifies the transmitting client.
	ClientID int
	// PayloadBytes is the MPDU length.
	PayloadBytes int
	// BitrateMbps is the data rate of the body (the preamble is always
	// sent at base rate).
	BitrateMbps float64
	// StartTime is the transmission start, seconds since epoch of the
	// experiment.
	StartTime float64
}

// Duration returns the frame's total air time in seconds.
func (f Frame) Duration() float64 { return AirTime(f.PayloadBytes, f.BitrateMbps) }
