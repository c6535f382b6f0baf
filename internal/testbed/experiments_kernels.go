package testbed

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/music"
)

// KernelsOptions sizes the numeric-kernel benchmark experiment: the
// packed-complex eigendecomposition and the table MUSIC / Bartlett
// scans, each measured against its oracle function on real testbed
// data, plus the absolute work rates of the synthesis kernels
// (rotation-guarded hill climb, adaptive branch-and-bound) and the
// two-choice SynthCache at dense pitch.
type KernelsOptions struct {
	// MaxClients is the number of client positions sampled for the
	// eig/scan matrices and the localization scenes.
	MaxClients int
	// Sites indexes the AP sites contributing to every scene.
	Sites []int
	// Trials is the timing repeat count (best-of).
	Trials int
	// Rounds is the number of warm round-robin passes over the
	// dense-pitch LUT working set in the cache section.
	Rounds int
	// DenseCell is the LUT pitch for the cache section (the paper's
	// dense sweep; 2 cm yields multi-MB entries).
	DenseCell float64
	// Seed drives capture noise.
	Seed int64
}

// DefaultKernelsOptions measures four scenes at the paper geometry
// and the full six-AP working set at 2 cm pitch.
func DefaultKernelsOptions() KernelsOptions {
	return KernelsOptions{
		MaxClients: 4,
		Sites:      []int{0, 2, 4},
		Trials:     5,
		Rounds:     3,
		DenseCell:  0.02,
		Seed:       1,
	}
}

// interleavedBestOf alternates timed runs of a and b so slow drift on
// a shared host degrades both measurements alike, and returns each
// one's best duration.
func interleavedBestOf(trials int, a, b func()) (bestA, bestB time.Duration) {
	bestA, bestB = 1<<62, 1<<62
	for t := 0; t < trials; t++ {
		start := time.Now()
		a()
		if d := time.Since(start); d < bestA {
			bestA = d
		}
		start = time.Now()
		b()
		if d := time.Since(start); d < bestB {
			bestB = d
		}
	}
	return bestA, bestB
}

// kernelMatrices builds the spatially-smoothed covariance matrices
// and noise subspaces the pipeline hands to the eigensolver and the
// MUSIC scan, plus the full nine-antenna correlation matrices it hands
// to the symmetry vote's Bartlett scan, one per (client, site) pair,
// from real captures.
func (tb *Testbed) kernelMatrices(opt KernelsOptions) (smoothed, noise, full []*mat.Matrix, err error) {
	capOpt := DefaultCaptureOptions()
	rng := rand.New(rand.NewSource(opt.Seed))
	for ci := 0; ci < opt.MaxClients && ci < len(tb.Clients); ci++ {
		for _, si := range opt.Sites {
			frames := tb.CaptureClient(tb.Clients[ci], tb.Sites[si], capOpt, rng)
			streams := frames[0].Streams[:capOpt.Antennas]
			snaps := music.SnapshotsFromStreams(streams, 16)
			r, err := music.CorrelationMatrix(snaps)
			if err != nil {
				return nil, nil, nil, err
			}
			rs, err := music.SpatialSmooth(music.ForwardBackward(r), 2)
			if err != nil {
				return nil, nil, nil, err
			}
			en, _, _, err := music.Subspaces(rs, 0.05, rs.Rows/2)
			if err != nil {
				return nil, nil, nil, err
			}
			rFull, err := music.CorrelationMatrix(music.SnapshotsFromStreams(frames[0].Streams, 16))
			if err != nil {
				return nil, nil, nil, err
			}
			smoothed = append(smoothed, rs)
			noise = append(noise, en)
			full = append(full, rFull)
		}
	}
	return smoothed, noise, full, nil
}

// spectrumDeviation returns max|got−want| relative to want's maximum.
func spectrumDeviation(got, want *music.Spectrum) float64 {
	max, _ := want.Max()
	var worst float64
	for i, w := range want.P {
		worst = math.Max(worst, math.Abs(got.P[i]-w)/max)
	}
	return worst
}

// equalBins counts the bins on which two spectra are bit-identical.
func equalBins(a, b *music.Spectrum) int {
	n := 0
	for i, v := range a.P {
		if b.P[i] == v {
			n++
		}
	}
	return n
}

// RunKernels benchmarks the spectral kernels against their oracle
// functions — packed split-plane eig vs the complex128 Jacobi, the
// table scans vs the closure and sum-of-squares scans — and reports the
// synthesis kernels' absolute work (localize time, hill-climb probe and
// prune rates, bound visits) and two-choice SynthCache placement at
// dense pitch. The synthesis kernels' own oracles (linear bound scan,
// scalar climb) are unexported in core; their exactness and the
// degenerate-screen collapse are gated there
// (TestKernelsExactOn205Scenes, TestSynthBnBDegenerateNotQuadratic).
// Emitted as metrics so `atbench -exp kernels -json` extends the
// BENCH_*.json perf trajectory.
func (tb *Testbed) RunKernels(opt KernelsOptions) (*Report, error) {
	r := &Report{ID: "kernels", Title: "numeric kernels: packed eig, guarded climb, heap B&B, two-choice cache"}

	// --- eigendecomposition + MUSIC scan, real smoothed matrices.
	smoothed, noise, full, err := tb.kernelMatrices(opt)
	if err != nil {
		return nil, err
	}
	// Each timed pass decomposes every matrix eigReps times so one
	// trial is long enough to mean something; packed and reference
	// trials interleave so drift on a shared host hits both alike.
	const eigReps = 32
	var ews mat.EigWorkspace
	nOps := len(smoothed)
	packedEig, refEig := interleavedBestOf(opt.Trials,
		func() {
			for rep := 0; rep < eigReps; rep++ {
				for _, m := range smoothed {
					if _, err := mat.EigHermitianWS(m, &ews); err != nil {
						panic(err)
					}
				}
			}
		},
		func() {
			for rep := 0; rep < eigReps; rep++ {
				for _, m := range smoothed {
					if _, err := mat.EigHermitianRefWS(m, &ews); err != nil {
						panic(err)
					}
				}
			}
		})
	eigPackedNS := float64(packedEig.Nanoseconds()) / float64(nOps*eigReps)
	eigRefNS := float64(refEig.Nanoseconds()) / float64(nOps*eigReps)
	r.AddMetric("kernels_eig_packed_ns", eigPackedNS, "ns/op")
	r.AddMetric("kernels_eig_ref_ns", eigRefNS, "ns/op")
	r.AddMetric("kernels_eig_speedup", eigRefNS/eigPackedNS, "x")
	r.Addf("eig %dx%d smoothed covariance (%d matrices): packed %.0f ns/op, ref %.0f ns/op, %.2fx",
		smoothed[0].Rows, smoothed[0].Cols, nOps, eigPackedNS, eigRefNS, eigRefNS/eigPackedNS)

	capOpt := DefaultCaptureOptions()
	var mws music.Workspace
	tabs := make([]*music.SteeringTable, len(opt.Sites))
	arrays := make([]*array.Array, len(opt.Sites))
	for i, si := range opt.Sites {
		arrays[i] = tb.NewArray(tb.Sites[si], capOpt)
		tabs[i] = music.NewSteeringTable(arrays[i], tb.Wavelength, 360)
	}
	packedScan, closureScan := interleavedBestOf(opt.Trials,
		func() {
			for i, en := range noise {
				mws.Recycle(music.MUSICWithTableWS(&mws, en, tabs[i%len(tabs)]))
			}
		},
		func() {
			for i, en := range noise {
				a := arrays[i%len(arrays)]
				sub := en.Rows
				music.MUSIC(en, func(theta float64) []complex128 {
					return a.SteeringVectorRow(theta, tb.Wavelength)[:sub]
				}, 360)
			}
		})
	scanPackedNS := float64(packedScan.Nanoseconds()) / float64(nOps)
	scanClosureNS := float64(closureScan.Nanoseconds()) / float64(nOps)
	r.AddMetric("kernels_scan_packed_ns", scanPackedNS, "ns/op")
	r.AddMetric("kernels_scan_closure_ns", scanClosureNS, "ns/op")
	r.AddMetric("kernels_scan_speedup", scanClosureNS/scanPackedNS, "x")
	r.Addf("MUSIC scan 360 bins: table %.0f ns/op, closure %.0f ns/op, %.2fx",
		scanPackedNS, scanClosureNS, scanClosureNS/scanPackedNS)

	// --- lag-domain scans vs the sum-of-squares kernels on the same
	// tables and matrices: exactness first (deviation, guard share,
	// vote and weight tables against the scalar paths), then timing.
	// Each timed pass scans every matrix scanReps times.
	var devMUSIC, devBartlett float64
	fallbacks0 := mws.GuardFallbacks()
	for i, en := range noise {
		tab := tabs[i%len(tabs)]
		ref := music.MUSICWithTableRefWS(nil, en, tab)
		devMUSIC = math.Max(devMUSIC, spectrumDeviation(music.MUSICWithTableWS(&mws, en, tab), ref))
		refB := music.BartlettWithTableRefWS(nil, full[i], tab)
		devBartlett = math.Max(devBartlett, spectrumDeviation(music.BartlettWithTableWS(&mws, full[i], tab), refB))
	}
	guardPct := 100 * float64(mws.GuardFallbacks()-fallbacks0) / float64(360*nOps)

	// Vote and weight tables: the table-driven combine steps against
	// the scalar originals (closure Bartlett, per-bin Sin/Mod), on the
	// real MUSIC spectra and correlation matrices.
	tableBins, tableEqual := 0, 0
	for i, en := range noise {
		a, tab := arrays[i%len(arrays)], tabs[i%len(tabs)]
		base := music.MUSICWithTableWS(nil, en, tab)
		tableBins += 2 * base.Bins()
		tableEqual += equalBins(tab.ApplyGeometryWeighting(base.Clone()), base.Clone().ApplyGeometryWeighting(a.Orient))
		tableEqual += equalBins(
			tab.RemoveSymmetryWS(&mws, base.Clone(), full[i]),
			music.SymmetryRemoval(base.Clone(), a, full[i], tb.Wavelength))
	}
	tableEqualPct := 100 * float64(tableEqual) / float64(tableBins)

	const scanReps = 8
	lagM, sosM := interleavedBestOf(opt.Trials,
		func() {
			for rep := 0; rep < scanReps; rep++ {
				for i, en := range noise {
					mws.Recycle(music.MUSICWithTableWS(&mws, en, tabs[i%len(tabs)]))
				}
			}
		},
		func() {
			for rep := 0; rep < scanReps; rep++ {
				for i, en := range noise {
					mws.Recycle(music.MUSICWithTableRefWS(&mws, en, tabs[i%len(tabs)]))
				}
			}
		})
	lagB, sosB := interleavedBestOf(opt.Trials,
		func() {
			for rep := 0; rep < scanReps; rep++ {
				for i, rf := range full {
					mws.Recycle(music.BartlettWithTableWS(&mws, rf, tabs[i%len(tabs)]))
				}
			}
		},
		func() {
			for rep := 0; rep < scanReps; rep++ {
				for i, rf := range full {
					mws.Recycle(music.BartlettWithTableRefWS(&mws, rf, tabs[i%len(tabs)]))
				}
			}
		})
	perScan := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(nOps*scanReps) }
	r.AddMetric("kernels_lag_music_ns", perScan(lagM), "ns/op")
	r.AddMetric("kernels_sos_music_ns", perScan(sosM), "ns/op")
	r.AddMetric("kernels_lag_music_speedup", perScan(sosM)/perScan(lagM), "x")
	r.AddMetric("kernels_lag_bartlett_ns", perScan(lagB), "ns/op")
	r.AddMetric("kernels_sos_bartlett_ns", perScan(sosB), "ns/op")
	r.AddMetric("kernels_lag_bartlett_speedup", perScan(sosB)/perScan(lagB), "x")
	r.AddMetric("kernels_lag_music_max_dev", devMUSIC, "of unit max")
	r.AddMetric("kernels_lag_bartlett_max_dev", devBartlett, "of max")
	r.AddMetric("kernels_lag_guard_fallback_pct", guardPct, "%")
	r.AddMetric("kernels_vote_weight_table_equal_pct", tableEqualPct, "%")
	r.Addf("lag-domain MUSIC scan (%dx%d noise subspace): %.0f ns/op vs sum of squares %.0f ns/op, %.2fx; max deviation %.2g of unit max, guard fallback on %.3f%% of bins",
		noise[0].Rows, noise[0].Cols, perScan(lagM), perScan(sosM), perScan(sosM)/perScan(lagM), devMUSIC, guardPct)
	r.Addf("lag-domain Bartlett scan (%dx%d, ninth antenna): %.0f ns/op vs generic %.0f ns/op, %.2fx; max deviation %.2g of max",
		full[0].Rows, full[0].Cols, perScan(lagB), perScan(sosB), perScan(sosB)/perScan(lagB), devBartlett)
	r.Addf("vote + weight tables vs scalar paths: %d of %d bins bit-identical", tableEqual, tableBins)

	// --- hill climb + branch-and-bound on real scenes: absolute work.
	scenes, _, err := tb.synthScenes(SynthOptions{MaxClients: opt.MaxClients, Sites: opt.Sites, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	var metrics core.SynthMetrics
	sg, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{
		Cell: 0.10, Workers: 1, Cache: core.NewSynthCache(), Metrics: &metrics,
	})
	if err != nil {
		return nil, err
	}
	localize := func() error {
		for _, sc := range scenes {
			if _, err := sg.Localize(sc); err != nil {
				return err
			}
		}
		return nil
	}
	if err := localize(); err != nil { // warm LUTs
		return nil, err
	}
	m0 := metrics.Snapshot()
	best := time.Duration(1 << 62)
	var wall time.Duration
	for t := 0; t < opt.Trials; t++ {
		start := time.Now()
		if err := localize(); err != nil {
			return nil, err
		}
		d := time.Since(start)
		wall += d
		if d < best {
			best = d
		}
	}
	m1 := metrics.Snapshot()

	localizeNS := float64(best.Nanoseconds()) / float64(len(scenes))
	probes := m1.HillProbes - m0.HillProbes
	prunedPct := 100 * float64(m1.HillPruned-m0.HillPruned) / float64(probes)
	probesPerSec := float64(probes) / wall.Seconds()
	fixes := float64(opt.Trials * len(scenes))
	visits := float64(m1.BoundVisits-m0.BoundVisits) / fixes
	evals := float64(m1.BoundEvals-m0.BoundEvals) / fixes
	expanded := float64(m1.SuperExpanded-m0.SuperExpanded) / fixes
	r.AddMetric("kernels_localize_fast_ns", localizeNS, "ns/op")
	r.AddMetric("kernels_climb_probes_per_s", probesPerSec, "probes/s")
	r.AddMetric("kernels_climb_pruned_pct", prunedPct, "%")
	r.AddMetric("kernels_bnb_visits_mean", visits, "visits/fix")
	r.AddMetric("kernels_bnb_bound_evals_mean", evals, "window maxima/fix")
	r.AddMetric("kernels_bnb_super_expanded_mean", expanded, "superblocks/fix")
	r.Addf("localize 10 cm (%d scenes): %.0f ns/op; hill climb %.0f probes/s, %.0f%% pruned without a bearing; B&B %.0f window maxima/fix (%.1f superblocks expanded), %.0f heap comparisons/fix",
		len(scenes), localizeNS, probesPerSec, prunedPct, evals, expanded, visits)

	// --- two-choice SynthCache at dense pitch: the full six-site LUT
	// working set against a budget of one entry per shard. Single-
	// choice placement thrashes whenever two keys hash to one shard;
	// two-choice keeps the whole set resident, so warm round-robin
	// passes hit every lookup.
	denseSpecs, _, err := tb.synthScenes(SynthOptions{MaxClients: 1, Sites: []int{0, 1, 2, 3, 4, 5}, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	denseScene := denseSpecs[0]
	probeCache := core.NewSynthCache()
	probeGrid, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{
		Cell: opt.DenseCell, Workers: 1, Cache: probeCache,
	})
	if err != nil {
		return nil, err
	}
	var h core.Heatmap
	if err := probeGrid.LogHeatmapInto(&h, denseScene[:1]); err != nil {
		return nil, err
	}
	// Budget two entries per shard: globally the set fits three times
	// over, so any miss after warm-up is placement thrash, not
	// capacity. Single-choice hashing thrashes here whenever three
	// keys land on one shard; two-choice placement keeps the whole
	// working set resident.
	entryBytes := probeCache.Usage().Bytes // one dense LUT's accounted cost
	cache := core.NewSynthCacheBudget(entryBytes * 16)
	denseGrid, err := core.NewSynthGrid(tb.Plan.Min, tb.Plan.Max, core.SynthOptions{
		Cell: opt.DenseCell, Workers: 1, Cache: cache,
	})
	if err != nil {
		return nil, err
	}
	if err := denseGrid.LogHeatmapInto(&h, denseScene); err != nil { // cold build
		return nil, err
	}
	hits0, _ := cache.Stats()
	for round := 0; round < opt.Rounds; round++ {
		if err := denseGrid.LogHeatmapInto(&h, denseScene); err != nil {
			return nil, err
		}
	}
	hits, _ := cache.Stats()
	lookups := uint64(opt.Rounds * len(denseScene))
	hitPct := 100 * float64(hits-hits0) / float64(lookups)
	u := cache.Usage()
	r.AddMetric("kernels_cache_dense_entry_mb", float64(entryBytes)/(1<<20), "MB")
	r.AddMetric("kernels_cache_dense_hit_pct", hitPct, "%")
	r.AddMetric("kernels_cache_second_choice", float64(u.SecondChoice), "placements")
	r.AddMetric("kernels_cache_spills", float64(u.Spills), "serves")
	r.AddMetric("kernels_cache_dense_evictions", float64(u.DenseEvictions), "evictions")
	r.Addf("two-choice cache at %.0f cm (%.1f MB/AP, %d APs, budget 2 entries/shard): warm hit rate %.0f%%, %d second-choice placements, %d spills, %d dense evictions",
		opt.DenseCell*100, float64(entryBytes)/(1<<20), len(denseScene), hitPct, u.SecondChoice, u.Spills, u.DenseEvictions)
	return r, nil
}
