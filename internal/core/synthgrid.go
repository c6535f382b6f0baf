package core

// The staged synthesis subsystem. The reference (Localize in
// synthesis.go) evaluates Eq. 8 by calling Likelihood serially for every
// grid cell, recomputing atan2 bearings and spectrum interpolation per
// AP per cell on every fix. This file builds that layer in three
// stages:
//
//  1. Bearing LUTs — for one (AP position, grid geometry) pair, the
//     bearing→bin index and interpolation fraction of every cell are
//     fixed. SynthCache precomputes them once (via music.BinLookup,
//     the same mapping Spectrum.At uses, so LUT and live lookups are
//     bit-compatible) and reuses them across fixes, exactly like
//     music.SteeringCache reuses steering matrices. atan2 disappears
//     from the steady-state path.
//
//  2. Log-domain accumulation — each AP's spectrum is collapsed once
//     per fix into a padded table of log(max(P[b], likelihoodFloor)),
//     and the surface is a flat row-major sum of per-cell lerps over
//     those tables, sharded across Config.SynthWorkers goroutines
//     with scratch drawn from a sync.Pool. Between bin centers the
//     surface interpolates log-spectra (a geometric interpolation of
//     the spectrum), which agrees exactly with log(Likelihood) at bin
//     centers and keeps the inner loop free of transcendentals; the
//     argmax-level agreement with the product-domain reference is
//     pinned on every testbed scene by TestSynthGridMatchesSeedArgmax.
//
//  3. Coarse-to-fine — Localize partitions the fine grid into
//     DefaultCoarseFactor² -cell blocks and screens them by an upper
//     bound instead of a lattice sample: each block's bearings from
//     one AP cover a fixed circular window of spectrum bins (cached
//     beside the LUTs), so max over the window of the AP's log table
//     bounds every cell in the block. The screen has two levels
//     (synthbnb.go): superBlocks×superBlocks blocks form a superblock
//     whose window is the minimal arc covering theirs, a fix bounds
//     only the superblocks up front, and one best-first heap expands a
//     superblock into its blocks' bounds when its own bound comes up.
//     Blocks are refined at full resolution in bound order — the same
//     order, block for block, as if every block had been bounded —
//     until no unvisited bound beats the best refined cell: a
//     branch-and-bound argmax, exact by construction, not just on
//     benign surfaces (narrow multi-AP likelihood spikes slip between
//     lattice samples; a bound cannot miss them). DefaultRefineTopK
//     blocks are always refined so hill climbing keeps several seeds.

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/music"
)

// DefaultCoarseFactor is the coarse-to-fine screening block edge, in
// fine cells: screening works on factor×factor blocks (50 cm for the
// paper's 10 cm grid).
const DefaultCoarseFactor = 5

// DefaultRefineTopK is the minimum number of screening blocks refined
// at full resolution, mirroring Localize's three hill-climbing seeds;
// the branch-and-bound screen refines more whenever a block's bound
// still beats the best refined cell.
const DefaultRefineTopK = 3

// minShardCells is the surface size below which sharding overhead
// outweighs the work; smaller surfaces are evaluated serially.
const minShardCells = 8192

// minRefineCells is the fine-surface size below which the coarse
// screening pass is skipped and the full grid evaluated directly.
const minRefineCells = 1024

// shardChunk is the cell count one worker claims at a time.
const shardChunk = 4096

// GridSpec describes a synthesis grid: a lattice origin, the cell
// pitch in metres, the cell counts along each axis, and the lattice
// offset of cell (0,0). Cell (ix, iy) is centred at
// Min + ((X0+ix)·Cell, (Y0+iy)·Cell). Full grids have X0 = Y0 = 0 —
// the same lattice ComputeHeatmap samples; a region sub-grid keeps
// its parent's Min and carries the offset instead of folding it into
// Min, so its centre arithmetic — and therefore every bearing LUT
// value — is bit-identical to the parent's at the same absolute cell,
// so a region's LUT, a view of its parent's, reads what a direct build
// of the region would.
type GridSpec struct {
	Min  geom.Point
	Cell float64
	Nx   int
	Ny   int
	X0   int
	Y0   int
}

// GridSpecFor returns the grid covering [min, max] at the given cell
// size, with ComputeHeatmap's dimension arithmetic.
func GridSpecFor(min, max geom.Point, cell float64) (GridSpec, error) {
	if cell <= 0 {
		return GridSpec{}, errors.New("core: heatmap cell size must be positive")
	}
	if max.X <= min.X || max.Y <= min.Y {
		return GridSpec{}, errors.New("core: empty heatmap area")
	}
	return GridSpec{
		Min:  min,
		Cell: cell,
		Nx:   int(math.Floor((max.X-min.X)/cell)) + 1,
		Ny:   int(math.Floor((max.Y-min.Y)/cell)) + 1,
	}, nil
}

// Cells returns the total cell count.
func (g GridSpec) Cells() int { return g.Nx * g.Ny }

// Center returns the position of cell (ix, iy).
func (g GridSpec) Center(ix, iy int) geom.Point {
	return geom.Pt(g.Min.X+float64(g.X0+ix)*g.Cell, g.Min.Y+float64(g.Y0+iy)*g.Cell)
}

// Origin returns the position of cell (0,0) — Min for full grids, the
// offset corner for sub-grids.
func (g GridSpec) Origin() geom.Point { return g.Center(0, 0) }

// subSpecFor returns the sub-grid of full whose cell centres lie
// inside [lo, hi] — exactly the full-grid cells a region query must
// rank, so a region argmax equals the full argmax restricted to the
// box. Errors when no centre falls inside.
func subSpecFor(full GridSpec, lo, hi geom.Point) (GridSpec, error) {
	// Half-ulp slack so a box edge exactly on a centre includes it.
	const eps = 1e-9
	x0 := int(math.Ceil((lo.X-full.Min.X)/full.Cell - eps))
	y0 := int(math.Ceil((lo.Y-full.Min.Y)/full.Cell - eps))
	x1 := int(math.Floor((hi.X-full.Min.X)/full.Cell + eps))
	y1 := int(math.Floor((hi.Y-full.Min.Y)/full.Cell + eps))
	if x0 < full.X0 {
		x0 = full.X0
	}
	if y0 < full.Y0 {
		y0 = full.Y0
	}
	if x1 > full.X0+full.Nx-1 {
		x1 = full.X0 + full.Nx - 1
	}
	if y1 > full.Y0+full.Ny-1 {
		y1 = full.Y0 + full.Ny - 1
	}
	if x1 < x0 || y1 < y0 {
		return GridSpec{}, fmt.Errorf("%w: no grid cell centres inside box", ErrBadRegion)
	}
	return GridSpec{
		Min: full.Min, Cell: full.Cell,
		Nx: x1 - x0 + 1, Ny: y1 - y0 + 1,
		X0: x0, Y0: y0,
	}, nil
}

// blockDims returns the screening partition: the fine grid divided
// into factor×factor blocks (edge blocks may be smaller).
func (g GridSpec) blockDims(factor int) (nbx, nby int) {
	return (g.Nx + factor - 1) / factor, (g.Ny + factor - 1) / factor
}

// bearingLUT holds, for every cell of one grid as seen from one AP
// position, the spectrum bin index and interpolation fraction of the
// AP→cell bearing (music.BinLookup applied to the cell centre). Row iy
// of the grid occupies entries [iy·stride, iy·stride+nx) of both
// slices: a LUT built for its own grid is contiguous (stride == nx),
// while a region's LUT is a view of its cached full-grid parent — the
// parent's slices from the region's first cell on, at the parent's row
// length (view) — so a predicted region costs no copy and no cache
// entry. The tables are immutable after construction and safe for
// concurrent use; a view keeps its parent's tables alive past eviction.
type bearingLUT struct {
	bin        []int32
	frac       []float64
	nx, stride int
}

// view returns the LUT of spec, a sub-grid of this LUT's grid parent.
// Cell (ix, iy) of spec is cell (spec.X0−parent.X0+ix,
// spec.Y0−parent.Y0+iy) of parent — the same absolute lattice cell, so
// the (bin, frac) pairs read through the view equal a direct build's bit
// for bit.
func (l bearingLUT) view(parent, spec GridSpec) bearingLUT {
	first := (spec.Y0-parent.Y0)*l.stride + spec.X0 - parent.X0
	return bearingLUT{bin: l.bin[first:], frac: l.frac[first:], nx: spec.Nx, stride: l.stride}
}

// superBlocks is the superblock edge in screening blocks: the screen's
// upper level groups superBlocks×superBlocks blocks (edge superblocks
// may be smaller) and bounds the group before any of its blocks.
const superBlocks = 5

// superDims returns the superblock partition of an nbx×nby block grid.
func superDims(nbx, nby int) (nsx, nsy int) {
	return (nbx + superBlocks - 1) / superBlocks, (nby + superBlocks - 1) / superBlocks
}

// blockLUT holds, per screening block of one (AP position, grid,
// factor), the minimal circular window of spectrum bins the block's
// cells interpolate over: bins [start, start+count) mod bins. The max
// of an AP's log table over that window bounds the AP's contribution
// to every cell of the block. Each superblock carries a window too —
// the minimal arc covering its blocks' windows — so its maximum bounds
// every one of theirs. Immutable after construction.
type blockLUT struct {
	start, count           []int32 // per block, row-major over blockDims
	superStart, superCount []int32 // per superblock, row-major over superDims
}

// buildBlockLUT derives the per-block bin windows from the fine LUT,
// and the superblock windows from those. Every cell contributes its
// interpolation pair {b, b+1 mod n}; the minimal circular window
// covering a block's set is found via the largest gap in the sorted bin
// list. A superblock's window covers its children's *windows* (the arc
// union), not just their member bins: a child's window also spans the
// non-member bins between its members, and the largest gap of the
// pooled members can fall inside such a span — the parent would then
// omit bins its child scans, and its bound would no longer dominate the
// child's.
func buildBlockLUT(fine bearingLUT, spec GridSpec, factor, bins int) *blockLUT {
	nbx, nby := spec.blockDims(factor)
	nsx, nsy := superDims(nbx, nby)
	nb, ns := nbx*nby, nsx*nsy
	buf := make([]int32, 2*(nb+ns))
	bl := &blockLUT{
		start: buf[:nb:nb], count: buf[nb : 2*nb : 2*nb],
		superStart: buf[2*nb : 2*nb+ns : 2*nb+ns], superCount: buf[2*nb+ns:],
	}
	seen := make([]bool, bins)
	members := make([]int32, 0, 64) // on the stack unless a block nears the AP
	for by := 0; by < nby; by++ {
		for bx := 0; bx < nbx; bx++ {
			members = members[:0]
			x0, x1, y0, y1 := blockRect(spec, factor, bx, by)
			for iy := y0; iy < y1; iy++ {
				for ix := x0; ix < x1; ix++ {
					b := fine.bin[iy*fine.stride+ix]
					b2 := b + 1
					if b2 == int32(bins) {
						b2 = 0
					}
					if !seen[b] {
						seen[b] = true
						members = append(members, b)
					}
					if !seen[b2] {
						seen[b2] = true
						members = append(members, b2)
					}
				}
			}
			start, count := minCircularWindow(members, bins)
			for _, m := range members {
				seen[m] = false
			}
			c := by*nbx + bx
			bl.start[c] = start
			bl.count[c] = count
		}
	}
	var arcs [superBlocks * superBlocks][2]int32
	for sy := 0; sy < nsy; sy++ {
		for sx := 0; sx < nsx; sx++ {
			bx0, bx1, by0, by1 := superRect(nbx, nby, sx, sy)
			k := 0
			for by := by0; by < by1; by++ {
				for c := by*nbx + bx0; c < by*nbx+bx1; c++ {
					arcs[k] = [2]int32{bl.start[c], bl.start[c] + bl.count[c]}
					k++
				}
			}
			s := sy*nsx + sx
			bl.superStart[s], bl.superCount[s] = coveringArc(arcs[:k], int32(bins))
		}
	}
	return bl
}

// coveringArc returns the smallest window [start, start+count) mod n
// covering every arc [a[0], a[1]) mod n of arcs (0 ≤ a[0] < n,
// a[0] < a[1] ≤ a[0]+n; reordered in place): the complement of the
// widest gap the arcs leave uncovered.
func coveringArc(arcs [][2]int32, n int32) (start, count int32) {
	// Insertion sort by start: at most superBlocks² arcs.
	for i := 1; i < len(arcs); i++ {
		for j := i; j > 0 && arcs[j][0] < arcs[j-1][0]; j-- {
			arcs[j], arcs[j-1] = arcs[j-1], arcs[j]
		}
	}
	// Arcs crossing the seam cover the prefix [0, reach) before the
	// sweep starts.
	reach := int32(0)
	for _, a := range arcs {
		reach = max(reach, a[1]-n)
	}
	gap := int32(0)
	start = arcs[0][0]
	for _, a := range arcs {
		if g := a[0] - reach; g > gap {
			gap, start = g, a[0]
		}
		reach = max(reach, a[1])
	}
	// The gap past the last arc runs round the seam to the first.
	if g := arcs[0][0] + n - reach; g > gap {
		gap, start = g, arcs[0][0]
	}
	return start, n - gap
}

// superRect returns the block rectangle [bx0,bx1)×[by0,by1) of
// superblock (sx, sy) in an nbx×nby block grid.
func superRect(nbx, nby, sx, sy int) (bx0, bx1, by0, by1 int) {
	bx0, by0 = sx*superBlocks, sy*superBlocks
	return bx0, min(bx0+superBlocks, nbx), by0, min(by0+superBlocks, nby)
}

// blockRect returns the fine-cell rectangle [x0,x1)×[y0,y1) of
// screening block (bx, by).
func blockRect(spec GridSpec, factor, bx, by int) (x0, x1, y0, y1 int) {
	x0, y0 = bx*factor, by*factor
	x1, y1 = x0+factor, y0+factor
	if x1 > spec.Nx {
		x1 = spec.Nx
	}
	if y1 > spec.Ny {
		y1 = spec.Ny
	}
	return x0, x1, y0, y1
}

// minCircularWindow returns the smallest window [start, start+count)
// mod n covering every bin in members (unsorted, distinct). It is the
// complement of the largest gap between circularly consecutive
// members.
func minCircularWindow(members []int32, n int) (start, count int32) {
	m := len(members)
	if m == 0 {
		return 0, 0
	}
	// Insertion sort: member counts are tiny (≤2·factor² distinct).
	for i := 1; i < m; i++ {
		for j := i; j > 0 && members[j] < members[j-1]; j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	gapAt, gap := m-1, members[0]+int32(n)-members[m-1]
	for i := 0; i < m-1; i++ {
		if g := members[i+1] - members[i]; g > gap {
			gapAt, gap = i, g
		}
	}
	start = members[(gapAt+1)%m]
	return start, int32(n) - gap + 1
}

func buildLUT(ap geom.Point, spec GridSpec, bins int) bearingLUT {
	l := bearingLUT{
		bin:  make([]int32, spec.Cells()),
		frac: make([]float64, spec.Cells()),
		nx:   spec.Nx, stride: spec.Nx,
	}
	c := 0
	for iy := 0; iy < spec.Ny; iy++ {
		for ix := 0; ix < spec.Nx; ix++ {
			i, f := music.BinLookup(ap.Bearing(spec.Center(ix, iy)), bins)
			l.bin[c] = int32(i)
			l.frac[c] = f
			c++
		}
	}
	return l
}

// synthKey captures everything a bearing LUT depends on: the AP
// position, the grid geometry (lattice origin, pitch, extent, and
// offset), and the spectrum resolution. windows marks the key of the
// grid's screening-block windows rather than its LUT.
type synthKey struct {
	apX, apY   float64
	minX, minY float64
	cell       float64
	nx, ny     int
	x0, y0     int
	bins       int
	windows    bool
}

func keyOf(ap geom.Point, spec GridSpec, bins int) synthKey {
	return synthKey{
		apX: ap.X, apY: ap.Y,
		minX: spec.Min.X, minY: spec.Min.Y,
		cell: spec.Cell, nx: spec.Nx, ny: spec.Ny,
		x0: spec.X0, y0: spec.Y0,
		bins: bins,
	}
}

// synthWorkspace is the pooled per-fix scratch: the flat accumulators
// for the fine and coarse surfaces, the per-AP padded log tables, the
// LUT slice headers, and the candidate lists. It grows to the largest
// fix it has seen. Callers must not return it to the pool while any
// slice drawn from it is still in use.
type synthWorkspace struct {
	fine    []float64
	coarse  []float64
	logTabs [][]float64
	luts    []bearingLUT
	cand    []cellCand
	// wins and heap are the branch-and-bound screen's per-AP bin
	// windows and best-first ordering (synthbnb.go).
	wins []*blockLUT
	heap screenHeap
	// hc* are the rotation-guarded hill climb's per-AP state: cached
	// spectrum positions, offset vectors, squared ranges, and the
	// probe-capture scratch (synthclimb.go).
	hcPos, hcDx, hcDy, hcR2, hcProbe []float64
}

var synthScratch = sync.Pool{New: func() any { return &synthWorkspace{} }}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// logTables collapses each AP spectrum into a padded table of
// log(max(P[b], likelihoodFloor)) — the per-fix cost that buys
// transcendental-free per-cell accumulation. The clamp, the logarithm
// and the pad are one pass of music's (Spectrum.PaddedLogValues): every
// entry is math.Log's value whichever kernel set wrote it.
func (ws *synthWorkspace) logTables(aps []APSpectrum) [][]float64 {
	if cap(ws.logTabs) < len(aps) {
		tabs := make([][]float64, len(aps))
		copy(tabs, ws.logTabs[:cap(ws.logTabs)])
		ws.logTabs = tabs
	}
	ws.logTabs = ws.logTabs[:len(aps)]
	for a, ap := range aps {
		ws.logTabs[a] = ap.Spectrum.PaddedLogValues(ws.logTabs[a], likelihoodFloor)
	}
	return ws.logTabs
}

// SynthOptions configures a SynthGrid.
type SynthOptions struct {
	// Cell is the fine grid pitch in metres (0 means the paper's 0.10).
	Cell float64
	// Workers bounds the goroutines sharding the surface evaluation;
	// 0 or 1 evaluates serially.
	Workers int
	// Cache supplies the bearing LUTs (nil means the shared cache).
	Cache *SynthCache
	// Metrics, when non-nil, accumulates the synthesis kernels' work
	// counters (blocks refined, bound visits, hill-climb probes and
	// prunes). Atomic; one instance may be shared across grids.
	Metrics *SynthMetrics
}

// SynthGrid evaluates Eq. 8 over one grid geometry using cached
// bearing LUTs. Construction is cheap — LUTs are fetched lazily from
// the cache per AP — so a grid may be built per fix; the reuse lives
// in the cache. Safe for concurrent use.
type SynthGrid struct {
	spec     GridSpec
	min, max geom.Point
	parent   *GridSpec // full-grid spec whose LUTs a region sub-grid views
	cache    *SynthCache
	workers  int
	metrics  *SynthMetrics
	// linearPick and scalarClimb swap in the two oracles the fast
	// kernels are pinned against — the flat screen (every block bounded,
	// a linear bound scan at every pick), hillClimbTabs for every climb.
	// onRefine, when set, is told each screening block as it is refined.
	// No option sets them; in-package tests do (export_test.go).
	linearPick  bool
	scalarClimb bool
	onRefine    func(block int)
}

// newSynthGrid resolves the option defaults around a prepared spec.
func newSynthGrid(spec GridSpec, parent *GridSpec, min, max geom.Point, opt SynthOptions) *SynthGrid {
	cache := opt.Cache
	if cache == nil {
		cache = SharedSynthCache()
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	return &SynthGrid{
		spec: spec, parent: parent, min: min, max: max,
		cache: cache, workers: workers, metrics: opt.Metrics,
	}
}

// NewSynthGrid builds a grid over [min, max] with the given options.
func NewSynthGrid(min, max geom.Point, opt SynthOptions) (*SynthGrid, error) {
	cell := opt.Cell
	if cell <= 0 {
		cell = 0.10
	}
	spec, err := GridSpecFor(min, max, cell)
	if err != nil {
		return nil, err
	}
	return newSynthGrid(spec, nil, min, max, opt), nil
}

// NewSynthGridRegion builds a grid over a search region inside the
// full area [min, max], snapped to the full lattice: its cells are
// exactly the full-grid cells inside the box, its argmax equals the
// full-grid argmax restricted to those cells, and its bearing LUTs are
// views of cached full-grid entries when present. Hill climbing is
// confined to the clamped box. A zero region is the full grid.
func NewSynthGridRegion(min, max geom.Point, region Region, opt SynthOptions) (*SynthGrid, error) {
	if region.IsZero() {
		return NewSynthGrid(min, max, opt)
	}
	if err := region.Validate(); err != nil {
		return nil, err
	}
	cell := opt.Cell
	if cell <= 0 {
		cell = 0.10
	}
	lo, hi, err := region.clampTo(min, max)
	if err != nil {
		return nil, err
	}
	full, err := GridSpecFor(min, max, cell)
	if err != nil {
		return nil, err
	}
	spec, err := subSpecFor(full, lo, hi)
	if err != nil {
		return nil, err
	}
	return newSynthGrid(spec, &full, lo, hi, opt), nil
}

// Spec returns the fine grid geometry.
func (sg *SynthGrid) Spec() GridSpec { return sg.spec }

// evalRange accumulates the log surface for cells [lo, hi): for each
// AP, a branch-free lerp over its padded log table at the LUT's
// (bin, frac). The first AP assigns instead of adding, so the
// accumulator needs no zeroing pass. Per-cell order over APs is
// fixed, so results are independent of sharding. A contiguous LUT is
// walked in one run; a view of a wider parent row by row.
func evalRange(acc []float64, luts []bearingLUT, logTabs [][]float64, lo, hi int) {
	for a := range luts {
		lut := &luts[a]
		tab := logTabs[a]
		for c := lo; c < hi; {
			n, src := hi-c, c
			if lut.stride != lut.nx {
				iy := c / lut.nx
				ix := c - iy*lut.nx
				n, src = min(n, lut.nx-ix), iy*lut.stride+ix
			}
			bin, frac, out := lut.bin[src:src+n], lut.frac[src:src+n], acc[c:c+n]
			if a == 0 {
				for k, b := range bin {
					f := frac[k]
					out[k] = tab[b]*(1-f) + tab[b+1]*f
				}
			} else {
				for k, b := range bin {
					f := frac[k]
					out[k] += tab[b]*(1-f) + tab[b+1]*f
				}
			}
			c += n
		}
	}
}

// evalSurface fills acc (one float per cell of spec) with the
// log-domain surface, sharding across the grid's workers when the
// surface is big enough to pay for it.
func (sg *SynthGrid) evalSurface(acc []float64, spec GridSpec, luts []bearingLUT, logTabs [][]float64) {
	cells := len(acc)
	workers := sg.workers
	if workers > cells/shardChunk {
		workers = cells / shardChunk
	}
	if workers <= 1 || cells < minShardCells {
		evalRange(acc, luts, logTabs, 0, cells)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(shardChunk)) - shardChunk
				if lo >= cells {
					return
				}
				hi := lo + shardChunk
				if hi > cells {
					hi = cells
				}
				evalRange(acc, luts, logTabs, lo, hi)
			}
		}()
	}
	wg.Wait()
}

// fetchLUTs resolves the per-AP bearing LUTs for spec.
func (sg *SynthGrid) fetchLUTs(ws *synthWorkspace, aps []APSpectrum, spec GridSpec) []bearingLUT {
	if cap(ws.luts) < len(aps) {
		ws.luts = make([]bearingLUT, len(aps))
	}
	ws.luts = ws.luts[:len(aps)]
	for a, ap := range aps {
		ws.luts[a] = sg.cache.lutFor(ap.Pos, spec, sg.parent, ap.Spectrum.Bins())
	}
	return ws.luts
}

// cellCand is one candidate cell of a surface.
type cellCand struct {
	idx int
	val float64
}

// pushCand inserts (idx, val) into the descending top-k list best,
// deduplicating by cell index (refinement windows may overlap) and
// breaking value ties toward the lower index so candidate order never
// depends on scan order.
func pushCand(best []cellCand, k, idx int, val float64) []cellCand {
	for _, b := range best {
		if b.idx == idx {
			return best
		}
	}
	if len(best) < k {
		best = append(best, cellCand{idx, val})
	} else if better(val, idx, best[len(best)-1]) {
		best[len(best)-1] = cellCand{idx, val}
	} else {
		return best
	}
	for j := len(best) - 1; j > 0 && better(best[j].val, best[j].idx, best[j-1]); j-- {
		best[j], best[j-1] = best[j-1], best[j]
	}
	return best
}

func better(val float64, idx int, than cellCand) bool {
	if val != than.val {
		return val > than.val
	}
	return idx < than.idx
}

// topCells scans cells [lo, hi) of acc into the top-k list.
func topCells(best []cellCand, k int, acc []float64, lo, hi int) []cellCand {
	for c := lo; c < hi; c++ {
		best = pushCand(best, k, c, acc[c])
	}
	return best
}

// refineEnabled reports whether the coarse screening pass is worth
// running for this grid.
func (sg *SynthGrid) refineEnabled() bool {
	return sg.spec.Cells() >= minRefineCells
}

// hillClimbSeeds is how many top cells seed hill climbing, mirroring
// Localize's TopCells(3).
const hillClimbSeeds = 3

// candidates fills ws.cand with the top hill-climbing seed cells of
// the fine surface — via the full evaluation when refined is false,
// via the branch-and-bound screen (synthbnb.go) when true. The
// returned slice aliases ws and is valid until the workspace's next
// use.
func (sg *SynthGrid) candidates(ws *synthWorkspace, aps []APSpectrum, refined bool) []cellCand {
	logTabs := ws.logTables(aps)
	ws.fine = growFloats(ws.fine, sg.spec.Cells())
	luts := sg.fetchLUTs(ws, aps, sg.spec)
	switch {
	case !refined || !sg.refineEnabled():
		return sg.fullSurface(ws, luts, logTabs)
	case sg.linearPick:
		return sg.screenFlat(ws, aps, luts, logTabs)
	}
	return sg.screen(ws, aps, luts, logTabs)
}

// fullSurface evaluates every fine cell and ranks them all.
func (sg *SynthGrid) fullSurface(ws *synthWorkspace, luts []bearingLUT, logTabs [][]float64) []cellCand {
	sg.evalSurface(ws.fine, sg.spec, luts, logTabs)
	ws.cand = topCells(ws.cand[:0], hillClimbSeeds, ws.fine, 0, len(ws.fine))
	return ws.cand
}

// argmaxCell runs candidates and returns the best fine cell index.
func (sg *SynthGrid) argmaxCell(aps []APSpectrum, refined bool) (int, error) {
	if len(aps) == 0 {
		return 0, errors.New("core: no AP spectra to synthesize")
	}
	ws := synthScratch.Get().(*synthWorkspace)
	defer synthScratch.Put(ws)
	best := sg.candidates(ws, aps, refined)
	if len(best) == 0 {
		return 0, errors.New("core: empty synthesis surface")
	}
	return best[0].idx, nil
}

// FullArgmaxCell evaluates the complete fine surface and returns the
// flat row-major index of its maximum cell.
func (sg *SynthGrid) FullArgmaxCell(aps []APSpectrum) (int, error) {
	return sg.argmaxCell(aps, false)
}

// RefinedArgmaxCell returns the maximum cell found by the
// coarse-to-fine screen (identical to FullArgmaxCell on the testbed
// scenes; pinned by test).
func (sg *SynthGrid) RefinedArgmaxCell(aps []APSpectrum) (int, error) {
	return sg.argmaxCell(aps, true)
}

// Localize is the §2.5 estimator on the staged subsystem: the
// coarse-to-fine grid screen seeds hill climbing from the top cells,
// returning the maximum-likelihood position. Probes are scored on the
// per-fix padded log tables the surface itself accumulates
// (LogLikelihoodBins semantics), so refinement reuses the cached
// BinLookup path instead of re-deriving Spectrum.At plus math.Log per
// probe per AP — the bearing is the only remaining per-probe
// transcendental. Pinned bit-for-bit against the scalar path by
// TestHillClimbTabsMatchesScalar.
func (sg *SynthGrid) Localize(aps []APSpectrum) (geom.Point, error) {
	pos, _, err := sg.localize(aps)
	return pos, err
}

// LocalizeInterior is Localize plus a report of whether the grid
// argmax cell is strictly interior to the grid on every open side —
// the verification bit the predictive localization path keys on: a
// boundary argmax means the true maximum may lie just outside the
// region, so the caller must fall back to a wider search. A side is
// "closed" when the region is flush with its parent full grid there
// (the search area ends; nothing lies beyond it), so a cell on a
// closed edge still reports interior. A grid without a parent (the
// full grid) treats every side as open.
func (sg *SynthGrid) LocalizeInterior(aps []APSpectrum) (geom.Point, bool, error) {
	pos, idx, err := sg.localize(aps)
	if err != nil {
		return pos, false, err
	}
	return pos, sg.interiorCell(idx), nil
}

// interiorCell reports whether fine cell idx avoids the grid's
// outermost ring on every open side.
func (sg *SynthGrid) interiorCell(idx int) bool {
	ix, iy := idx%sg.spec.Nx, idx/sg.spec.Nx
	p := sg.parent
	openL := p == nil || sg.spec.X0 > p.X0
	openR := p == nil || sg.spec.X0+sg.spec.Nx < p.X0+p.Nx
	openB := p == nil || sg.spec.Y0 > p.Y0
	openT := p == nil || sg.spec.Y0+sg.spec.Ny < p.Y0+p.Ny
	if openL && ix == 0 {
		return false
	}
	if openR && ix == sg.spec.Nx-1 {
		return false
	}
	if openB && iy == 0 {
		return false
	}
	if openT && iy == sg.spec.Ny-1 {
		return false
	}
	return true
}

// localize runs the screen plus hill climbing and also returns the
// grid argmax cell (best[0]: the branch-and-bound screen's exact
// full-surface argmax, lower-index tie-break included).
func (sg *SynthGrid) localize(aps []APSpectrum) (geom.Point, int, error) {
	if len(aps) == 0 {
		return geom.Point{}, 0, errors.New("core: no AP spectra to synthesize")
	}
	ws := synthScratch.Get().(*synthWorkspace)
	defer synthScratch.Put(ws)
	best := sg.candidates(ws, aps, true)
	if len(best) == 0 {
		return geom.Point{}, 0, errors.New("core: empty synthesis surface")
	}
	pos := geom.Point{}
	score := math.Inf(-1)
	for _, cand := range best {
		seed := sg.spec.Center(cand.idx%sg.spec.Nx, cand.idx/sg.spec.Nx)
		var p geom.Point
		var l float64
		if sg.scalarClimb {
			p, l = hillClimbTabs(seed, aps, ws.logTabs, sg.spec.Cell, sg.min, sg.max)
		} else {
			p, l = sg.hillClimbGuarded(ws, seed, aps)
		}
		if l > score {
			pos, score = p, l
		}
	}
	return pos, best[0].idx, nil
}

// LogHeatmapInto fills h with the full-resolution log-domain surface
// (values are log-likelihoods: 0 is the clamp-free maximum, more
// negative is less likely), reusing h's storage when the shape
// matches. Steady state allocates nothing.
func (sg *SynthGrid) LogHeatmapInto(h *Heatmap, aps []APSpectrum) error {
	if len(aps) == 0 {
		return errors.New("core: no AP spectra to synthesize")
	}
	h.reshape(sg.spec)
	ws := synthScratch.Get().(*synthWorkspace)
	logTabs := ws.logTables(aps)
	sg.evalSurface(h.Flat, sg.spec, sg.fetchLUTs(ws, aps, sg.spec), logTabs)
	synthScratch.Put(ws)
	return nil
}

// scoreTabs evaluates the log surface's definition at an arbitrary
// (off-lattice) position from the per-fix padded log tables: per AP
// one bearing (the only transcendental) and one branch-free lerp — no
// Spectrum.At, no math.Log. Bit-identical to LogLikelihoodBins, which
// recomputes the same quantities scalar per call: tab[b] is
// math.Log(max(P[b], likelihoodFloor)) by construction, and the
// padded tab[n] == tab[0] is exactly the scalar wrap.
func scoreTabs(x geom.Point, aps []APSpectrum, logTabs [][]float64) float64 {
	l := 0.0
	for a, ap := range aps {
		b, f := music.BinLookup(ap.Pos.Bearing(x), ap.Spectrum.Bins())
		tab := logTabs[a]
		l += tab[b]*(1-f) + tab[b+1]*f
	}
	return l
}

// hillClimbTabs is the compass pattern search of hillClimbFn scored by
// scoreTabs. A dedicated loop (rather than a closure over the tables
// passed to hillClimbFn) keeps the steady-state fix path free of
// per-call closure allocations. This is the scalar reference path —
// one atan2 per AP per probe; the fix path uses the rotation-guarded
// hillClimbGuarded (synthclimb.go), which must visit identical
// positions (pinned by TestHillClimbGuardedMatchesScalar).
func hillClimbTabs(start geom.Point, aps []APSpectrum, logTabs [][]float64, step float64, min, max geom.Point) (geom.Point, float64) {
	cur := start
	curL := scoreTabs(cur, aps, logTabs)
	for step > 0.01 {
		improved := false
		for _, d := range [4]geom.Vec{{X: step}, {X: -step}, {Y: step}, {Y: -step}} {
			cand := cur.Add(d)
			if cand.X < min.X || cand.X > max.X || cand.Y < min.Y || cand.Y > max.Y {
				continue
			}
			if l := scoreTabs(cand, aps, logTabs); l > curL {
				cur, curL = cand, l
				improved = true
			}
		}
		if !improved {
			step /= 2
		}
	}
	return cur, curL
}
