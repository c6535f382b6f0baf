package core

// The two-level branch-and-bound screen. The fine grid is partitioned
// into DefaultCoarseFactor² -cell blocks, and the blocks into
// superBlocks×superBlocks superblocks; each has, per AP, a cached
// circular window of spectrum bins (blockLUT), and the sum over APs of
// the AP's log-table maximum over the window is an upper bound on every
// fine cell underneath. A fix bounds only the superblocks up front —
// O(superblocks × APs) window maxima instead of O(blocks × APs) — then
// runs one best-first loop over a mixed heap of superblocks and blocks
// ordered by nodeBefore: (bound descending, superblock before block
// among equal bounds, index ascending). Popping a superblock bounds its
// ≤ 25 blocks and pushes them; popping a block refines it at full
// resolution; the loop stops once the top bound is below the best
// refined cell (and DefaultRefineTopK blocks have been refined), or
// falls back to the full surface past the refinement budget. Both bound
// passes take their window maxima from music.WindowMax, which scans a
// window as at most two contiguous runs of the log table, four bins at a
// time where the machine can, and returns the element-by-element scan's
// value.
//
// Exactness: the blocks are refined in exactly the flat screen's total
// order — every block bounded, then picked by (bound descending, index
// ascending), which screenFlat retains as the oracle.
//
//   - A block's bound is the same number in both screens: the same
//     window maxima summed over APs in the same order.
//   - A superblock's bound dominates each of its blocks': its window is
//     the arc union of theirs (buildBlockLUT), so every term of its sum
//     is a maximum over a superset, and floating-point addition is
//     monotone in each operand, so the rounded sums keep the order.
//   - So when a block tops the heap, no block that precedes it in the
//     flat order is still hidden in an unexpanded superblock: that
//     superblock's bound would be ≥ the hidden block's ≥ this one's,
//     and on equality a superblock sorts first — it would have been on
//     top instead. Every block ahead of it in the flat order is
//     therefore in the heap or already refined, and the heap's
//     comparator among blocks is the flat order.
//   - The stop rule reads the top bound whatever its level: a
//     superblock below the best refined cell hides only blocks below
//     it. The refinement budget counts refined blocks only, and is
//     checked before each pick as the flat screen does, so both fall
//     back on the same surfaces — which matters, because the fallback's
//     seeds (the global top cells) differ from the screen's.
//
// Hence the refinement sequence, candidate list, argmax cell, hill-
// climb seeds and fix are bit-identical (TestHierScreenRefinesFlatOrder,
// TestSynthHeapMatchesLinearPick, TestKernelsExactOn205Scenes). There is
// no linear-scan phase: a peaked surface is done after a handful of
// pops on a heap that starts at ~119 superblocks for the 40 × 16 m
// floor — less than one rescan of its 2,673 block bounds — and a
// degenerate surface that ties every bound stays O(log) per pick.

import (
	"math"
	"sync/atomic"

	"repro/internal/music"
)

// SynthMetrics accumulates work counters for the synthesis kernels:
// screening-block refinement, bound evaluation and ordering cost, and
// hill-climb probe accounting. All counters are atomic, so one
// SynthMetrics may be shared across grids and goroutines; wire it in
// through SynthOptions.Metrics. Counters only grow; readers snapshot.
type SynthMetrics struct {
	// BlocksRefined counts screening blocks refined at full
	// resolution across all branch-and-bound screens.
	BlocksRefined atomic.Int64
	// BoundVisits counts comparisons spent choosing the next pick: the
	// heap's sift comparisons (the whole bounds array per pick on the
	// flat oracle). The degenerate-surface test asserts the heap's
	// count is far below the oracle's on the same scene.
	BoundVisits atomic.Int64
	// BoundEvals counts bin-window maxima evaluated, one per (window,
	// AP): every superblock up front plus the blocks of each expanded
	// superblock (every block, on the flat oracle).
	BoundEvals atomic.Int64
	// SuperExpanded counts superblocks whose blocks had to be bounded.
	SuperExpanded atomic.Int64
	// FullEvalFallbacks counts screens that hit the refinement budget
	// and fell back to evaluating the full surface.
	FullEvalFallbacks atomic.Int64
	// HillProbes counts in-bounds hill-climb probes considered.
	HillProbes atomic.Int64
	// HillPruned counts probes rejected by the rotation guard's
	// certified upper bound, with no atan2 evaluated.
	HillPruned atomic.Int64
}

// SynthMetricsSnapshot is a plain-value copy of SynthMetrics, which
// tests compare and log.
type SynthMetricsSnapshot struct {
	BlocksRefined     int64
	BoundVisits       int64
	BoundEvals        int64
	SuperExpanded     int64
	FullEvalFallbacks int64
	HillProbes        int64
	HillPruned        int64
}

// Snapshot reads every counter once.
func (m *SynthMetrics) Snapshot() SynthMetricsSnapshot {
	return SynthMetricsSnapshot{
		BlocksRefined:     m.BlocksRefined.Load(),
		BoundVisits:       m.BoundVisits.Load(),
		BoundEvals:        m.BoundEvals.Load(),
		SuperExpanded:     m.SuperExpanded.Load(),
		FullEvalFallbacks: m.FullEvalFallbacks.Load(),
		HillProbes:        m.HillProbes.Load(),
		HillPruned:        m.HillPruned.Load(),
	}
}

// screenWork is one screen's share of SynthMetrics, accumulated in
// plain ints and published once when the screen ends.
type screenWork struct {
	refined, visits, evals, expanded int64
}

func (w screenWork) addTo(m *SynthMetrics) {
	if m == nil {
		return
	}
	m.BlocksRefined.Add(w.refined)
	m.BoundVisits.Add(w.visits)
	m.BoundEvals.Add(w.evals)
	m.SuperExpanded.Add(w.expanded)
}

// screenNode is one entry of the screen's heap: a superblock awaiting
// expansion or a block awaiting refinement, under its upper bound.
type screenNode struct {
	bound float64
	idx   int32 // superblock or block index, row-major
	super bool
}

// nodeBefore is the screen's total order: higher bound first; among
// equal bounds a superblock before any block (it may hide a block that
// ties), then the lower index — for blocks, the order a linear scan
// keeping the first maximum it meets produces.
func nodeBefore(a, b screenNode) bool {
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	if a.super != b.super {
		return a.super
	}
	return a.idx < b.idx
}

// screenHeap is a binary heap in nodeBefore order. Every method returns
// the comparisons it spent (BoundVisits).
type screenHeap []screenNode

// init establishes the heap property in place.
func (h screenHeap) init() int64 {
	var visits int64
	for i := len(h)/2 - 1; i >= 0; i-- {
		visits += h.siftDown(i)
	}
	return visits
}

func (h screenHeap) siftDown(i int) int64 {
	var visits int64
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return visits
		}
		first := l
		if r := l + 1; r < n {
			visits++
			if nodeBefore(h[r], h[l]) {
				first = r
			}
		}
		visits++
		if !nodeBefore(h[first], h[i]) {
			return visits
		}
		h[i], h[first] = h[first], h[i]
		i = first
	}
}

func (h *screenHeap) push(n screenNode) int64 {
	*h = append(*h, n)
	s := *h
	var visits int64
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		visits++
		if !nodeBefore(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	return visits
}

// pop removes the top (next-to-visit) entry.
func (h *screenHeap) pop() int64 {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	return s[:n].siftDown(0)
}

// screenWindows resolves the per-AP block and superblock bin windows.
func (sg *SynthGrid) screenWindows(ws *synthWorkspace, aps []APSpectrum) []*blockLUT {
	ws.wins = ws.wins[:0]
	for _, ap := range aps {
		ws.wins = append(ws.wins, sg.cache.blockWindows(ap.Pos, sg.spec, ap.Spectrum.Bins(), sg.parent))
	}
	return ws.wins
}

// refineBudget is the screen's refinement budget on a grid of the
// given number of screening blocks. If the screen stops pruning (a
// near-flat surface ties every bound to the best cell), refining block
// after block loses to one pass over the full surface — past this
// budget the screen falls back to it, trivially exact.
func refineBudget(blocks int) int64 { return int64(blocks/4 + DefaultRefineTopK) }

// screen fills ws.cand with the top hill-climbing seed cells by the
// two-level branch-and-bound described at the top of this file. At
// least DefaultRefineTopK blocks are refined so hill climbing sees
// several basins; the argmax matches the full scan exactly, lower-index
// tie-break included: a cell tying the best forces its block's bound —
// and its superblock's — up to the tie value, so neither is pruned.
func (sg *SynthGrid) screen(ws *synthWorkspace, aps []APSpectrum, luts []bearingLUT, logTabs [][]float64) []cellCand {
	nbx, nby := sg.spec.blockDims(DefaultCoarseFactor)
	nsx, nsy := superDims(nbx, nby)
	wins := sg.screenWindows(ws, aps)

	if cap(ws.heap) < nsx*nsy {
		ws.heap = make(screenHeap, nsx*nsy)
	}
	ws.heap = ws.heap[:nsx*nsy]
	for a, bl := range wins {
		tab := logTabs[a][:aps[a].Spectrum.Bins()] // without the wrap pad
		for s := range ws.heap {
			r := music.WindowMax(tab, int(bl.superStart[s]), int(bl.superCount[s]))
			if a == 0 {
				ws.heap[s] = screenNode{bound: r, idx: int32(s), super: true}
			} else {
				ws.heap[s].bound += r
			}
		}
	}
	work := screenWork{evals: int64(nsx * nsy * len(aps))}
	work.visits = ws.heap.init()

	ws.cand = ws.cand[:0]
	best := math.Inf(-1)
	maxRefine := refineBudget(nbx * nby)
	var kids [superBlocks * superBlocks]float64
	for {
		if work.refined >= maxRefine {
			return sg.screenFallback(ws, luts, logTabs, work)
		}
		if len(ws.heap) == 0 {
			break
		}
		top := ws.heap[0]
		if top.bound < best && work.refined >= DefaultRefineTopK {
			break
		}
		work.visits += ws.heap.pop()
		if !top.super {
			best = sg.refineBlock(ws, luts, logTabs, int(top.idx), nbx)
			work.refined++
			continue
		}
		// Bound the superblock's blocks: per block the same window
		// maxima summed in the same AP order as blockBounds.
		bx0, bx1, by0, by1 := superRect(nbx, nby, int(top.idx)%nsx, int(top.idx)/nsx)
		for a, bl := range wins {
			tab := logTabs[a][:aps[a].Spectrum.Bins()] // without the wrap pad
			k := 0
			for by := by0; by < by1; by++ {
				for c := by*nbx + bx0; c < by*nbx+bx1; c++ {
					r := music.WindowMax(tab, int(bl.start[c]), int(bl.count[c]))
					if a == 0 {
						kids[k] = r
					} else {
						kids[k] += r
					}
					k++
				}
			}
		}
		k := 0
		for by := by0; by < by1; by++ {
			for c := by*nbx + bx0; c < by*nbx+bx1; c++ {
				work.visits += ws.heap.push(screenNode{bound: kids[k], idx: int32(c)})
				k++
			}
		}
		work.evals += int64(k * len(aps))
		work.expanded++
	}
	work.addTo(sg.metrics)
	return ws.cand
}

// refineBlock evaluates screening block c at full resolution, folds
// its cells into ws.cand, and returns the best refined cell value.
func (sg *SynthGrid) refineBlock(ws *synthWorkspace, luts []bearingLUT, logTabs [][]float64, c, nbx int) float64 {
	if sg.onRefine != nil {
		sg.onRefine(c)
	}
	x0, x1, y0, y1 := blockRect(sg.spec, DefaultCoarseFactor, c%nbx, c/nbx)
	for iy := y0; iy < y1; iy++ {
		lo, hi := iy*sg.spec.Nx+x0, iy*sg.spec.Nx+x1
		evalRange(ws.fine, luts, logTabs, lo, hi)
		ws.cand = topCells(ws.cand, hillClimbSeeds, ws.fine, lo, hi)
	}
	return ws.cand[0].val
}

// screenFallback abandons a screen that spent its refinement budget
// for the full surface.
func (sg *SynthGrid) screenFallback(ws *synthWorkspace, luts []bearingLUT, logTabs [][]float64, work screenWork) []cellCand {
	work.addTo(sg.metrics)
	if m := sg.metrics; m != nil {
		m.FullEvalFallbacks.Add(1)
	}
	return sg.fullSurface(ws, luts, logTabs)
}

// blockBounds fills bounds (one entry per screening block) with the
// per-block upper bound of the fine surface: Σ over APs of the max of
// the AP's log table over the block's bin window. No fine cell can
// exceed its block's bound — both lerp endpoints lie inside the
// window.
func (sg *SynthGrid) blockBounds(ws *synthWorkspace, aps []APSpectrum, logTabs [][]float64) []float64 {
	nbx, nby := sg.spec.blockDims(DefaultCoarseFactor)
	ws.coarse = growFloats(ws.coarse, nbx*nby)
	bounds := ws.coarse
	for a, bl := range sg.screenWindows(ws, aps) {
		tab := logTabs[a][:aps[a].Spectrum.Bins()] // without the wrap pad
		if a == 0 {
			for c := range bounds {
				bounds[c] = music.WindowMax(tab, int(bl.start[c]), int(bl.count[c]))
			}
		} else {
			for c := range bounds {
				bounds[c] += music.WindowMax(tab, int(bl.start[c]), int(bl.count[c]))
			}
		}
	}
	return bounds
}

// screenFlat is the one-level screen the two-level one is pinned
// against (SynthGrid.linearPick; tests and BenchmarkFullGridLocalize
// only): every block bounded up front, and the next block — highest
// bound, lowest index among ties — rediscovered by a linear rescan at
// every pick. Same stop rule, refinement budget and fallback.
func (sg *SynthGrid) screenFlat(ws *synthWorkspace, aps []APSpectrum, luts []bearingLUT, logTabs [][]float64) []cellCand {
	bounds := sg.blockBounds(ws, aps, logTabs)
	nbx, _ := sg.spec.blockDims(DefaultCoarseFactor)
	work := screenWork{evals: int64(len(bounds) * len(aps))}
	ws.cand = ws.cand[:0]
	best := math.Inf(-1)
	maxRefine := refineBudget(len(bounds))
	for ; ; work.refined++ {
		if work.refined >= maxRefine {
			return sg.screenFallback(ws, luts, logTabs, work)
		}
		pick := -1
		for c, b := range bounds {
			if !math.IsInf(b, -1) && (pick == -1 || b > bounds[pick]) {
				pick = c
			}
		}
		work.visits += int64(len(bounds))
		if pick == -1 || (bounds[pick] < best && work.refined >= DefaultRefineTopK) {
			break
		}
		bounds[pick] = math.Inf(-1) // refined: out of the running
		best = sg.refineBlock(ws, luts, logTabs, pick, nbx)
	}
	work.addTo(sg.metrics)
	return ws.cand
}
