package music

// Per-worker scratch state for the spectrum pipeline. Allocating
// correlation matrices, eigen-scratch, subspaces, and snapshot vectors
// afresh for every frame makes garbage that dominates the profile at
// engine rates. A Workspace owns one reusable copy of each
// intermediate, and every stage of the §2.3 chain has a WS variant
// threaded through it. There is one arithmetic path: a nil workspace
// is a fresh one, so a reused workspace and a fresh one give
// bit-for-bit identical spectra (pinned by
// TestWorkspaceSpectrumBitIdentical).

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/mat"
)

// Workspace holds every buffer one spectrum computation needs. It is
// owned by exactly one goroutine at a time (use a WorkspacePool to
// share across workers) and grows to the largest problem it has seen.
// The zero value is ready to use. Every exported function taking a
// *Workspace treats nil as a fresh zero Workspace: the results are then
// the caller's alone, at the cost of allocating every intermediate.
type Workspace struct {
	snapRows [][]complex128
	snapData []complex128
	r        *mat.Matrix
	// full is VoteCorrelationWS's whole-array matrix, kept apart from r
	// so that later frames' correlations leave it for the vote.
	full   *mat.Matrix
	fb     *mat.Matrix
	rs     *mat.Matrix
	eig    mat.EigWorkspace
	noise  *mat.Matrix
	signal *mat.Matrix
	// ry holds the real form's terms y = Qᴴ·x as y_r and y_i planes; rp
	// one row of it and the terms' coefficients; sym the real form, then
	// its real eigenvectors (subspace.go).
	ry, rp, sym []float64

	// Split-plane scratch for the table scans (packed.go): the noise
	// subspace packed column-major; the lag-domain diagonal sums; the
	// generic Bartlett scan's correlation planes, which the lag form
	// borrows for its per-bin cross sums; and a short pair for the one
	// vector a kernel needs beside those — R·a, the ninth-antenna cross
	// column, a gathered steering row.
	enRe, enIm   []float64
	lagRe, lagIm []float64
	rRe, rIm     []float64
	raRe, raIm   []float64
	// guardFallbacks counts lag-form MUSIC bins recomputed by the
	// sum-of-squares kernel (packed.go).
	guardFallbacks uint64

	// phasors is the per-element calibration correction e^{−jψ_k},
	// computed once per frame and applied to every snapshot.
	phasors []complex128

	// free holds spectra handed back through Recycle for the scans to
	// refill; frames and peaks are the per-AP spectrum list and the
	// per-spectrum peak lists of the combine stage.
	free   []*Spectrum
	frames []*Spectrum
	peaks  [][]Peak
}

// orFresh resolves a caller's nil workspace to a fresh one. Exported
// entry points call it once; nothing below them sees nil.
func orFresh(ws *Workspace) *Workspace {
	if ws == nil {
		return &Workspace{}
	}
	return ws
}

// spectrum returns an n-bin spectrum for a scan to fill: a recycled one
// when available, else a fresh allocation, marked as lent by ws.
// Contents are unspecified; every scan writes all n bins.
func (ws *Workspace) spectrum(n int) *Spectrum {
	var s *Spectrum
	if k := len(ws.free) - 1; k >= 0 {
		s = ws.free[k]
		ws.free = ws.free[:k]
	}
	if s == nil || cap(s.P) < n {
		s = NewSpectrum(n)
	}
	s.P = s.P[:n]
	s.lender = ws
	return s
}

// CloneSpectrum returns a copy of s in storage lent by ws, which
// Recycle takes back.
func (ws *Workspace) CloneSpectrum(s *Spectrum) *Spectrum {
	c := ws.spectrum(len(s.P))
	copy(c.P, s.P)
	return c
}

// Recycle hands spectra the caller has finished with back to the
// workspace, which reuses their storage for later scan outputs. The
// caller must not touch them afterwards. Only spectra this workspace
// lent are taken, each once; any other (built by hand, by another
// workspace, by an injected estimator, or already recycled) is left
// alone, so passing a spectrum someone else still holds is harmless.
// Spectra never recycled are simply the caller's to keep. The free list
// needs no bound of its own: a spectrum is allocated only when the list
// is empty, so the list never holds more than the most spectra the
// workspace has had out at once — one job's frames, votes and combined
// spectra.
func (ws *Workspace) Recycle(specs ...*Spectrum) {
	for _, s := range specs {
		if s != nil && s.lender == ws {
			s.lender = nil
			ws.free = append(ws.free, s)
		}
	}
}

// FrameList returns an empty workspace-owned spectrum list with room
// for n entries, valid until the next call.
func (ws *Workspace) FrameList(n int) []*Spectrum {
	if cap(ws.frames) < n {
		ws.frames = make([]*Spectrum, 0, n)
	}
	return ws.frames[:0]
}

// PeakLists returns Peaks(minRel) of every spectrum, in order, in
// workspace-owned lists valid until the next call.
func (ws *Workspace) PeakLists(spectra []*Spectrum, minRel float64) [][]Peak {
	for len(ws.peaks) < len(spectra) {
		ws.peaks = append(ws.peaks, nil)
	}
	lists := ws.peaks[:len(spectra)]
	for i, s := range spectra {
		lists[i] = s.AppendPeaks(lists[i][:0], minRel)
	}
	return lists
}

// GuardFallbacks returns how many lag-form MUSIC bins this workspace
// has recomputed with the sum-of-squares kernel because their
// denominator fell under the cancellation guard (diagnostics).
func (ws *Workspace) GuardFallbacks() uint64 { return ws.guardFallbacks }

// WorkspacePool is a typed sync.Pool of Workspaces: one Get/Put pair
// per localization job keeps steady-state allocations near zero
// without binding workspaces to specific worker goroutines.
type WorkspacePool struct {
	p sync.Pool
}

// Get returns a workspace from the pool.
func (wp *WorkspacePool) Get() *Workspace { return wp.p.Get().(*Workspace) }

// Put returns a workspace to the pool.
func (wp *WorkspacePool) Put(ws *Workspace) { wp.p.Put(ws) }

var sharedWorkspaces = &WorkspacePool{p: sync.Pool{New: func() any { return &Workspace{} }}}

// SharedWorkspacePool returns the process-wide pool every core.Pipeline
// draws its per-worker workspaces from.
func SharedWorkspacePool() *WorkspacePool { return sharedWorkspaces }

// SnapshotsAtWS is SnapshotsAt writing into workspace-owned storage:
// one flat sample buffer plus a reusable row-header slice. Returned
// rows are valid until the workspace's next use.
func SnapshotsAtWS(ws *Workspace, streams [][]complex128, offset, maxSamples int) [][]complex128 {
	ws = orFresh(ws)
	if len(streams) == 0 {
		return nil
	}
	ns := len(streams[0])
	if offset < 0 || offset >= ns {
		offset = 0
	}
	n := ns - offset
	if maxSamples > 0 && n > maxSamples {
		n = maxSamples
	}
	m := len(streams)
	if cap(ws.snapData) < n*m {
		ws.snapData = make([]complex128, n*m)
	}
	ws.snapData = ws.snapData[:n*m]
	if cap(ws.snapRows) < n {
		ws.snapRows = make([][]complex128, n)
	}
	ws.snapRows = ws.snapRows[:n]
	for t := 0; t < n; t++ {
		v := ws.snapData[t*m : (t+1)*m : (t+1)*m]
		for k := range streams {
			v[k] = streams[k][offset+t]
		}
		ws.snapRows[t] = v
	}
	return ws.snapRows
}

// CorrelationMatrixWS estimates Rxx = E[x·xᴴ] from snapshots, each a
// length-M per-antenna sample vector (Eq. 4's sample average),
// accumulating into a workspace-owned matrix. The returned matrix
// aliases ws and is valid until the workspace's next correlation.
func CorrelationMatrixWS(ws *Workspace, snapshots [][]complex128) (*mat.Matrix, error) {
	return correlate(&orFresh(ws).r, snapshots, -1)
}

// VoteCorrelationWS is CorrelationMatrixWS for the §2.3.4 vote: every
// element of the snapshots, the ninth antenna included, correlated into
// a slot of ws that later correlations leave alone. The matrix is valid
// until the next VoteCorrelationWS.
func VoteCorrelationWS(ws *Workspace, snapshots [][]complex128) (*mat.Matrix, error) {
	return correlate(&orFresh(ws).full, snapshots, -1)
}

// correlate accumulates the sample correlation of the first n elements
// of every snapshot into *dst, reusing its storage. n < 0 means all
// elements, every snapshot as long as the first.
func correlate(dst **mat.Matrix, snapshots [][]complex128, n int) (*mat.Matrix, error) {
	if len(snapshots) == 0 {
		return nil, errors.New("music: no snapshots")
	}
	exact := n < 0
	if exact {
		n = len(snapshots[0])
	}
	r := mat.ReuseMatrix(*dst, n, n).Zero()
	*dst = r
	w := 1 / float64(len(snapshots))
	for _, x := range snapshots {
		if len(x) < n || exact && len(x) != n {
			return nil, fmt.Errorf("music: ragged snapshot (%d vs %d antennas)", len(x), n)
		}
		r.OuterAccumulate(x[:n], w)
	}
	return r, nil
}

// ForwardBackwardWS returns the forward-backward averaged correlation
// matrix (R + J·R̄·J)/2, where J is the exchange matrix. For a uniform
// linear array this doubles the effective decorrelating groups of
// spatial smoothing at no antenna cost — a standard companion to the
// Shan–Wax–Kailath smoothing the paper uses. It writes into a
// workspace-owned matrix (distinct from ws's correlation matrix, so the
// input may be the result of CorrelationMatrixWS).
func ForwardBackwardWS(ws *Workspace, r *mat.Matrix) *mat.Matrix {
	ws = orFresh(ws)
	m := r.Rows
	ws.fb = mat.ReuseMatrix(ws.fb, m, m)
	out := ws.fb
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			v := r.At(i, j)
			w := r.At(m-1-i, m-1-j)
			out.Set(i, j, (v+complex(real(w), -imag(w)))/2)
		}
	}
	return out
}

// SpatialSmoothWS applies forward spatial smoothing with ng
// overlapping subarray groups to an M×M correlation matrix, returning
// the (M−ng+1)×(M−ng+1) smoothed matrix (§2.3.2, Figure 6) in a
// workspace-owned matrix. ng=1 returns a copy. It decorrelates
// phase-locked multipath arrivals so MUSIC can resolve them.
func SpatialSmoothWS(ws *Workspace, r *mat.Matrix, ng int) (*mat.Matrix, error) {
	ws = orFresh(ws)
	m := r.Rows
	if r.Cols != m {
		return nil, errors.New("music: correlation matrix must be square")
	}
	if ng < 1 || ng >= m {
		return nil, fmt.Errorf("music: invalid smoothing groups %d for %d antennas", ng, m)
	}
	sub := m - ng + 1
	ws.rs = mat.ReuseMatrix(ws.rs, sub, sub).Zero()
	out := ws.rs
	for g := 0; g < ng; g++ {
		for i := 0; i < sub; i++ {
			src := r.Data[(g+i)*m+g : (g+i)*m+g+sub]
			dst := out.Data[i*sub : (i+1)*sub]
			for j, v := range src {
				dst[j] += v
			}
		}
	}
	scale := complex(1/float64(ng), 0)
	for i := range out.Data {
		out.Data[i] *= scale
	}
	return out, nil
}

// SubspacesWS splits the eigenvectors of a correlation matrix into
// noise and signal subspaces. D, the signal count, is chosen as the
// number of eigenvalues exceeding thresholdFrac times the largest
// eigenvalue (§2.3.1: "a threshold that is a fraction of the largest
// eigenvalue"), capped at maxD when maxD > 0. At low SNR the threshold
// rule alone inflates D until almost no noise subspace remains —
// capping at M/2 (the caller's default) keeps the spectrum meaningful.
// At least one eigenvector is always left in the noise subspace, since
// MUSIC needs one. The eigendecomposition scratch and the subspace
// matrices come from the workspace; the returned matrices alias ws and
// are valid until its next use.
func SubspacesWS(ws *Workspace, r *mat.Matrix, thresholdFrac float64, maxD int) (noise, signal *mat.Matrix, d int, err error) {
	ws = orFresh(ws)
	e, err := mat.EigHermitianWS(r, &ws.eig)
	if err != nil {
		return nil, nil, 0, err
	}
	m := r.Rows
	d = signalCount(e.Values, thresholdFrac, maxD)
	nN := m - d
	ws.noise = mat.ReuseMatrix(ws.noise, m, nN)
	ws.signal = mat.ReuseMatrix(ws.signal, m, d)
	noise, signal = ws.noise, ws.signal
	for k := 0; k < nN; k++ {
		for i := 0; i < m; i++ {
			noise.Set(i, k, e.Vectors.At(i, k))
		}
	}
	for k := 0; k < d; k++ {
		for i := 0; i < m; i++ {
			signal.Set(i, k, e.Vectors.At(i, nN+k))
		}
	}
	return noise, signal, d, nil
}
