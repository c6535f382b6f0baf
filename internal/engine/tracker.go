package engine

// Tracker is the temporal layer over the engine: the paper's headline
// is *tracking* roaming clients in real time, not one-shot fixes. The
// engine produces a fix per quorum flush; the Tracker folds each fix
// into a per-client constant-velocity Kalman filter (internal/track),
// keeps that state across captures and evicts clients that go quiet.
// Each fix's smoothed update leaves the engine on its Result.Track.

import (
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/track"
)

// MaxClockSkew is the clock-skew guard shared by the Tracker and the
// CaptureSink: a timestamp more than this far in the server's future
// comes from an AP with a broken clock. The tracker folds such a fix in
// as stamped "now" (counted in SkewClamped) and the sink leaves it out
// of the job's time selection (counted in SkewIgnored), so one bad
// clock cannot fast-forward the Kalman dt and poison the velocity
// estimate.
const MaxClockSkew = 10 * time.Second

// DegradedGateScale widens the Mahalanobis gate for fixes flagged
// Degraded (localized from fewer APs, so noisier): the gate radius is
// multiplied by this for that one update.
const DegradedGateScale = 1.5

// TrackerOptions configures a Tracker. The zero value picks walking-
// scale defaults.
type TrackerOptions struct {
	// ProcessNoise is the Kalman acceleration spectral density in
	// m²/s³ (0 means 1.0, which suits walking).
	ProcessNoise float64
	// MeasSigma is the expected per-axis fix error in metres (0 means
	// 0.5, ArrayTrack-with-several-APs scale).
	MeasSigma float64
	// Gate is the Mahalanobis outlier gate in standard deviations
	// (0 means 4; negative disables gating).
	Gate float64
	// TTL evicts a client whose last fix is older than this (0 means
	// 30 s; negative disables eviction, and Tracker.TTL reads it as 0).
	TTL time.Duration
	// Now overrides the clock, for tests and simulations. nil means
	// time.Now.
	Now func() time.Time
}

func (o TrackerOptions) withDefaults() TrackerOptions {
	if o.ProcessNoise == 0 {
		o.ProcessNoise = 1.0
	}
	if o.MeasSigma == 0 {
		o.MeasSigma = 0.5
	}
	if o.Gate == 0 {
		o.Gate = 4
	} else if o.Gate < 0 {
		o.Gate = 0
	}
	if o.TTL == 0 {
		o.TTL = 30 * time.Second
	} else if o.TTL < 0 {
		o.TTL = 0
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// TrackUpdate is one smoothed track point, emitted for every fix the
// tracker observes.
type TrackUpdate struct {
	ClientID uint32
	// Time is the fix timestamp the update was computed at.
	Time time.Time
	// Raw is the unsmoothed position fix from the localization
	// pipeline.
	Raw geom.Point
	// Smoothed is the Kalman state after folding the fix in. When the
	// gate rejected the fix, Smoothed is the predicted position.
	Smoothed geom.Point
	// Vel is the velocity estimate.
	Vel geom.Vec
	// Accepted reports whether the fix passed the outlier gate.
	Accepted bool
	// Degraded marks an update produced from a degraded-quorum fix
	// (fewer APs than the full quorum; see server.Capture.Degraded).
	Degraded bool
}

// TrackerStats is a snapshot of tracker counters.
type TrackerStats struct {
	// Clients is the number of live (non-evicted) tracks.
	Clients int
	// Observed is the cumulative number of fixes folded in.
	Observed uint64
	// GateRejects is the cumulative number of fixes the Mahalanobis
	// gate discarded.
	GateRejects uint64
	// Evicted is the cumulative number of stale clients removed.
	Evicted uint64
	// SkewClamped is the cumulative number of fixes whose timestamp sat
	// beyond MaxClockSkew in the future and was clamped to the
	// tracker's clock.
	SkewClamped uint64
	// NonMonotonic is the cumulative number of fixes that arrived with
	// a timestamp behind their track's last fix (folded in with dt = 0,
	// never rejected — capture grouping can legitimately reorder
	// flushes slightly, but a persistent count flags a skewed AP
	// clock).
	NonMonotonic uint64
	// DegradedObserved is the cumulative number of degraded-quorum
	// fixes folded in.
	DegradedObserved uint64
}

type clientTrack struct {
	filter *track.Filter
	last   time.Time
	// lastAccepted records whether the most recent ObserveFix passed the
	// outlier gate, so introspection reports the track's real state
	// instead of assuming acceptance.
	lastAccepted bool
}

// staleAt reports whether the track has been silent longer than ttl at
// time at, so ObserveFix would restart it rather than continue it. With
// eviction off (ttl ≤ 0) or no fix stamped yet, no track is stale.
// Caller holds the tracker's mu.
func (ct *clientTrack) staleAt(at time.Time, ttl time.Duration) bool {
	return ttl > 0 && !ct.last.IsZero() && at.Sub(ct.last) > ttl
}

// Tracker keeps per-client Kalman state across captures. All methods
// are safe for concurrent use: one mutex guards the client map, every
// track, the counters and the TTL. ObserveFix holds it for one Kalman
// update (under a µs, against the ≈ 210 µs of CPU a six-AP,
// three-frame fix takes before it), so a sweep never evicts a track
// while a fix is being folded in.
type Tracker struct {
	opt TrackerOptions

	mu      sync.Mutex
	clients map[uint32]*clientTrack
	// ttl is the live eviction TTL (0 disables). It starts at opt.TTL
	// and is the one tracker knob that hot-reloads (SetTTL).
	ttl       time.Duration
	lastSweep time.Time

	observed     uint64
	gateRejects  uint64
	evicted      uint64
	skewClamped  uint64
	nonMonotonic uint64
	degradedObs  uint64
}

// NewTracker returns a tracker with the given options.
func NewTracker(opt TrackerOptions) *Tracker {
	opt = opt.withDefaults()
	return &Tracker{opt: opt, clients: make(map[uint32]*clientTrack), ttl: opt.TTL}
}

// TTL returns the live eviction TTL (0 means eviction is disabled).
func (t *Tracker) TTL() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ttl
}

// SetTTL hot-reloads the eviction TTL: positive enables eviction after
// d of silence, zero or negative disables it. Takes effect on the next
// ObserveFix/Predict/Snapshot; already-evicted tracks do not come back.
func (t *Tracker) SetTTL(d time.Duration) {
	t.mu.Lock()
	t.ttl = max(d, 0)
	t.mu.Unlock()
}

// ObserveFix folds one raw fix for a client into its track and returns
// the resulting update. A zero timestamp uses the tracker's clock. The
// first fix for a client initializes its filter at the fix; fixes
// older than the track's last timestamp are treated as simultaneous
// (dt = 0) rather than rejected, since capture grouping can reorder
// flushes slightly, and are counted (NonMonotonic). A client returning
// after more than TTL of silence gets a fresh track: extrapolating a
// constant-velocity state across a long gap would predict a position
// (and gate) with no relation to where the client reappears.
//
// A degraded fix (localized from fewer APs, so noisier) is folded in
// through a Mahalanobis gate widened by DegradedGateScale, so a
// genuine-but-noisier fix keeps updating the track while the regular
// gate still rejects wild outliers. Either way, timestamps beyond
// MaxClockSkew in the tracker's future are clamped to now (a broken
// AP clock must not fast-forward the Kalman dt).
func (t *Tracker) ObserveFix(clientID uint32, fix geom.Point, at time.Time, degraded bool) TrackUpdate {
	skewed := false
	if at.IsZero() {
		at = t.opt.Now()
	} else if now := t.opt.Now(); at.Sub(now) > MaxClockSkew {
		at = now
		skewed = true
	}

	gateScale := 1.0
	if degraded {
		gateScale = DegradedGateScale
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	ct, ok := t.clients[clientID]
	if ok && ct.staleAt(at, t.ttl) {
		t.evicted++
		ok = false
	}
	if !ok {
		ct = &clientTrack{filter: track.NewFilter(t.opt.ProcessNoise, t.opt.MeasSigma, t.opt.Gate)}
		t.clients[clientID] = ct
	}
	t.maybeSweepLocked(at)

	dt := 0.0
	if !ct.last.IsZero() {
		switch d := at.Sub(ct.last).Seconds(); {
		case d > 0:
			dt = d
		case d < 0:
			t.nonMonotonic++
		}
	}
	accepted, err := ct.filter.UpdateScaled(fix, dt, gateScale)
	if err != nil {
		// Degenerate covariance: restart the track at the fix.
		ct.filter = track.NewFilter(t.opt.ProcessNoise, t.opt.MeasSigma, t.opt.Gate)
		accepted, _ = ct.filter.UpdateScaled(fix, 0, gateScale)
	}
	if at.After(ct.last) {
		ct.last = at
	}
	ct.lastAccepted = accepted
	pos, vel := ct.filter.State()

	t.observed++
	if !accepted {
		t.gateRejects++
	}
	if skewed {
		t.skewClamped++
	}
	if degraded {
		t.degradedObs++
	}
	return TrackUpdate{
		ClientID: clientID,
		Time:     at,
		Raw:      fix,
		Smoothed: pos,
		Vel:      vel,
		Accepted: accepted,
		Degraded: degraded,
	}
}

// maybeSweepLocked evicts stale clients at most once per TTL/4. Caller
// holds t.mu.
func (t *Tracker) maybeSweepLocked(now time.Time) {
	if t.ttl <= 0 {
		return
	}
	if !t.lastSweep.IsZero() && now.Sub(t.lastSweep) < t.ttl/4 {
		return
	}
	t.lastSweep = now
	for id, ct := range t.clients {
		if ct.staleAt(now, t.ttl) {
			delete(t.clients, id)
			t.evicted++
		}
	}
}

// Predict returns the client's track prediction at time at (zero =
// the tracker's clock): the expected position and the innovation
// covariance the next fix will be gated against, extrapolated from
// the last accepted update without mutating the track. It reports
// false when the client has no track, the track is stale (older than
// TTL — ObserveFix would restart it, so its prediction is meaningless),
// or the track has fewer than minFixes accepted fixes (velocity not
// yet observable). This is the covariance→region export the engine's
// predictive localization path consumes.
func (t *Tracker) Predict(clientID uint32, at time.Time, minFixes int) (track.Prediction, bool) {
	if at.IsZero() {
		at = t.opt.Now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ct, ok := t.clients[clientID]
	if !ok || ct.staleAt(at, t.ttl) || ct.filter.Accepted() < minFixes {
		return track.Prediction{}, false
	}
	dt := 0.0
	if !ct.last.IsZero() {
		if d := at.Sub(ct.last).Seconds(); d > 0 {
			dt = d
		}
	}
	return ct.filter.PredictState(dt)
}

// Snapshot returns a client's current smoothed state, if it is being
// tracked. It applies the same TTL staleness rule as Predict — a track
// ObserveFix would restart rather than continue reports false — and
// Accepted reflects whether the client's most recent fix actually
// passed the outlier gate, not an assumption.
func (t *Tracker) Snapshot(clientID uint32) (TrackUpdate, bool) {
	now := t.opt.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	ct, ok := t.clients[clientID]
	if !ok || ct.staleAt(now, t.ttl) {
		return TrackUpdate{}, false
	}
	pos, vel := ct.filter.State()
	return TrackUpdate{
		ClientID: clientID,
		Time:     ct.last,
		Smoothed: pos,
		Vel:      vel,
		Accepted: ct.lastAccepted,
	}, true
}

// ClientSnapshot is one client's complete serialized track state: the
// Kalman filter (position, velocity, covariance, accept counters) plus
// the timestamps the tracker's TTL and dt arithmetic depend on. It is
// the unit Tracker.SnapshotAll emits and Restore consumes, and
// round-trips exactly through encoding/json.
type ClientSnapshot struct {
	ClientID uint32 `json:"client_id"`
	// Filter is the client's Kalman state, restored bit-identically.
	Filter track.FilterState `json:"filter"`
	// LastUnixNano is the track's last fix timestamp (UnixNano; 0 for
	// a never-stamped track).
	LastUnixNano int64 `json:"last_unix_nano"`
	// LastAccepted mirrors whether the most recent fix passed the gate.
	LastAccepted bool `json:"last_accepted"`
}

// SnapshotAll captures every live client track, sorted by client ID so
// the output is deterministic for a given tracker state. Tracks past
// TTL are skipped — ObserveFix would restart them, so carrying them across
// a restart would only resurrect state the live tracker had already
// declared dead. This is the drain-side half of the restart (and shard
// migration) primitive; Restore is the other half.
func (t *Tracker) SnapshotAll() []ClientSnapshot {
	now := t.opt.Now()
	t.mu.Lock()
	out := make([]ClientSnapshot, 0, len(t.clients))
	for id, ct := range t.clients {
		out = t.appendLiveLocked(out, id, ct, now)
	}
	t.mu.Unlock()
	return sortSnapshots(out)
}

// appendLiveLocked appends ct's snapshot to out unless the track is
// stale at now. Caller holds t.mu.
func (t *Tracker) appendLiveLocked(out []ClientSnapshot, id uint32, ct *clientTrack, now time.Time) []ClientSnapshot {
	if ct.staleAt(now, t.ttl) {
		return out
	}
	var lastNano int64
	if !ct.last.IsZero() {
		lastNano = ct.last.UnixNano()
	}
	return append(out, ClientSnapshot{
		ClientID:     id,
		Filter:       ct.filter.Snapshot(),
		LastUnixNano: lastNano,
		LastAccepted: ct.lastAccepted,
	})
}

// sortSnapshots orders snapshots by client ID and drops repeats of an
// ID (taken under one lock, so they are identical).
func sortSnapshots(out []ClientSnapshot) []ClientSnapshot {
	sort.Slice(out, func(i, j int) bool { return out[i].ClientID < out[j].ClientID })
	return slices.CompactFunc(out, func(a, b ClientSnapshot) bool { return a.ClientID == b.ClientID })
}

// Restore installs snapshotted tracks, overwriting any existing state
// for the same client IDs. Each filter resumes bit-identically — a
// Predict or ObserveFix after Restore computes exactly what the
// snapshotted tracker would have. Snapshots with invalid filter state
// are skipped rather than poisoning the map; the count of installed
// tracks is returned. Meant for startup (-restore) and shard handoff;
// restoring into a serving tracker is safe but replaces the affected
// clients' live state.
func (t *Tracker) Restore(snaps []ClientSnapshot) int {
	n := 0
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range snaps {
		f, err := track.NewFilterFromState(s.Filter)
		if err != nil {
			continue
		}
		ct := &clientTrack{filter: f, lastAccepted: s.LastAccepted}
		if s.LastUnixNano != 0 {
			ct.last = time.Unix(0, s.LastUnixNano)
		}
		t.clients[s.ClientID] = ct
		n++
	}
	return n
}

// SnapshotClients is SnapshotAll restricted to the given client IDs —
// the shard-handoff export: the losing shard snapshots exactly the
// clients moving to another shard. IDs without a live (non-stale)
// track are silently absent from the result, and an ID given twice
// appears once.
func (t *Tracker) SnapshotClients(ids []uint32) []ClientSnapshot {
	if len(ids) == 0 {
		return nil
	}
	now := t.opt.Now()
	t.mu.Lock()
	out := make([]ClientSnapshot, 0, len(ids))
	for _, id := range ids {
		if ct, ok := t.clients[id]; ok {
			out = t.appendLiveLocked(out, id, ct, now)
		}
	}
	t.mu.Unlock()
	return sortSnapshots(out)
}

// Remove drops the given clients' tracks, returning how many existed.
// The shard-handoff release: once the gaining shard has restored a
// moving client, the losing shard forgets it so a later shard-map
// change cannot resurrect a stale duplicate.
func (t *Tracker) Remove(ids []uint32) int {
	n := 0
	t.mu.Lock()
	for _, id := range ids {
		if _, ok := t.clients[id]; ok {
			delete(t.clients, id)
			n++
		}
	}
	t.mu.Unlock()
	return n
}

// Clients returns the IDs of all live tracks, sorted (the introspection
// endpoint's index).
func (t *Tracker) Clients() []uint32 {
	t.mu.Lock()
	ids := make([]uint32, 0, len(t.clients))
	for id := range t.clients {
		ids = append(ids, id)
	}
	t.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Stats returns a snapshot of the tracker's counters.
func (t *Tracker) Stats() TrackerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TrackerStats{
		Clients:          len(t.clients),
		Observed:         t.observed,
		GateRejects:      t.gateRejects,
		Evicted:          t.evicted,
		SkewClamped:      t.skewClamped,
		NonMonotonic:     t.nonMonotonic,
		DegradedObserved: t.degradedObs,
	}
}
