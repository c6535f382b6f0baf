package engine

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/server"
)

// ErrNoKnownAP is delivered to OnResult when none of a flush's capture
// records came from a resolvable AP.
var ErrNoKnownAP = errors.New("engine: quorum flush contained no known AP")

// CaptureSink bridges server.Backend's quorum flushes into the engine:
// it satisfies server.Dispatcher, so the backend's ingest path hands
// grouped captures off asynchronously instead of running the whole
// localization pipeline inline under the caller.
type CaptureSink struct {
	// Engine executes the localization jobs. Required.
	Engine *Engine
	// Resolve maps a wire AP identifier to its array description;
	// returning nil skips that AP's captures. Required.
	Resolve func(apID uint32) *core.AP
	// Min, Max bound the synthesis search area.
	Min, Max geom.Point
	// OnResult receives every fix or failure; nil discards results.
	OnResult func(Result)
	// OnTrack receives the smoothed track update for every successful
	// fix when the engine runs a Tracker; nil discards them. It fires
	// in addition to OnResult (whose Result carries the same update).
	OnTrack func(TrackUpdate)
	// Now overrides the clock-skew guard's clock (tests); nil means
	// time.Now. A capture stamped more than MaxClockSkew in its future
	// is ignored for the job's time selection (newest capture) and
	// counted, so one AP with a broken clock cannot steer the Kalman
	// dt. The frames themselves still localize.
	Now func() time.Time

	skewIgnored atomic.Uint64
}

// SkewIgnored returns how many capture timestamps the clock-skew
// guard has excluded from time selection.
func (s *CaptureSink) SkewIgnored() uint64 { return s.skewIgnored.Load() }

// Dispatch groups a flushed capture set per AP (first-seen order,
// several frames per AP) and submits the localization job. Records
// from APs Resolve does not know are discarded entirely — frames and
// timestamps alike: a capture whose provenance cannot be established
// must not poison the Kalman state with a bogus timestamp. It is called
// by the backend on its ingest path, so it only enqueues — blocking at
// most on engine backpressure, never on the pipeline.
func (s *CaptureSink) Dispatch(clientID uint32, captures []server.Capture) {
	var order []uint32
	byAP := make(map[uint32][]core.FrameCapture)
	newest := make(map[uint32]time.Time)
	resolved := make(map[uint32]*core.AP)
	var degraded bool
	// Clock-skew guard: compute the admissible-future horizon once per
	// flush. Captures stamped beyond it still localize, but their
	// timestamps are ignored for newest selection.
	now := time.Now
	if s.Now != nil {
		now = s.Now
	}
	horizon := now().Add(MaxClockSkew)
	for _, c := range captures {
		ap, seen := resolved[c.APID]
		if !seen {
			ap = s.Resolve(c.APID)
			resolved[c.APID] = ap
		}
		if ap == nil {
			continue // unknown AP: the record carries no influence
		}
		if _, ok := byAP[c.APID]; !ok {
			order = append(order, c.APID)
		}
		byAP[c.APID] = append(byAP[c.APID], core.FrameCapture{Streams: c.Streams})
		degraded = degraded || c.Degraded
		if c.Timestamp.After(horizon) {
			s.skewIgnored.Add(1)
			continue // skewed stamp: the frames count, the clock does not
		}
		if c.Timestamp.After(newest[c.APID]) {
			newest[c.APID] = c.Timestamp
		}
	}
	aps := make([]*core.AP, 0, len(order))
	frames := make([][]core.FrameCapture, 0, len(order))
	// The newest resolved capture timestamp advances the client's
	// track.
	var at time.Time
	for _, id := range order {
		aps = append(aps, resolved[id])
		frames = append(frames, byAP[id])
		if newest[id].After(at) {
			at = newest[id]
		}
	}
	// The sink owns the flushed captures (server.Dispatcher contract):
	// their stream buffers may be borrowed from pooled ingest
	// workspaces, and go back to the pool once the job that consumed
	// them completes — the release hook of the zero-copy ingest path.
	// finish runs exactly once per flush, on every path out.
	finish := func(r Result) {
		if s.OnResult != nil {
			s.OnResult(r)
		}
		if s.OnTrack != nil && r.Track != nil {
			s.OnTrack(*r.Track)
		}
		server.ReleaseAll(captures)
	}
	if len(aps) == 0 {
		finish(Result{ClientID: clientID, Err: ErrNoKnownAP})
		return
	}
	req := Request{
		ClientID: clientID, APs: aps, Captures: frames,
		Min: s.Min, Max: s.Max, Time: at, Degraded: degraded,
	}
	if err := s.Engine.Submit(req, finish); err != nil {
		finish(Result{ClientID: clientID, Err: err})
	}
}
