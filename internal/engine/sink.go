package engine

import (
	"errors"
	"slices"
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
	// When the engine runs a Tracker, a fix's smoothed update is its
	// Result.Track.
	OnResult func(Result)
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
	// Clock-skew guard: compute the admissible-future horizon once per
	// flush. Captures stamped beyond it still localize, but their
	// timestamps are ignored for newest selection.
	now := time.Now
	if s.Now != nil {
		now = s.Now
	}
	horizon := now().Add(MaxClockSkew)
	// A flush holds at most quorum distinct APs, so, as the backend's
	// pending groups do, a linear scan finds each capture's AP: ids are
	// the distinct APs in first-seen order, each resolved once into
	// resolved (nil: unknown, the record carries no influence).
	var idBuf [8]uint32
	var apBuf [8]*core.AP
	ids, resolved := idBuf[:0], apBuf[:0]
	known, total := 0, 0
	var degraded bool
	// The newest resolved capture timestamp advances the client's
	// track.
	var at time.Time
	for _, c := range captures {
		i := slices.Index(ids, c.APID)
		if i < 0 {
			i = len(ids)
			ids = append(ids, c.APID)
			resolved = append(resolved, s.Resolve(c.APID))
			if resolved[i] != nil {
				known++
			}
		}
		if resolved[i] == nil {
			continue
		}
		total++
		degraded = degraded || c.Degraded
		if c.Timestamp.After(horizon) {
			s.skewIgnored.Add(1)
			continue // skewed stamp: the frames count, the clock does not
		}
		if c.Timestamp.After(at) {
			at = c.Timestamp
		}
	}
	// Each known AP's frames, in capture order, on one backing array.
	aps := make([]*core.AP, 0, known)
	frames := make([][]core.FrameCapture, 0, known)
	all := make([]core.FrameCapture, 0, total)
	for i, id := range ids {
		if resolved[i] == nil {
			continue
		}
		first := len(all)
		for _, c := range captures {
			if c.APID == id {
				all = append(all, core.FrameCapture{Streams: c.Streams})
			}
		}
		aps = append(aps, resolved[i])
		frames = append(frames, all[first:len(all):len(all)])
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
