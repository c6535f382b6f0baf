package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"time"
)

// Knobs is the set of parameters safe to change on a serving process:
// none of them invalidate in-flight jobs or cached state — caches
// re-evict to a shrunk budget, the scheduler re-reads quotas per
// admission, and the predictive sigma / track TTL are loaded per job.
// Every field is a pointer; nil means "leave unchanged", so a partial
// JSON document (or config file) updates only what it names.
type Knobs struct {
	// SynthCacheBudget resizes the synthesis LUT cache (bytes,
	// 0 = unbounded).
	SynthCacheBudget *int64 `json:"synth_cache_budget,omitempty"`
	// SteeringCacheBudget resizes the steering-vector cache (bytes,
	// 0 = unbounded).
	SteeringCacheBudget *int64 `json:"steering_cache_budget,omitempty"`
	// ClientQuota resets the per-client scheduler token budget
	// (0 = unlimited).
	ClientQuota *int `json:"client_quota,omitempty"`
	// PredictSigma resets the predictive-region sigma (0 = engine
	// default, negative disables the predictive path; clamped up to
	// the tracker gate).
	PredictSigma *float64 `json:"predict_sigma,omitempty"`
	// TrackTTLMillis resets the track eviction TTL (≤0 disables
	// eviction).
	TrackTTLMillis *int64 `json:"track_ttl_ms,omitempty"`
	// ShedAfterMillis resets the overload-shedding age bound (≤0
	// disables shedding).
	ShedAfterMillis *int64 `json:"shed_after_ms,omitempty"`
}

// DecodeKnobs reads one JSON knobs document — a POST /knobs body or a
// knobs file. A key that names no knob refuses the whole document, so a
// misspelled or retired knob never half-applies without a word.
func DecodeKnobs(r io.Reader) (Knobs, error) {
	var k Knobs
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&k)
	return k, err
}

// Apply pushes every non-nil knob onto the serving process and returns
// the names of the knobs it applied (for the reload log line). Knobs
// whose target is absent — the predictive sigma and the TTL of an
// engine without a tracker — are skipped silently: the document stays
// portable across configurations.
func (s *Server) Apply(k Knobs) []string {
	var applied []string
	cfg := s.Engine.Config()
	if k.SynthCacheBudget != nil {
		cfg.SynthCache.SetBudget(*k.SynthCacheBudget)
		applied = append(applied, "synth_cache_budget")
	}
	if k.SteeringCacheBudget != nil {
		cfg.Steering.SetBudget(*k.SteeringCacheBudget)
		applied = append(applied, "steering_cache_budget")
	}
	if k.ClientQuota != nil {
		s.Engine.SetClientQuota(*k.ClientQuota)
		applied = append(applied, "client_quota")
	}
	if tr := s.Engine.Tracker(); tr != nil {
		if k.PredictSigma != nil {
			s.Engine.SetPredictSigma(*k.PredictSigma)
			applied = append(applied, "predict_sigma")
		}
		if k.TrackTTLMillis != nil {
			tr.SetTTL(time.Duration(*k.TrackTTLMillis) * time.Millisecond)
			applied = append(applied, "track_ttl_ms")
		}
	}
	if k.ShedAfterMillis != nil {
		s.Engine.SetShedAfter(time.Duration(*k.ShedAfterMillis) * time.Millisecond)
		applied = append(applied, "shed_after_ms")
	}
	return applied
}

// Current reads back the live values of every knob the server can
// reach, for GET /knobs and the reload log.
func (s *Server) Current() Knobs {
	cfg := s.Engine.Config()
	synth, steer := cfg.SynthCache.Budget(), cfg.Steering.Budget()
	k := Knobs{SynthCacheBudget: &synth, SteeringCacheBudget: &steer}
	q := s.Engine.ClientQuota()
	k.ClientQuota = &q
	sigma := s.Engine.PredictSigma()
	k.PredictSigma = &sigma
	if tr := s.Engine.Tracker(); tr != nil {
		ttl := int64(tr.TTL() / time.Millisecond)
		k.TrackTTLMillis = &ttl
	}
	shed := int64(s.Engine.ShedAfter() / time.Millisecond)
	k.ShedAfterMillis = &shed
	return k
}

func (s *Server) handleKnobsGet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Current())
}

func (s *Server) handleKnobsPost(w http.ResponseWriter, r *http.Request) {
	k, err := DecodeKnobs(r.Body)
	if err != nil {
		http.Error(w, "bad knobs document: "+err.Error(), http.StatusBadRequest)
		return
	}
	applied := s.Apply(k)
	writeJSON(w, struct {
		Applied []string `json:"applied"`
		Live    Knobs    `json:"live"`
	}{Applied: applied, Live: s.Current()})
}
