package ops

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/engine"
	"repro/internal/server"
)

// The /cluster endpoints expose the shard-handoff control surface a
// cluster router drives during a rebalance (cluster.Control, mirrored
// by cluster.HTTPShard). Reads are GETs; the operations taking a
// client list are POSTs with a JSON body — a migration can name
// thousands of clients, more than a query string should carry.
//
//	GET  /cluster/ingested  settled-capture counter (consumption barrier)
//	GET  /cluster/clients   every client with shard-local state
//	POST /cluster/inflight  {"clients":[...]} -> summed in-flight jobs
//	POST /cluster/extract   {"clients":[...]} -> v3 frames (octet-stream,
//	                        X-Capture-Count), removing pending groups
//	POST /cluster/snapshot  {"clients":[...]} -> their Kalman tracks
//	POST /cluster/restore   {"tracks":[...]}  -> install snapshots
//	POST /cluster/remove    {"clients":[...]} -> drop tracks
//
// They require both a Backend and a Tracker and answer 404 otherwise:
// a shard without them has nothing to hand off.

// clientsBody is the request body naming the clients an operation
// covers.
type clientsBody struct {
	Clients []uint32 `json:"clients"`
}

// tracksBody carries track snapshots into /cluster/restore and out of
// /cluster/snapshot.
type tracksBody struct {
	Tracks []engine.ClientSnapshot `json:"tracks"`
}

func (s *Server) registerCluster(mux *http.ServeMux) {
	mux.HandleFunc("GET /cluster/ingested", s.clusterGated(s.handleClusterIngested))
	mux.HandleFunc("GET /cluster/clients", s.clusterGated(s.handleClusterClients))
	mux.HandleFunc("POST /cluster/inflight", s.clusterGated(s.handleClusterInFlight))
	mux.HandleFunc("POST /cluster/extract", s.clusterGated(s.handleClusterExtract))
	mux.HandleFunc("POST /cluster/snapshot", s.clusterGated(s.handleClusterSnapshot))
	mux.HandleFunc("POST /cluster/restore", s.clusterGated(s.handleClusterRestore))
	mux.HandleFunc("POST /cluster/remove", s.clusterGated(s.handleClusterRemove))
}

func (s *Server) clusterGated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Backend == nil || s.Engine.Tracker() == nil {
			http.Error(w, "cluster handoff needs a backend and a tracker", http.StatusNotFound)
			return
		}
		h(w, r)
	}
}

func decodeClients(w http.ResponseWriter, r *http.Request) ([]uint32, bool) {
	var body clientsBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		http.Error(w, "bad clients body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return body.Clients, true
}

func (s *Server) handleClusterIngested(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, struct {
		Ingested uint64 `json:"ingested"`
	}{Ingested: s.Backend.IngestedCaptures()})
}

func (s *Server) handleClusterClients(w http.ResponseWriter, _ *http.Request) {
	ids := s.Engine.Tracker().Clients()
	seen := make(map[uint32]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
	}
	for _, id := range s.Backend.PendingClientIDs() {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	writeJSON(w, clientsBody{Clients: ids})
}

func (s *Server) handleClusterInFlight(w http.ResponseWriter, r *http.Request) {
	ids, ok := decodeClients(w, r)
	if !ok {
		return
	}
	n := 0
	for _, id := range ids {
		n += s.Engine.InFlight(id)
	}
	writeJSON(w, struct {
		InFlight int `json:"inflight"`
	}{InFlight: n})
}

func (s *Server) handleClusterExtract(w http.ResponseWriter, r *http.Request) {
	ids, ok := decodeClients(w, r)
	if !ok {
		return
	}
	caps := s.Backend.ExtractPending(ids)
	defer server.ReleaseAll(caps)
	var frames []byte
	var err error
	for off := 0; off < len(caps); off += server.MaxBatchCaptures {
		end := off + server.MaxBatchCaptures
		if end > len(caps) {
			end = len(caps)
		}
		if frames, err = server.AppendBatch(frames, caps[off:end]); err != nil {
			http.Error(w, "encode extracted captures: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Capture-Count", strconv.Itoa(len(caps)))
	w.Write(frames)
}

func (s *Server) handleClusterSnapshot(w http.ResponseWriter, r *http.Request) {
	ids, ok := decodeClients(w, r)
	if !ok {
		return
	}
	writeJSON(w, tracksBody{Tracks: s.Engine.Tracker().SnapshotClients(ids)})
}

func (s *Server) handleClusterRestore(w http.ResponseWriter, r *http.Request) {
	var body tracksBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		http.Error(w, "bad tracks body: "+err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, struct {
		Restored int `json:"restored"`
	}{Restored: s.Engine.Tracker().Restore(body.Tracks)})
}

func (s *Server) handleClusterRemove(w http.ResponseWriter, r *http.Request) {
	ids, ok := decodeClients(w, r)
	if !ok {
		return
	}
	writeJSON(w, struct {
		Removed int `json:"removed"`
	}{Removed: s.Engine.Tracker().Remove(ids)})
}
