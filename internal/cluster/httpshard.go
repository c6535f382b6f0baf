package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/engine"
)

// The handoff protocol: Control over HTTP. ServeControl is its server
// half, HTTPShard its client half. Reads are GETs; the operations
// taking a client list are POSTs with a JSON body — a migration can
// name thousands of clients, more than a query string should carry.
//
//	GET  /cluster/ingested  settled-capture counter (consumption barrier)
//	GET  /cluster/clients   every client with shard-local state
//	POST /cluster/inflight  {"clients":[...]} -> summed in-flight jobs
//	POST /cluster/extract   {"clients":[...]} -> v3 frames (octet-stream,
//	                        X-Capture-Count), removing pending groups
//	POST /cluster/snapshot  {"clients":[...]} -> their Kalman tracks
//	POST /cluster/restore   {"tracks":[...]}  -> install snapshots
//	POST /cluster/remove    {"clients":[...]} -> drop tracks
const (
	pathIngested = "/cluster/ingested"
	pathClients  = "/cluster/clients"
	pathInFlight = "/cluster/inflight"
	pathExtract  = "/cluster/extract"
	pathSnapshot = "/cluster/snapshot"
	pathRestore  = "/cluster/restore"
	pathRemove   = "/cluster/remove"
)

// The protocol's JSON bodies, shared by both halves.
type (
	clientsBody struct {
		Clients []uint32 `json:"clients"`
	}
	tracksBody struct {
		Tracks []engine.ClientSnapshot `json:"tracks"`
	}
	ingestedBody struct {
		Ingested uint64 `json:"ingested"`
	}
	inFlightBody struct {
		InFlight int `json:"inflight"`
	}
	restoredBody struct {
		Restored int `json:"restored"`
	}
	removedBody struct {
		Removed int `json:"removed"`
	}
)

// ServeControl registers ctl's operations on mux under the /cluster/
// paths above — in a shard process, ctl is a Node over its backend
// and engine. A body that does not decode is answered 400; an
// operation's error, 500.
func ServeControl(mux *http.ServeMux, ctl Control) {
	mux.HandleFunc("GET "+pathIngested, func(w http.ResponseWriter, _ *http.Request) {
		n, err := ctl.Ingested()
		reply(w, ingestedBody{n}, err)
	})
	mux.HandleFunc("GET "+pathClients, func(w http.ResponseWriter, _ *http.Request) {
		ids, err := ctl.Clients()
		reply(w, clientsBody{ids}, err)
	})
	mux.HandleFunc("POST "+pathInFlight, func(w http.ResponseWriter, r *http.Request) {
		if in, ok := decodeBody[clientsBody](w, r); ok {
			n, err := ctl.InFlight(in.Clients)
			reply(w, inFlightBody{n}, err)
		}
	})
	mux.HandleFunc("POST "+pathExtract, func(w http.ResponseWriter, r *http.Request) {
		in, ok := decodeBody[clientsBody](w, r)
		if !ok {
			return
		}
		frames, n, err := ctl.ExtractPending(in.Clients)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Capture-Count", strconv.Itoa(n))
		w.Write(frames)
	})
	mux.HandleFunc("POST "+pathSnapshot, func(w http.ResponseWriter, r *http.Request) {
		if in, ok := decodeBody[clientsBody](w, r); ok {
			snaps, err := ctl.SnapshotTracks(in.Clients)
			reply(w, tracksBody{snaps}, err)
		}
	})
	mux.HandleFunc("POST "+pathRestore, func(w http.ResponseWriter, r *http.Request) {
		if in, ok := decodeBody[tracksBody](w, r); ok {
			n, err := ctl.RestoreTracks(in.Tracks)
			reply(w, restoredBody{n}, err)
		}
	})
	mux.HandleFunc("POST "+pathRemove, func(w http.ResponseWriter, r *http.Request) {
		if in, ok := decodeBody[clientsBody](w, r); ok {
			n, err := ctl.RemoveTracks(in.Clients)
			reply(w, removedBody{n}, err)
		}
	})
}

// decodeBody decodes the request's JSON body, answering 400 when it
// does not decode.
func decodeBody[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var body T
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
		return body, false
	}
	return body, true
}

// reply writes v as indented JSON, or err as a 500.
func reply(w http.ResponseWriter, v any, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// HTTPShard implements Control against a shard process's ops endpoint,
// where ServeControl serves the shard's Node — the multi-process
// counterpart of LocalShard: the router keeps the shard's data socket
// for captures and drives migrations over its ops HTTP listener.
type HTTPShard struct {
	// Base is the shard's ops address, e.g. "http://127.0.0.1:9090".
	Base string
	// Client overrides the HTTP client; nil means defaultShardClient,
	// whose Timeout is DefaultRebalanceTimeout.
	Client *http.Client
}

// defaultShardClient bounds every request: Router.await checks its
// deadline only between calls, so a shard that hangs on one would
// otherwise hold Rebalance, and the movers' parked traffic, forever.
var defaultShardClient = &http.Client{Timeout: DefaultRebalanceTimeout}

func (h *HTTPShard) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return defaultShardClient
}

// send runs one request with body (nil for none) as JSON and returns
// the 2xx response, whose body the caller closes. Non-2xx responses
// become errors carrying the body.
func (h *HTTPShard) send(method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, h.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("cluster: shard %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// do runs one request and decodes its JSON response into out.
func (h *HTTPShard) do(method, path string, body, out any) error {
	resp, err := h.send(method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Clients returns every client with state on the shard.
func (h *HTTPShard) Clients() ([]uint32, error) {
	var out clientsBody
	err := h.do(http.MethodGet, pathClients, nil, &out)
	return out.Clients, err
}

// Ingested returns the shard's settled-capture counter.
func (h *HTTPShard) Ingested() (uint64, error) {
	var out ingestedBody
	err := h.do(http.MethodGet, pathIngested, nil, &out)
	return out.Ingested, err
}

// InFlight sums the clients' admitted-but-uncompleted engine jobs.
func (h *HTTPShard) InFlight(ids []uint32) (int, error) {
	var out inFlightBody
	err := h.do(http.MethodPost, pathInFlight, clientsBody{ids}, &out)
	return out.InFlight, err
}

// ExtractPending removes the clients' pending groups, returning them
// as v3 frames ready to forward verbatim.
func (h *HTTPShard) ExtractPending(ids []uint32) ([]byte, int, error) {
	resp, err := h.send(http.MethodPost, pathExtract, clientsBody{ids})
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	n, err := strconv.Atoi(resp.Header.Get("X-Capture-Count"))
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: shard extract: bad X-Capture-Count %q", resp.Header.Get("X-Capture-Count"))
	}
	frames, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return frames, n, nil
}

// SnapshotTracks returns the clients' Kalman tracks.
func (h *HTTPShard) SnapshotTracks(ids []uint32) ([]engine.ClientSnapshot, error) {
	var out tracksBody
	err := h.do(http.MethodPost, pathSnapshot, clientsBody{ids}, &out)
	return out.Tracks, err
}

// RestoreTracks installs the snapshots.
func (h *HTTPShard) RestoreTracks(snaps []engine.ClientSnapshot) (int, error) {
	var out restoredBody
	err := h.do(http.MethodPost, pathRestore, tracksBody{snaps}, &out)
	return out.Restored, err
}

// RemoveTracks drops the clients' tracks.
func (h *HTTPShard) RemoveTracks(ids []uint32) (int, error) {
	var out removedBody
	err := h.do(http.MethodPost, pathRemove, clientsBody{ids}, &out)
	return out.Removed, err
}
