package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
)

// listenOn opens a listener for addr: "unix:/path/to.sock" binds a
// unix socket (removing a stale one first), anything else is a TCP
// address.
func listenOn(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("remove stale socket %s: %w", path, err)
		}
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

// dialShard dials a shard's data address, "unix:/path" or host:port.
func dialShard(addr string) (net.Conn, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return net.Dial("unix", path)
	}
	return net.Dial("tcp", addr)
}

// routerFlags are the -router mode's extra knobs.
type routerFlags struct {
	shards   *string
	shardOps *string
	mapOver  *int
}

func registerRouterFlags() routerFlags {
	return routerFlags{
		shards: flag.String("shards", "",
			"router mode: comma-separated shard data addresses (unix:/path or host:port), in shard order"),
		shardOps: flag.String("shard-ops", "",
			"router mode: comma-separated shard ops base URLs (http://host:port), same order as -shards"),
		mapOver: flag.Int("map-shards", 0,
			"router mode: shards covered by the initial map (0 = all of -shards; grow later via POST /cluster/rebalance)"),
	}
}

// runRouter is the -router entrypoint: fan AP capture traffic out to
// the shard backends by client ID, and serve the rebalance trigger on
// -http. Blocks until ctx is done.
func runRouter(ctx context.Context, listen, httpAddr string, rf routerFlags) error {
	dataAddrs := strings.Split(*rf.shards, ",")
	opsAddrs := strings.Split(*rf.shardOps, ",")
	if *rf.shards == "" || *rf.shardOps == "" || len(dataAddrs) != len(opsAddrs) {
		return fmt.Errorf("router mode wants matching -shards and -shard-ops lists (%d vs %d entries)",
			len(dataAddrs), len(opsAddrs))
	}
	shards := make([]cluster.Shard, len(dataAddrs))
	for i, addr := range dataAddrs {
		conn, err := dialShard(strings.TrimSpace(addr))
		if err != nil {
			return fmt.Errorf("shard %d data: %w", i, err)
		}
		defer conn.Close()
		shards[i] = cluster.Shard{
			Data: conn,
			Ctl:  &cluster.HTTPShard{Base: strings.TrimSpace(opsAddrs[i])},
		}
	}
	mapOver := *rf.mapOver
	if mapOver == 0 {
		mapOver = len(shards)
	}
	m, err := cluster.NewShardMap(1, mapOver, 0)
	if err != nil {
		return err
	}
	router, err := cluster.NewRouter(m, shards)
	if err != nil {
		return err
	}

	l, err := listenOn(listen)
	if err != nil {
		return err
	}
	log.Printf("ArrayTrack router listening on %s: %d shards, map v%d over %d",
		l.Addr(), len(shards), m.Version, m.Shards)

	if httpAddr != "" {
		hl, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: routerOpsHandler(router)}
		log.Printf("router ops on http://%s (/cluster/map /cluster/stats POST /cluster/rebalance)", hl.Addr())
		go func() {
			if err := hs.Serve(hl); err != nil && err != http.ErrServerClosed {
				log.Printf("router ops: %v", err)
			}
		}()
		defer func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			hs.Shutdown(shutCtx)
			cancel()
		}()
	}

	go func() {
		<-ctx.Done()
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		go func() {
			defer conn.Close()
			if err := router.ServeConn(conn); err != nil {
				log.Printf("ap conn %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// routerOpsHandler is the router's control surface:
//
//	GET  /healthz           200 ok
//	GET  /cluster/map       {"version":V,"shards":N}
//	GET  /cluster/stats     router counters
//	POST /cluster/rebalance {"version":V,"shards":N} -> swap the map,
//	                        migrating every client whose owner changes
func routerOpsHandler(router *cluster.Router) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /cluster/map", func(w http.ResponseWriter, _ *http.Request) {
		m := router.Map()
		writeJSON(w, map[string]any{"version": m.Version, "shards": m.Shards})
	})
	mux.HandleFunc("GET /cluster/stats", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, router.Stats())
	})
	mux.HandleFunc("POST /cluster/rebalance", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Version uint64 `json:"version"`
			Shards  int    `json:"shards"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, "bad rebalance body: "+err.Error(), http.StatusBadRequest)
			return
		}
		next, err := cluster.NewShardMap(body.Version, body.Shards, 0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		st, err := router.Rebalance(next)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		log.Printf("rebalance to v%d/%d shards: moved %d clients, %d tracks, %d pending captures (%d held flushed)",
			body.Version, body.Shards, st.MovedClients, st.MovedTracks, st.MovedPending, st.HeldFlushed)
		writeJSON(w, st)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
