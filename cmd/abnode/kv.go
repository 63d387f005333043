package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"modab"
)

// kvServer exposes the replicated KV state machine over HTTP. Every
// mutation — and by default every read — is routed through Abcast, so a
// response reflects the command's position in the total order; the
// handler blocks on the local applier's Await for read-your-writes.
//
//	GET    /kv/<key>          ordered (linearizable) read
//	GET    /kv/<key>?local=1  local replica read (may lag the order)
//	PUT    /kv/<key>          set key to the request body
//	PUT    /kv/<key>          with If-Match: <old> — compare-and-swap
//	DELETE /kv/<key>          remove the key
//
// Status mapping: 200 with the value (gets), 204 (put/delete/CAS ok),
// 404 (missing key), 412 (CAS expectation failed), 504 (apply wait
// timed out).
type kvServer struct {
	cluster *modab.Cluster
	self    int
	local   *modab.KV
}

// startKVServer listens on addr and serves the KV API until the
// returned server is closed.
func startKVServer(addr string, cluster *modab.Cluster, self int, local *modab.KV) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: &kvServer{cluster: cluster, self: self, local: local}}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}

func (s *kvServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	key, ok := strings.CutPrefix(r.URL.Path, "/kv/")
	if !ok || key == "" {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet:
		if r.URL.Query().Get("local") != "" {
			v, ok := s.local.Get([]byte(key))
			if !ok {
				http.Error(w, "key not found", http.StatusNotFound)
				return
			}
			_, _ = w.Write(v)
			return
		}
		s.order(w, r, modab.KVGet([]byte(key)))
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if old, casReq := r.Header["If-Match"]; casReq && len(old) > 0 {
			s.order(w, r, modab.KVCAS([]byte(key), []byte(old[0]), body))
			return
		}
		s.order(w, r, modab.KVPut([]byte(key), body))
	case http.MethodDelete:
		s.order(w, r, modab.KVDelete([]byte(key)))
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// order abcasts one KV command and waits for the local replica to apply
// it before answering.
func (s *kvServer) order(w http.ResponseWriter, r *http.Request, cmd []byte) {
	ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
	defer cancel()
	id, err := s.cluster.Abcast(ctx, s.self, cmd)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	select {
	case res := <-s.cluster.Applier(s.self).Await(id):
		if res == nil {
			// Applied, but the result left its origin's window before the
			// wait was registered (or arrived inside an installed snapshot).
			http.Error(w, "applied; result no longer available", http.StatusInternalServerError)
			return
		}
		st, val := modab.DecodeKVResult(res)
		switch st {
		case modab.KVStatusOK:
			if len(val) > 0 {
				_, _ = w.Write(val)
			} else {
				w.WriteHeader(http.StatusNoContent)
			}
		case modab.KVStatusMissing:
			http.Error(w, "key not found", http.StatusNotFound)
		case modab.KVStatusCASFailed:
			http.Error(w, "compare-and-swap failed", http.StatusPreconditionFailed)
		default:
			http.Error(w, "bad command", http.StatusBadRequest)
		}
	case <-ctx.Done():
		http.Error(w, "timed out waiting for apply", http.StatusGatewayTimeout)
	}
}
