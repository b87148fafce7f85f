package oracle

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ftspanner/internal/dynamic"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
)

// The JSON serving API (cmd/ftserve mounts this handler):
//
//	GET  /healthz          -> {"ok":true,"epoch":3,"degraded":false}   liveness
//	GET  /readyz           -> {"ready":true,"epoch":3}                 readiness
//	GET  /stats            -> the Stats struct
//	POST /query            -> QueryResponse for a QueryRequest body
//	GET  /query?u=0&v=5&faults=2,7&no_cache=1&max_distance=3.5
//	                          (edge mode spells faults as "2-7,3-9" pairs)
//	POST /batch            -> BatchResponse for a BatchRequest body
//	GET  /snapshot         -> the head epoch's graph and spanner as text
//
// Liveness vs readiness: /healthz answers 200 whenever the process serves
// HTTP at all (even degraded — stale reads still work); /readyz answers 503
// until the oracle is ready for full service and again once it is degraded
// or draining, so load balancers stop routing new work while in-flight
// reads finish.
//
// Errors return {"error": "..."} with status 400 (bad request), 404, 405
// (method not allowed), 413 (a POST body over maxBodyBytes), 429 +
// Retry-After (apply queue full), or 503
// (degraded / not ready / query deadline exceeded). Distances are
// JSON-safe: a disconnected pair has "reachable": false and distance -1
// (JSON cannot carry +Inf).

// QueryRequest is the POST /query body.
type QueryRequest struct {
	U int `json:"u"`
	V int `json:"v"`
	// FaultVertices / FaultEdges mirror QueryOptions (per the oracle mode).
	FaultVertices []int    `json:"fault_vertices,omitempty"`
	FaultEdges    [][2]int `json:"fault_edges,omitempty"`
	NoCache       bool     `json:"no_cache,omitempty"`
	// MaxDistance > 0 bounds the search radius (QueryOptions.MaxDistance);
	// 0 or absent means unbounded.
	MaxDistance float64 `json:"max_distance,omitempty"`
}

// QueryResponse is the /query reply.
type QueryResponse struct {
	U         int     `json:"u"`
	V         int     `json:"v"`
	Reachable bool    `json:"reachable"`
	Distance  float64 `json:"distance"` // -1 when unreachable
	Path      []int   `json:"path,omitempty"`
	Epoch     uint64  `json:"epoch"`
	CacheHit  bool    `json:"cache_hit"`
	ServerNs  int64   `json:"server_ns"`
}

// BatchRequest is the POST /batch body: one atomic churn batch.
type BatchRequest struct {
	Insert []BatchUpdate `json:"insert,omitempty"`
	Delete []BatchUpdate `json:"delete,omitempty"`
}

// BatchUpdate names one endpoint pair (weight used by insertions into
// weighted graphs; 0 means weight 1 on unweighted ones).
type BatchUpdate struct {
	U int     `json:"u"`
	V int     `json:"v"`
	W float64 `json:"w,omitempty"`
}

// BatchResponse is the /batch reply.
type BatchResponse struct {
	Epoch    uint64 `json:"epoch"`
	Inserted int    `json:"inserted"`
	Deleted  int    `json:"deleted"`
	ServerNs int64  `json:"server_ns"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxBodyBytes caps a POST /query or /batch body; a longer one gets 413.
// A batch update is about 30 bytes of JSON, so 1 MiB holds some 35k of
// them, orders of magnitude above the batches the repo's clients send.
const maxBodyBytes = 1 << 20

// decodeStatus is the status for a request that failed to decode: 413 when
// its body passed maxBodyBytes, 400 otherwise.
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// SnapshotResponse is the GET /snapshot reply: the head epoch's state in
// the package graph text format — small-graph debugging and the
// crash-recovery identity check in CI read it.
type SnapshotResponse struct {
	Epoch   uint64 `json:"epoch"`
	N       int    `json:"n"`
	Graph   string `json:"graph"`
	Spanner string `json:"spanner"`
}

// ChurnTraceResponse is the GET /debug/trace/churn reply: the ring of
// recent apply-pipeline traces, oldest first, plus the head epoch at dump
// time (traces may trail it — the ring is bounded).
type ChurnTraceResponse struct {
	Epoch  uint64       `json:"epoch"`
	Traces []ChurnTrace `json:"traces"`
}

// HandlerOptions tunes NewHTTPHandlerOpts beyond the oracle itself.
type HandlerOptions struct {
	// QueryTimeout bounds one /query's serving time: a cache miss whose
	// search is still running at the deadline stops there, and the client
	// gets 503. A client that goes away stops the search the same way. 0
	// means no bound beyond the request's own lifetime.
	QueryTimeout time.Duration
	// Ready gates /readyz alongside the oracle's own degraded flag. nil
	// means always ready. cmd/ftserve wires startup/recovery completion and
	// drain-on-shutdown through it.
	Ready func() bool
}

// NewHTTPHandler returns the JSON serving API over o with default options.
func NewHTTPHandler(o *Oracle) http.Handler {
	return NewHTTPHandlerOpts(o, HandlerOptions{})
}

// NewHTTPHandlerOpts returns the JSON serving API over o. cmd/ftserve
// mounts it at the root; tests mount it on httptest servers.
func NewHTTPHandlerOpts(o *Oracle, opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		// Liveness: 200 even when degraded — the process is up and serving
		// (stale) reads; restarting it is the operator's call, not the
		// orchestrator's reflex.
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "epoch": o.Epoch(), "degraded": o.Degraded()})
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		ready := opts.Ready == nil || opts.Ready()
		degraded := o.Degraded()
		if !ready || degraded {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "degraded": degraded})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "epoch": o.Epoch()})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, http.StatusOK, o.Stats())
	})
	// Management plane: Prometheus-text metrics and the churn-trace ring.
	mux.Handle("/metrics", o.Registry().Handler())
	mux.HandleFunc("/debug/trace/churn", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, http.StatusOK, ChurnTraceResponse{Epoch: o.Epoch(), Traces: o.ChurnTraces()})
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		g, h, epoch := o.Snapshot()
		var gb, hb strings.Builder
		if err := graph.Write(&gb, g); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
			return
		}
		if err := graph.Write(&hb, h); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, SnapshotResponse{Epoch: epoch, N: g.N(), Graph: gb.String(), Spanner: hb.String()})
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, errorResponse{fmt.Sprintf("method %s not allowed (use GET or POST)", r.Method)})
			return
		}
		req, err := decodeQueryRequest(w, r, o.Config().Mode)
		if err != nil {
			writeJSON(w, decodeStatus(err), errorResponse{err.Error()})
			return
		}
		start := time.Now()
		qopts := QueryOptions{
			FaultVertices: req.FaultVertices,
			FaultEdges:    req.FaultEdges,
			NoCache:       req.NoCache,
			MaxDistance:   req.MaxDistance,
			// The encoder below only reads the path, but CopyPath keeps the
			// handler decoupled from cache internals: nothing downstream of
			// an HTTP response may alias a shared cache entry.
			CopyPath: true,
		}
		ctx := r.Context()
		if opts.QueryTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, opts.QueryTimeout)
			defer cancel()
		}
		res, err := o.QueryContext(ctx, req.U, req.V, qopts)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{fmt.Sprintf("query deadline %s exceeded", opts.QueryTimeout)})
			return
		case errors.Is(err, context.Canceled):
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{"request canceled"})
			return
		case err != nil:
			writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
			return
		}
		resp := QueryResponse{
			U: res.U, V: res.V,
			Reachable: !math.IsInf(res.Distance, 1),
			Distance:  res.Distance,
			Path:      res.Path,
			Epoch:     res.Epoch,
			CacheHit:  res.CacheHit,
			ServerNs:  time.Since(start).Nanoseconds(),
		}
		if !resp.Reachable {
			resp.Distance = -1
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodPost) {
			return
		}
		var req BatchRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
			writeJSON(w, decodeStatus(err), errorResponse{fmt.Sprintf("decode batch: %v", err)})
			return
		}
		b := dynamic.Batch{}
		for _, ins := range req.Insert {
			b.Insert = append(b.Insert, dynamic.Update{U: ins.U, V: ins.V, W: ins.W})
		}
		for _, del := range req.Delete {
			b.Delete = append(b.Delete, dynamic.Update{U: del.U, V: del.V})
		}
		start := time.Now()
		epoch, err := o.apply(b)
		if err != nil {
			var over *OverloadedError
			switch {
			case errors.As(err, &over):
				// Shed, not failed: tell the client when to come back.
				secs := int(math.Ceil(over.RetryAfter.Seconds()))
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				writeJSON(w, http.StatusTooManyRequests, errorResponse{err.Error()})
			case errors.Is(err, ErrDegraded):
				writeJSON(w, http.StatusServiceUnavailable, errorResponse{err.Error()})
			default:
				writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
			}
			return
		}
		writeJSON(w, http.StatusOK, BatchResponse{
			Epoch:    epoch,
			Inserted: len(b.Insert),
			Deleted:  len(b.Delete),
			ServerNs: time.Since(start).Nanoseconds(),
		})
	})
	return mux
}

func allowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{fmt.Sprintf("method %s not allowed (use %s)", r.Method, method)})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// decodeQueryRequest accepts POST (JSON body) and GET (query parameters:
// u, v, faults, no_cache, max_distance). GET fault syntax follows the
// oracle's mode:
// "3,17" vertex IDs, or "3-17,4-9" endpoint pairs.
func decodeQueryRequest(w http.ResponseWriter, r *http.Request, mode lbc.Mode) (QueryRequest, error) {
	var req QueryRequest
	switch r.Method {
	case http.MethodPost:
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
			return req, fmt.Errorf("decode query: %w", err)
		}
		return req, nil
	case http.MethodGet:
		q := r.URL.Query()
		var err error
		if req.U, err = strconv.Atoi(q.Get("u")); err != nil {
			return req, fmt.Errorf("parameter u: %v", err)
		}
		if req.V, err = strconv.Atoi(q.Get("v")); err != nil {
			return req, fmt.Errorf("parameter v: %v", err)
		}
		if nc := q.Get("no_cache"); nc == "1" || nc == "true" {
			req.NoCache = true
		}
		if md := q.Get("max_distance"); md != "" {
			if req.MaxDistance, err = strconv.ParseFloat(md, 64); err != nil {
				return req, fmt.Errorf("parameter max_distance: %v", err)
			}
		}
		faults := q.Get("faults")
		if faults == "" {
			return req, nil
		}
		for _, tok := range strings.Split(faults, ",") {
			if mode == lbc.Edge {
				ab := strings.SplitN(tok, "-", 2)
				if len(ab) != 2 {
					return req, fmt.Errorf("fault %q: edge faults are endpoint pairs like 3-17", tok)
				}
				a, err := strconv.Atoi(ab[0])
				if err != nil {
					return req, fmt.Errorf("fault %q: %v", tok, err)
				}
				b, err := strconv.Atoi(ab[1])
				if err != nil {
					return req, fmt.Errorf("fault %q: %v", tok, err)
				}
				req.FaultEdges = append(req.FaultEdges, [2]int{a, b})
				continue
			}
			id, err := strconv.Atoi(tok)
			if err != nil {
				return req, fmt.Errorf("fault %q: %v", tok, err)
			}
			req.FaultVertices = append(req.FaultVertices, id)
		}
		return req, nil
	default:
		return req, fmt.Errorf("method %s not allowed (use GET or POST)", r.Method)
	}
}
