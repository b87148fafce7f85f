// Command ftserve serves fault-tolerant distance/path queries over HTTP.
//
// It builds an f-fault-tolerant (2k-1)-spanner of a graph (read from a file
// in the package text format, or generated), wraps it in the concurrent
// query oracle (internal/oracle: lock-free RCU snapshot reads, per-partition
// searcher pools, a partition-sharded epoch-stamped result cache that churn
// batches invalidate only where they touched), and exposes the JSON API:
//
//	GET  /healthz                      liveness + current epoch + degraded flag
//	GET  /readyz                       readiness (503 while booting/degraded/draining)
//	GET  /stats                        query/cache/churn/durability counters
//	GET  /query?u=0&v=5&faults=2,7     distance + path under a fault set
//	POST /query                        same, JSON body (see oracle.QueryRequest)
//	POST /batch                        atomic edge insert/delete batch (churn)
//	GET  /snapshot                     head epoch's graph + spanner as text
//	GET  /metrics                      Prometheus-text metrics (internal/obs)
//	GET  /debug/trace/churn            ring of recent apply-pipeline traces
//	GET  /debug/pprof/...              net/http/pprof (only with -pprof)
//
// Usage:
//
//	ftserve [-addr :8080] [-graph g.txt | -n 512 -deg 8 -seed 1]
//	        [-k 2] [-f 1] [-mode vertex|edge] [-cache 32768]
//	        [-wal DIR] [-checkpoint-every 256] [-fsync always|interval|off]
//	        [-fsync-interval 100ms] [-apply-queue 64] [-query-timeout 10s]
//	        [-read-timeout 10s] [-write-timeout 30s] [-idle-timeout 2m]
//	        [-drain-grace 500ms] [-pprof] [-log-requests]
//
// With -graph the graph is read from the file; otherwise a G(n, p) sample
// with expected degree -deg is generated from -seed.
//
// Each /query runs on its request's goroutine. A cache-miss search that is
// still running at -query-timeout, or whose client has gone away, stops
// where it is and the request answers 503; cache hits never search.
//
// Durability: -wal names a directory holding the append-only churn log and
// periodic checkpoints. On a fresh directory the server builds the graph
// and logs every accepted batch write-ahead; on a directory with state it
// IGNORES -graph/-n/-deg/-seed and recovers the exact pre-crash oracle
// (newest committed checkpoint + log replay) before going ready. The
// listener binds and answers /healthz immediately; /readyz stays 503 until
// the build or recovery finishes.
//
// The server shuts down on SIGINT/SIGTERM in drain order: /readyz flips to
// 503, -drain-grace elapses (load balancers stop routing while in-flight
// requests still complete), then the listener closes, in-flight requests
// finish, and the churn log is synced and closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/oracle"
	"ftspanner/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftserve:", err)
		os.Exit(1)
	}
}

// onListen, when set (by tests), receives the bound address before serving.
var onListen func(net.Addr)

// swapHandler lets the server accept connections before the oracle exists:
// it serves a minimal booting handler first and atomically swaps in the full
// API once the build/recovery finishes.
type swapHandler struct{ p atomic.Pointer[http.Handler] }

func (s *swapHandler) Store(h http.Handler) { s.p.Store(&h) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.p.Load()).ServeHTTP(w, r)
}

// bootHandler answers while the oracle is still building or recovering:
// alive (the process is up) but not ready (no queries can be served yet).
func bootHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true,"booting":true}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"ready":false,"error":"booting"}`)
	})
	return mux
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ftserve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		graphPath = fs.String("graph", "", "graph file in the package text format (empty = generate)")
		n         = fs.Int("n", 512, "generated graph: vertex count")
		deg       = fs.Int("deg", 8, "generated graph: expected average degree")
		seed      = fs.Int64("seed", 1, "generated graph: random seed")
		k         = fs.Int("k", 2, "stretch parameter (spanner stretch 2k-1)")
		f         = fs.Int("f", 1, "fault budget (max per-query fault-set size)")
		mode      = fs.String("mode", "vertex", "fault mode: vertex or edge")
		cache     = fs.Int("cache", 0, "result cache capacity in entries (0 = default, -1 = disabled)")

		walDir     = fs.String("wal", "", "durable churn-log directory (empty = no durability; with prior state, recover from it)")
		ckptEvery  = fs.Int("checkpoint-every", 0, "checkpoint every this many batches (0 = default 256, negative = never)")
		fsync      = fs.String("fsync", "always", "churn-log fsync policy: always, interval, or off")
		fsyncEvery = fs.Duration("fsync-interval", 100*time.Millisecond, "max time between fsyncs under -fsync interval")
		applyQueue = fs.Int("apply-queue", 64, "max in-flight /batch applies before shedding with 429 (0 = unbounded)")

		pprofOn     = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
		logRequests = fs.Bool("log-requests", false, "log one line per request: method, path, status, latency, epoch served")

		queryTimeout = fs.Duration("query-timeout", 10*time.Second, "per-/query deadline: a search still running past it stops and answers 503 (0 = until the client goes away)")
		readTimeout  = fs.Duration("read-timeout", 10*time.Second, "HTTP server read timeout")
		writeTimeout = fs.Duration("write-timeout", 30*time.Second, "HTTP server write timeout")
		idleTimeout  = fs.Duration("idle-timeout", 2*time.Minute, "HTTP server idle connection timeout")
		drainGrace   = fs.Duration("drain-grace", 500*time.Millisecond, "time /readyz reports 503 before the listener closes on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var m lbc.Mode
	switch *mode {
	case "vertex":
		m = lbc.Vertex
	case "edge":
		m = lbc.Edge
	default:
		return fmt.Errorf("unknown -mode %q (vertex or edge)", *mode)
	}
	cfg := oracle.Config{
		K: *k, F: *f, Mode: m, CacheCapacity: *cache,
		CheckpointEvery: *ckptEvery, ApplyQueue: *applyQueue,
	}

	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			return err
		}
		w, err := wal.Open(wal.Options{Dir: *walDir, Sync: policy, SyncInterval: *fsyncEvery})
		if err != nil {
			return err
		}
		cfg.WAL = w
	}

	// Listener-first: bind and answer liveness probes while the (possibly
	// slow) build or recovery runs; /readyz turns 200 only once it is done.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		if cfg.WAL != nil {
			cfg.WAL.Close()
		}
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	fmt.Fprintf(stdout, "ftserve: listening on %s\n", ln.Addr())

	var handler swapHandler
	handler.Store(bootHandler())
	srv := &http.Server{
		Handler:      &handler,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	o, err := buildOrRecover(cfg, *walDir, *graphPath, *n, *deg, *seed, *f, stdout)
	if err != nil {
		srv.Close()
		<-errc
		if cfg.WAL != nil {
			cfg.WAL.Close()
		}
		return err
	}
	var draining atomic.Bool
	api := oracle.NewHTTPHandlerOpts(o, oracle.HandlerOptions{
		QueryTimeout: *queryTimeout,
		Ready:        func() bool { return !draining.Load() },
	})
	root := http.NewServeMux()
	root.Handle("/", api)
	if *pprofOn {
		// Mount explicitly rather than importing for DefaultServeMux side
		// effects: the profiler is opt-in and never on the default mux.
		root.HandleFunc("/debug/pprof/", httppprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	handler.Store(instrumentHTTP(root, o, *logRequests, stdout))

	select {
	case err := <-errc:
		o.Close()
		return err
	case <-ctx.Done():
	}
	// Drain order: stop advertising readiness first, give load balancers
	// -drain-grace to notice, then stop accepting and finish in-flight work.
	draining.Store(true)
	if *drainGrace > 0 {
		time.Sleep(*drainGrace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		o.Close()
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		o.Close()
		return err
	}
	if err := o.Close(); err != nil {
		return fmt.Errorf("close churn log: %w", err)
	}
	final := o.Stats()
	fmt.Fprintf(stdout, "ftserve: shut down cleanly: %d queries (%.1f%% cache hits), %d churn batches, final epoch %d\n",
		final.Queries, 100*final.HitRate, final.Batches, final.Epoch)
	return nil
}

// buildOrRecover constructs the oracle: from the churn log when the WAL
// directory already holds state, from the graph flags otherwise.
func buildOrRecover(cfg oracle.Config, walDir, graphPath string, n, deg int, seed int64, f int, stdout io.Writer) (*oracle.Oracle, error) {
	if cfg.WAL != nil && cfg.WAL.HasState() {
		start := time.Now()
		o, info, err := oracle.Recover(cfg.WAL, cfg)
		if err != nil {
			return nil, fmt.Errorf("recover from %s: %w", walDir, err)
		}
		st := o.Stats()
		fmt.Fprintf(stdout, "ftserve: recovered from %s: checkpoint epoch %d + %d replayed batches -> epoch %d, n=%d m=%d spanner_m=%d (in %s)\n",
			walDir, info.CheckpointEpoch, info.ReplayedBatches, info.Epoch, st.N, st.M, st.SpannerM,
			time.Since(start).Round(time.Millisecond))
		if info.TornTailBytes > 0 {
			fmt.Fprintf(stdout, "ftserve: repaired %d torn bytes at the churn-log tail\n", info.TornTailBytes)
		}
		return o, nil
	}
	g, source, err := loadGraph(graphPath, n, deg, seed)
	if err != nil {
		return nil, err
	}
	buildStart := time.Now()
	o, err := oracle.New(g, cfg)
	if err != nil {
		return nil, err
	}
	st := o.Stats()
	fmt.Fprintf(stdout, "ftserve: %s: n=%d m=%d -> %d-fault-tolerant %d-spanner with %d edges (built in %s)\n",
		source, st.N, st.M, f, o.Stretch(), st.SpannerM, time.Since(buildStart).Round(time.Millisecond))
	return o, nil
}

func loadGraph(path string, n, deg int, seed int64) (*graph.Graph, string, error) {
	if path != "" {
		file, err := os.Open(path)
		if err != nil {
			return nil, "", err
		}
		defer file.Close()
		g, err := graph.Read(file)
		if err != nil {
			return nil, "", fmt.Errorf("read %s: %w", path, err)
		}
		return g, path, nil
	}
	if n < 2 {
		return nil, "", fmt.Errorf("-n must be >= 2, got %d", n)
	}
	p := float64(deg) / float64(n-1)
	if p > 1 {
		p = 1
	}
	g, err := gen.GNP(rand.New(rand.NewSource(seed)), n, p)
	if err != nil {
		return nil, "", err
	}
	return g, fmt.Sprintf("gnp(n=%d, deg=%d, seed=%d)", n, deg, seed), nil
}
