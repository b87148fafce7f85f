// Package oracle serves distance/path queries on a maintained
// fault-tolerant spanner under high concurrency.
//
// This is the layer that turns the library into a system: the constructions
// (internal/core) build an f-fault-tolerant (2k-1)-spanner, the maintainer
// (internal/dynamic) keeps it valid under churn, and the Oracle answers the
// queries the spanner exists for — "what is the distance / route between u
// and v given that these elements have failed?" — while both are happening
// at once.
//
// The serving spine is read-copy-update (RCU). All serving state — the
// spanner and graph as immutable CSR snapshots, the epoch, the maintainer
// counters — lives in one immutable snapshot struct published through an
// atomic.Pointer. Query loads that pointer and runs entirely against the
// snapshot it got: no mutex, no read lock, no coordination with writers at
// all. Apply holds a narrow writer mutex only to serialize batches against
// each other; it mutates the maintainer, builds the next snapshot off to
// the side (incrementally: graph.PatchCSR rewrites only the adjacency rows
// the batch touched, using the touched sets dynamic.ApplyBatch already
// computes for witness repair), and publishes it with one atomic store.
// Churn therefore never blocks readers, however large the graph.
//
// Three more mechanisms keep the fast path fast and the answers auditable:
//
//   - Per-partition pools of warm sp.Searchers with work-stealing: a
//     cache-miss query borrows a preallocated shortest-path engine from its
//     source vertex's partition, stealing from neighboring partitions
//     before allocating, so concurrent misses run BFS or Dijkstra with no
//     per-query scratch allocation and the number of live searchers tracks
//     the number of concurrent readers, not the number of partitions.
//   - A result cache sharded by vertex partition with epoch-range validity:
//     a batch invalidates only the shards owning vertices it touched (one
//     atomic minEpoch store per shard), so hot pairs far from the churn
//     keep their entries across Apply. A hit is served labeled with the
//     epoch that produced it — possibly older than the head.
//   - Epoch re-verification: every answer names its exact epoch, and the
//     oracle retains the last Config.SnapshotRetain snapshots so
//     SnapshotAt can recover precisely the graph/spanner state any
//     still-served answer came from (verify.CheckServedAnswer closes the
//     loop). Retention also bounds staleness: a cached answer whose epoch
//     has slid out of the window is invalid even if its shards were never
//     touched.
//
// The fault-tolerance guarantee the caller inherits: for any fault set F
// with |F| <= f (of the oracle's mode), the served distance d_{H\F}(u,v) is
// at most (2k-1) · d_{G\F}(u,v) — the whole point of serving queries off
// the sparse spanner instead of the full graph — evaluated on the snapshot
// the answer's epoch names.
package oracle

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ftspanner/internal/dynamic"
	"ftspanner/internal/faultinject"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/obs"
	"ftspanner/internal/sp"
	"ftspanner/internal/wal"
)

// Config parameterizes New.
type Config struct {
	// K is the stretch parameter: answers have stretch at most 2K-1 versus
	// the faulted source graph. Must be >= 1.
	K int
	// F is the fault budget: the maximum per-query fault-set size served
	// with a stretch guarantee. Queries with more faults are rejected.
	F int
	// Mode selects what fails: vertices (queries pass FaultVertices) or
	// edges (queries pass FaultEdges). Zero value means vertex faults.
	Mode lbc.Mode
	// StalenessBudget is passed through to the dynamic.Maintainer.
	StalenessBudget float64
	// BuildParallelism is passed through to the dynamic.Maintainer: the
	// worker count for the oracle's initial spanner build and every
	// staleness-budget rebuild (<= 0 selects GOMAXPROCS, 1 forces the
	// sequential builder). The constructed spanner is byte-identical at
	// every setting.
	BuildParallelism int
	// CacheCapacity bounds the result cache's total entries. 0 selects
	// DefaultCacheCapacity; negative disables caching entirely.
	CacheCapacity int
	// SnapshotRetain is how many epochs stay reachable for SnapshotAt
	// re-verification — and therefore how many epochs a cached answer may
	// outlive its producing batch. 0 selects DefaultSnapshotRetain; values
	// below 1 are clamped to 1 (head only: every Apply invalidates the
	// whole cache, as the pre-RCU oracle did). Each retained epoch pins
	// one CSR pair, so memory grows with SnapshotRetain · (n + m).
	SnapshotRetain int
	// WAL, when non-nil, makes every Apply write-ahead: the batch record is
	// durably appended (per the log's fsync policy) before the maintainer
	// applies it, so a crash at any instant recovers to exactly the
	// acknowledged state (Recover). New also normalizes the input graph's
	// edge-ID layout (graph.Compact) and writes the initial checkpoint, so
	// the log directory alone reconstructs the oracle. The oracle owns the
	// log from here: it closes it rather than share appends with anyone.
	WAL *wal.Log
	// CheckpointEvery, with a WAL, writes a checkpoint (and compaction
	// barrier — see Oracle.Checkpoint) after every CheckpointEvery applied
	// batches, bounding replay length. 0 selects DefaultCheckpointEvery;
	// negative disables periodic checkpoints (the initial one is still
	// written, and Checkpoint can be called manually).
	CheckpointEvery int
	// ApplyQueue, when positive, bounds how many Apply calls may be running
	// or waiting on the writer mutex; beyond it Apply sheds load
	// immediately with an OverloadedError (HTTP 429 + Retry-After at the
	// serving layer) instead of queueing without bound. 0 keeps the
	// pre-existing unbounded blocking behavior.
	ApplyQueue int
}

// QueryOptions carries a query's fault set and cache directives.
type QueryOptions struct {
	// FaultVertices lists failed vertex IDs (vertex-fault oracles only).
	// At most Config.F after deduplication.
	FaultVertices []int
	// FaultEdges lists failed edges as endpoint pairs (edge-fault oracles
	// only), at most Config.F after normalization and deduplication. A pair
	// that is not currently an edge is accepted and acts as a no-op: under
	// churn a client may name an edge that was just deleted, and "that edge
	// is down" remains trivially true.
	FaultEdges [][2]int
	// NoCache bypasses the result cache in both directions: the answer is
	// recomputed and not stored. Benchmarks use it to measure cold cost.
	NoCache bool
	// MaxDistance, when positive, caps the search radius: the answer is the
	// true distance if it is at most MaxDistance (a pair exactly at the cap
	// is reported) and +Inf otherwise, and the search never expands the
	// spanner beyond that radius — on large graphs this turns a query from
	// O(m) into the size of a ball around the source. Zero means unbounded;
	// negative or NaN is rejected. The cap is part of the cache key, so
	// capped and uncapped answers for the same pair never mix.
	MaxDistance float64
	// CopyPath makes the returned QueryResult.Path a private copy the
	// caller may mutate freely. Without it a cached answer shares one path
	// slice across every caller that hits the same entry (zero-copy, but
	// strictly read-only). The HTTP layer always sets it.
	CopyPath bool
}

// QueryResult is one served answer.
type QueryResult struct {
	U, V int
	// Distance is d_{H\F}(U, V) on the spanner snapshot of Epoch: weighted
	// distance on weighted graphs, hop count otherwise, +Inf if the fault
	// set disconnects the pair.
	Distance float64
	// Path is the realizing vertex sequence from U to V (nil when Distance
	// is +Inf). Unless QueryOptions.CopyPath was set, cached answers share
	// one slice across callers: treat it as read-only.
	Path []int
	// Epoch identifies the spanner snapshot the answer is valid for. A
	// cache hit may name an epoch older than the current head (the epoch
	// that computed the entry); Oracle.SnapshotAt recovers that exact
	// graph/spanner state for re-verification while it stays within the
	// retention window.
	Epoch uint64
	// CacheHit reports whether the answer came from the result cache.
	CacheHit bool
}

// Stats is a point-in-time snapshot of the oracle's counters.
type Stats struct {
	Queries     uint64  `json:"queries"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	CacheSize   int     `json:"cache_size"`
	HitRate     float64 `json:"hit_rate"`
	Epoch       uint64  `json:"epoch"`
	Batches     uint64  `json:"batches"`
	N           int     `json:"n"`
	M           int     `json:"m"`
	SpannerM    int     `json:"spanner_m"`
	K           int     `json:"k"`
	F           int     `json:"f"`
	Mode        string  `json:"mode"`

	// CacheShardSizes is the per-partition-shard entry count (stale entries
	// included until lazily collected); nil when caching is disabled.
	CacheShardSizes []int `json:"cache_shard_sizes,omitempty"`
	// ShardsInvalidated counts shard invalidations cumulatively across all
	// batches; LastInvalidatedShards is the count for the head epoch's
	// batch alone (0 for the initial snapshot). cacheShards (64) per batch
	// means full invalidation (a maintainer rebuild).
	ShardsInvalidated     uint64 `json:"shards_invalidated"`
	LastInvalidatedShards int    `json:"last_invalidated_shards"`
	// SnapshotsRetained is the current length of the snapshot chain
	// reachable for SnapshotAt; SnapshotRetain is its configured cap.
	SnapshotsRetained int `json:"snapshots_retained"`
	SnapshotRetain    int `json:"snapshot_retain"`
	// SnapshotSwapNs is the writer-side cost of the head epoch: time Apply
	// spent building and publishing the current snapshot.
	SnapshotSwapNs int64 `json:"snapshot_swap_ns"`
	// CSRPatches / CSRFullBuilds split the spanner snapshots built since
	// startup by path taken: incremental PatchCSR versus full BuildCSR
	// (initial build, maintainer rebuilds, and patch fallbacks). The NsAvg
	// fields report the mean build time of each path.
	CSRPatches        uint64 `json:"csr_patches"`
	CSRFullBuilds     uint64 `json:"csr_full_builds"`
	CSRPatchNsAvg     int64  `json:"csr_patch_ns_avg"`
	CSRFullBuildNsAvg int64  `json:"csr_full_build_ns_avg"`

	// Maintainer exposes the underlying repair counters (frozen at the
	// head epoch's batch).
	Maintainer dynamic.Stats `json:"maintainer"`

	// Durability counters (zero / absent without a Config.WAL).
	//
	// Degraded reports the sticky write-ahead failure state: reads still
	// serve the last published snapshot, writes return ErrDegraded until
	// the process restarts and Recovers.
	Degraded bool `json:"degraded"`
	// ApplyShed counts Apply calls rejected by the bounded apply queue;
	// ApplyQueue echoes the configured bound (0 = unbounded).
	ApplyShed  uint64 `json:"apply_shed"`
	ApplyQueue int    `json:"apply_queue"`
	// WAL carries the log's append/sync counters.
	WAL *wal.Stats `json:"wal,omitempty"`
	// Checkpoints / CheckpointErrors count completed checkpoint file sets
	// and file-set write failures (a file failure alone does not degrade:
	// the marker record in the log keeps recovery exact).
	Checkpoints         uint64 `json:"checkpoints,omitempty"`
	CheckpointErrors    uint64 `json:"checkpoint_errors,omitempty"`
	LastCheckpointEpoch uint64 `json:"last_checkpoint_epoch,omitempty"`
	// Recovery is set on an oracle built by Recover.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
}

// Oracle is a thread-safe query engine over a maintained fault-tolerant
// spanner. All methods are safe for concurrent use; Query, Snapshot,
// SnapshotAt, Epoch, and Stats never take a lock.
type Oracle struct {
	cfg    Config
	n      int
	retain int

	// snap is the RCU-published serving state. Readers only ever Load it;
	// apply is the only writer.
	snap atomic.Pointer[snapshot]

	// wmu serializes Apply batches against each other. Queries never touch
	// it — the read path's only synchronization is the snap Load and the
	// per-shard cache mutexes.
	wmu sync.Mutex
	m   *dynamic.Maintainer

	// pools hold warm searchers, one pool per vertex partition (shared
	// with the cache's partition map), borrowed by cache-miss queries.
	pools       [cacheShards]searcherPool
	newSearcher func() *sp.Searcher
	cache       *resultCache

	queries atomic.Uint64
	hits    atomic.Uint64
	misses  atomic.Uint64
	batches atomic.Uint64

	shardsInvalidated atomic.Uint64
	csrPatches        atomic.Uint64
	csrFullBuilds     atomic.Uint64
	csrPatchNs        atomic.Int64
	csrFullBuildNs    atomic.Int64

	// Durability state (nil/zero without Config.WAL). sinceCkpt is guarded
	// by wmu; the rest are atomics so Stats stays lock-free.
	wal             *wal.Log
	checkpointEvery int
	sinceCkpt       int
	degraded        atomic.Bool
	applySlots      chan struct{} // nil = unbounded; cap = Config.ApplyQueue
	applyShed       atomic.Uint64
	lastApplyNs     atomic.Int64
	checkpoints     atomic.Uint64
	checkpointErrs  atomic.Uint64
	lastCkptEpoch   atomic.Uint64
	recovery        *RecoveryInfo

	// mx is the always-on observability surface (histograms, error
	// counters, the churn-trace ring, and the /metrics registry). Its
	// hot-path instruments are wait-free and allocation-free.
	mx *metricsSet
}

// searcherPoolCap bounds how many warm searchers one partition parks. A
// searcher's scratch is O(n) no matter which partition borrows it, so the
// pools deliberately hold few and rely on stealing: the steady-state
// searcher count tracks the number of concurrent cache-miss readers, not
// the number of partitions.
const searcherPoolCap = 2

// searcherPool is one partition's warm-searcher free list. It is a tiny
// mutex-guarded slice rather than a sync.Pool: the GC purges idle
// sync.Pools every cycle, and with 64 partition pools of O(n) searchers a
// scattered miss workload on a large graph turns that into a
// purge-and-reallocate storm (each reallocation feeds the GC pressure that
// causes the next purge). The mutex guards a pointer swap and is only
// touched on cache misses, so it adds no contention worth measuring.
type searcherPool struct {
	mu   sync.Mutex
	free []*sp.Searcher
}

func (p *searcherPool) get() *sp.Searcher {
	p.mu.Lock()
	var s *sp.Searcher
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	return s
}

// put parks s unless the partition already holds searcherPoolCap; the
// overflow searcher is dropped for the GC to collect.
func (p *searcherPool) put(s *sp.Searcher) {
	p.mu.Lock()
	if len(p.free) < searcherPoolCap {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}

// getSearcher returns a warm searcher for a cache-miss query in shard,
// preferring the shard's own pool, then stealing the nearest parked
// searcher from any other partition, and only allocating when every pool
// is empty (startup, or more concurrent misses than live searchers).
func (o *Oracle) getSearcher(shard int) *sp.Searcher {
	if s := o.pools[shard].get(); s != nil {
		return s
	}
	for i := 1; i < len(o.pools); i++ {
		if s := o.pools[(shard+i)%len(o.pools)].get(); s != nil {
			return s
		}
	}
	return o.newSearcher()
}

// DefaultCheckpointEvery is how many applied batches separate periodic
// checkpoints when Config.CheckpointEvery is 0 and a WAL is configured.
const DefaultCheckpointEvery = 256

// New builds the F-fault-tolerant (2K-1)-spanner of g (via
// dynamic.New, so later Apply batches repair rather than rebuild it) and
// returns an Oracle serving queries on it. g is cloned and never mutated.
//
// With Config.WAL set, the log directory must be fresh (use Recover to
// resume an existing one); New normalizes g's edge-ID layout via
// graph.Compact and writes the initial checkpoint at epoch 1 so recovery
// never needs the original input graph.
func New(g *graph.Graph, cfg Config) (*Oracle, error) {
	if cfg.WAL != nil {
		if cfg.WAL.HasState() {
			return nil, fmt.Errorf("oracle: WAL directory %s already holds state; use Recover", cfg.WAL.Dir())
		}
		// Compact so the live edge-ID layout matches what the checkpoint
		// files serialize: recovered IDs are then identical to live ones.
		g = graph.Compact(g)
	}
	m, err := dynamic.New(g, dynamic.Config{
		K:                cfg.K,
		F:                cfg.F,
		Mode:             cfg.Mode,
		StalenessBudget:  cfg.StalenessBudget,
		BuildParallelism: cfg.BuildParallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o := newFromMaintainer(m, cfg, 1, nil)
	if o.wal != nil {
		ckptStart := time.Now()
		bytes, err := wal.WriteCheckpoint(o.wal.Dir(), 1, o.configStamp(), m.Graph(), m.Spanner())
		if err != nil {
			return nil, fmt.Errorf("oracle: initial checkpoint: %w", err)
		}
		o.mx.ckptNs.Since(ckptStart)
		o.mx.ckptBytes.Add(uint64(bytes))
		o.checkpoints.Add(1)
		o.lastCkptEpoch.Store(1)
	}
	return o, nil
}

// newFromMaintainer finishes construction from an already-built maintainer,
// shared by New and Recover. It adopts the maintainer's resolved knobs
// (Mode normalized to Vertex, StalenessBudget defaulted, BuildParallelism
// resolved) so Config() reports what actually runs, and publishes the
// snapshot for epoch.
func newFromMaintainer(m *dynamic.Maintainer, cfg Config, epoch uint64, rec *RecoveryInfo) *Oracle {
	mc := m.Config()
	cfg.Mode = mc.Mode
	cfg.StalenessBudget = mc.StalenessBudget
	cfg.BuildParallelism = mc.BuildParallelism
	if cfg.SnapshotRetain == 0 {
		cfg.SnapshotRetain = DefaultSnapshotRetain
	}
	if cfg.SnapshotRetain < 1 {
		cfg.SnapshotRetain = 1
	}
	if cfg.WAL != nil && cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	g := m.Graph()
	o := &Oracle{
		cfg:             cfg,
		n:               g.N(),
		retain:          cfg.SnapshotRetain,
		m:               m,
		wal:             cfg.WAL,
		checkpointEvery: cfg.CheckpointEvery,
		recovery:        rec,
	}
	if cfg.ApplyQueue > 0 {
		o.applySlots = make(chan struct{}, cfg.ApplyQueue)
	}
	o.snap.Store(&snapshot{
		epoch:   epoch,
		spanner: graph.BuildCSR(m.Spanner()),
		g:       graph.BuildCSR(m.Graph()),
		maint:   m.Stats(),
	})
	hintN, hintM := g.N(), g.EdgeIDLimit()
	o.newSearcher = func() *sp.Searcher { return sp.NewSearcher(hintN, hintM) }
	if cfg.CacheCapacity >= 0 {
		o.cache = newResultCache(cfg.CacheCapacity, g.N())
	}
	// Last: the registry's func metrics read o.snap and o.cache, and
	// newMetrics attaches the WAL's instruments.
	o.mx = newMetrics(o)
	return o
}

// Config returns the oracle's resolved configuration.
func (o *Oracle) Config() Config { return o.cfg }

// Stretch returns the served stretch bound 2K-1.
func (o *Oracle) Stretch() int { return 2*o.cfg.K - 1 }

// Epoch returns the current head snapshot epoch (lock-free).
func (o *Oracle) Epoch() uint64 { return o.snap.Load().epoch }

// canonFaults validates a query's fault set against the oracle's mode and
// budget and returns its canonical encoding for the cache key: sorted,
// deduplicated element IDs (vertex IDs, or normalized endpoint pairs packed
// as two int32s) in little-endian bytes. The empty fault set encodes as ""
// with zero allocation. A positive MaxDistance appends a 9-byte suffix (tag
// byte + Float64bits); fault encodings are 4- or 8-byte multiples, so the
// suffixed lengths can never collide with an unsuffixed key.
func (o *Oracle) canonFaults(opts QueryOptions) (string, error) {
	key, err := o.canonFaultSet(opts)
	if err != nil {
		return "", err
	}
	if math.IsNaN(opts.MaxDistance) || opts.MaxDistance < 0 {
		return "", fmt.Errorf("oracle: invalid MaxDistance %v", opts.MaxDistance)
	}
	if opts.MaxDistance > 0 && !math.IsInf(opts.MaxDistance, 1) {
		var buf [9]byte
		buf[0] = 0xFF
		binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(opts.MaxDistance))
		key += string(buf[:])
	}
	return key, nil
}

func (o *Oracle) canonFaultSet(opts QueryOptions) (string, error) {
	switch o.cfg.Mode {
	case lbc.Vertex:
		if len(opts.FaultEdges) > 0 {
			return "", fmt.Errorf("oracle: FaultEdges on a vertex-fault oracle (mode %v)", o.cfg.Mode)
		}
		if len(opts.FaultVertices) == 0 {
			return "", nil
		}
		ids := append([]int(nil), opts.FaultVertices...)
		slices.Sort(ids)
		uniq := ids[:0]
		for i, id := range ids {
			if id < 0 || id >= o.n {
				return "", fmt.Errorf("oracle: fault vertex %d out of range [0,%d)", id, o.n)
			}
			if i > 0 && id == ids[i-1] {
				continue
			}
			uniq = append(uniq, id)
		}
		if len(uniq) > o.cfg.F {
			return "", fmt.Errorf("oracle: %d fault vertices exceed the budget f=%d", len(uniq), o.cfg.F)
		}
		buf := make([]byte, 4*len(uniq))
		for i, id := range uniq {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(id))
		}
		return string(buf), nil
	case lbc.Edge:
		if len(opts.FaultVertices) > 0 {
			return "", fmt.Errorf("oracle: FaultVertices on an edge-fault oracle (mode %v)", o.cfg.Mode)
		}
		if len(opts.FaultEdges) == 0 {
			return "", nil
		}
		pairs := make([][2]int, len(opts.FaultEdges))
		for i, p := range opts.FaultEdges {
			u, v := p[0], p[1]
			if u > v {
				u, v = v, u
			}
			if u < 0 || v >= o.n || u == v {
				return "", fmt.Errorf("oracle: fault edge {%d,%d} out of range [0,%d)", p[0], p[1], o.n)
			}
			pairs[i] = [2]int{u, v}
		}
		slices.SortFunc(pairs, func(a, b [2]int) int {
			if c := cmp.Compare(a[0], b[0]); c != 0 {
				return c
			}
			return cmp.Compare(a[1], b[1])
		})
		uniq := pairs[:0]
		for i, p := range pairs {
			if i > 0 && p == pairs[i-1] {
				continue
			}
			uniq = append(uniq, p)
		}
		if len(uniq) > o.cfg.F {
			return "", fmt.Errorf("oracle: %d fault edges exceed the budget f=%d", len(uniq), o.cfg.F)
		}
		buf := make([]byte, 8*len(uniq))
		for i, p := range uniq {
			binary.LittleEndian.PutUint32(buf[8*i:], uint32(p[0]))
			binary.LittleEndian.PutUint32(buf[8*i+4:], uint32(p[1]))
		}
		return string(buf), nil
	}
	return "", fmt.Errorf("oracle: invalid mode %v", o.cfg.Mode)
}

// Query is QueryContext with a context that never ends: every miss runs its
// search to completion.
func (o *Oracle) Query(u, v int, opts QueryOptions) (QueryResult, error) {
	return o.QueryContext(context.Background(), u, v, opts)
}

// QueryContext answers a distance/path query under the fault set of opts,
// lock-free: it loads the published snapshot once and runs entirely
// against it, so concurrent Apply batches never delay it. Hot path: a
// cache hit is one shard map lookup (served labeled with the entry's own
// epoch) and never looks at ctx; a miss borrows a pooled searcher from the
// source vertex's partition and runs one targeted BFS (unweighted) or
// Dijkstra (weighted) on the snapshot's spanner minus the fault mask.
//
// The search itself stops when ctx ends: a miss whose ctx is already done,
// or ends mid-search, returns ctx.Err() (context.DeadlineExceeded or
// context.Canceled), caches nothing, and hands its searcher back clean.
func (o *Oracle) QueryContext(ctx context.Context, u, v int, opts QueryOptions) (QueryResult, error) {
	// obs.Now, not time.Now: the raw monotonic stamp costs half a clock
	// read less, which matters on a hit path that is itself ~80ns.
	start := obs.Now()
	if u < 0 || u >= o.n || v < 0 || v >= o.n {
		o.mx.queryErrors.Inc()
		return QueryResult{}, fmt.Errorf("oracle: query pair {%d,%d} out of range [0,%d)", u, v, o.n)
	}
	faults, err := o.canonFaults(opts)
	if err != nil {
		o.mx.queryErrors.Inc()
		return QueryResult{}, err
	}
	o.queries.Add(1)
	key := cacheKey{u: int32(u), v: int32(v), faults: faults}

	snap := o.snap.Load()
	useCache := o.cache != nil && !opts.NoCache
	if useCache {
		if e, ok := o.cache.get(key, snap.epoch, uint64(o.retain)); ok {
			o.hits.Add(1)
			path := e.path
			if opts.CopyPath && path != nil {
				path = append([]int(nil), path...)
			}
			o.mx.queryHitNs.SinceStamp(start)
			return QueryResult{U: u, V: v, Distance: e.dist, Path: path, Epoch: e.epoch, CacheHit: true}, nil
		}
		// Only consulted-and-missed counts as a miss: NoCache and
		// disabled-cache queries never reach the cache, and counting them
		// here would deflate the reported hit rate.
		o.misses.Add(1)
	}

	if err := ctx.Err(); err != nil {
		return QueryResult{}, err
	}
	h := snap.spanner
	shard := partition(u, o.n)
	s := o.getSearcher(shard)
	s.Grow(h.N(), h.EdgeIDLimit())
	s.ResetBlocked()
	if o.cfg.Mode == lbc.Vertex {
		for _, f := range opts.FaultVertices {
			s.BlockVertex(f)
		}
	} else {
		for _, p := range opts.FaultEdges {
			if id, ok := h.EdgeBetween(p[0], p[1]); ok {
				s.BlockEdge(id)
			}
		}
	}
	radius := math.Inf(1)
	if opts.MaxDistance > 0 {
		radius = opts.MaxDistance
	}
	// The search is unidirectional, so the served distance is the same
	// left-to-right float sum CheckServedAnswer recomputes — bidirectional
	// search would differ in the last ULP and fail verification.
	s.StopOn(ctx.Done())
	dist, pathV, _ := s.DistPathWithin(h, u, v, radius)
	var path []int
	if !math.IsInf(dist, 1) {
		path = append(path, pathV...) // copy off the searcher's buffer
	}
	s.StopOn(nil)
	s.ResetBlocked()
	o.pools[shard].put(s)
	if err := ctx.Err(); err != nil {
		// The search may have been cut short: its answer is not trusted,
		// served, or cached.
		return QueryResult{}, err
	}

	if useCache {
		o.cache.put(key, cacheEntry{epoch: snap.epoch, dist: dist, path: path}, uint64(o.retain))
	}
	res := QueryResult{U: u, V: v, Distance: dist, Path: path, Epoch: snap.epoch}
	if opts.CopyPath && res.Path != nil {
		// The cache now holds path; hand the caller its own copy.
		res.Path = append([]int(nil), res.Path...)
	}
	if opts.MaxDistance > 0 {
		o.mx.queryCappedNs.SinceStamp(start)
	} else {
		o.mx.queryMissNs.SinceStamp(start)
	}
	return res, nil
}

// Apply services one batch of edge updates through the underlying
// dynamic.Maintainer and publishes the next snapshot epoch. Concurrent
// queries are never blocked: they keep serving the previous snapshot until
// the atomic swap and only the cache shards owning vertices the batch
// touched are invalidated. A validation error leaves graph, spanner,
// epoch, and cache unchanged.
//
// With a WAL, Apply is write-ahead: the batch is validated (no mutation),
// durably appended, and only then applied — so an acknowledged batch is
// always recoverable, and a batch that fails validation is never logged.
// Any failure after the append (the log is ahead of, or disagrees with,
// memory) permanently degrades the oracle: reads keep serving the last
// published snapshot, every further Apply returns ErrDegraded, and the
// operator restarts the process to Recover from the log.
//
// With Config.ApplyQueue > 0, an Apply beyond the bound sheds immediately
// with an *OverloadedError instead of queueing on the writer mutex.
func (o *Oracle) Apply(b dynamic.Batch) error {
	_, err := o.apply(b)
	return err
}

// apply is Apply returning the published epoch, read under the same writer
// mutex — the HTTP /batch handler reports it, and a separate Epoch() call
// after the mutex is released could name a later concurrent batch's epoch.
func (o *Oracle) apply(b dynamic.Batch) (uint64, error) {
	if o.applySlots != nil {
		select {
		case o.applySlots <- struct{}{}:
			defer func() { <-o.applySlots }()
		default:
			o.applyShed.Add(1)
			return o.snap.Load().epoch, &OverloadedError{RetryAfter: o.retryAfterHint()}
		}
	}
	o.wmu.Lock()
	defer o.wmu.Unlock()
	applyStart := time.Now()
	if o.degraded.Load() {
		return o.snap.Load().epoch, ErrDegraded
	}
	var stages stageTimes
	cur := o.snap.Load()
	if o.wal != nil {
		// Validate without mutating so a bad batch is rejected before it
		// pollutes the log, then append: write-ahead of the state change.
		vStart := time.Now()
		if err := o.m.Validate(b); err != nil {
			o.mx.applyErrors.Inc()
			return cur.epoch, fmt.Errorf("oracle: %w", err)
		}
		stages.validate = time.Since(vStart).Nanoseconds()
		wStart := time.Now()
		if err := o.wal.AppendBatch(cur.epoch+1, b); err != nil {
			o.degraded.Store(true)
			o.mx.applyErrors.Inc()
			return cur.epoch, fmt.Errorf("oracle: wal append: %w", err)
		}
		stages.walAppend = time.Since(wStart).Nanoseconds()
		if err := faultinject.Fire(faultinject.AfterAppend); err != nil {
			o.degraded.Store(true)
			o.mx.applyErrors.Inc()
			return cur.epoch, fmt.Errorf("oracle: %w", err)
		}
	}
	repairStart := time.Now()
	delta, err := o.m.ApplyBatch(b)
	if err != nil {
		if o.wal != nil {
			// The record is durable but memory rejected it after passing
			// Validate: the log is ahead of memory and the in-process state
			// can no longer be trusted to match a future recovery.
			o.degraded.Store(true)
		}
		o.mx.applyErrors.Inc()
		return cur.epoch, fmt.Errorf("oracle: %w", err)
	}
	stages.repair = time.Since(repairStart).Nanoseconds()
	start := time.Now()
	next := &snapshot{epoch: cur.epoch + 1, maint: o.m.Stats()}

	// Spanner CSR: incremental patch of the touched adjacency rows, unless
	// the maintainer rebuilt from scratch (or the patch refuses), in which
	// case fall back to a full build. Each path is timed separately so
	// Stats can report the incremental speedup.
	csrStart := time.Now()
	if !delta.Rebuilt {
		if patched, perr := graph.PatchCSR(cur.spanner, o.m.Spanner(), delta.Spanner); perr == nil {
			next.spanner = patched
			next.patched = true
			o.csrPatches.Add(1)
			o.csrPatchNs.Add(time.Since(csrStart).Nanoseconds())
		}
	}
	if next.spanner == nil {
		next.spanner = graph.BuildCSR(o.m.Spanner())
		o.csrFullBuilds.Add(1)
		o.csrFullBuildNs.Add(time.Since(csrStart).Nanoseconds())
	}
	// Graph CSR: the batch's own updates are the complete graph delta, so
	// this patch only falls back if something upstream under-reported.
	if patched, perr := graph.PatchCSR(cur.g, o.m.Graph(), delta.Graph); perr == nil {
		next.g = patched
	} else {
		next.g = graph.BuildCSR(o.m.Graph())
	}
	stages.csr = time.Since(csrStart).Nanoseconds()
	publishStart := time.Now()

	// Invalidate before publishing: a reader that already loaded the new
	// snapshot must never hit a pre-batch entry in a touched shard.
	if o.cache != nil {
		if delta.Rebuilt {
			next.invalidated = o.cache.invalidateAll(next.epoch)
		} else {
			touched := append(append([]int(nil), delta.Graph.Vertices...), delta.Spanner.Vertices...)
			next.invalidated = o.cache.invalidateVertices(touched, next.epoch)
		}
		o.shardsInvalidated.Add(uint64(next.invalidated))
	}

	if err := faultinject.Fire(faultinject.BeforePublish); err != nil {
		// Memory is mutated but readers never saw it; a restart replays the
		// logged batch, so recovery converges on the mutated state.
		o.degraded.Store(true)
		o.mx.applyErrors.Inc()
		return cur.epoch, fmt.Errorf("oracle: %w", err)
	}
	next.swapNs = time.Since(start).Nanoseconds()
	o.publishLocked(next, cur)
	stages.publish = time.Since(publishStart).Nanoseconds()
	o.batches.Add(1)
	totalNs := time.Since(applyStart).Nanoseconds()
	o.lastApplyNs.Store(totalNs)
	o.mx.recordApply(next.epoch, totalNs, len(b.Insert), len(b.Delete),
		delta.Rebuilt, next.patched, next.invalidated, stages)

	if o.wal != nil && o.checkpointEvery > 0 {
		o.sinceCkpt++
		if o.sinceCkpt >= o.checkpointEvery {
			if err := o.checkpointLocked(); err != nil {
				// The batch itself is published and durable; only the
				// checkpoint barrier failed (which degrades on its own).
				return next.epoch, fmt.Errorf("oracle: checkpoint: %w", err)
			}
		}
	}
	return next.epoch, nil
}

// publishLocked swaps in next (whose prev becomes cur) and slides the
// retention window: the snapshot past depth retain is unlinked so retired
// epochs (and their CSRs) become collectible. Caller holds wmu.
func (o *Oracle) publishLocked(next, cur *snapshot) {
	next.prev.Store(cur)
	o.snap.Store(next)
	node := next
	for i := 1; i < o.retain && node != nil; i++ {
		node = node.prev.Load()
	}
	if node != nil {
		node.prev.Store(nil)
	}
}

// Stats assembles a snapshot of the counters, lock-free: graph shape and
// maintainer counters come frozen from the published snapshot.
func (o *Oracle) Stats() Stats {
	s := o.snap.Load()
	st := Stats{
		Epoch:                 s.epoch,
		N:                     s.g.N(),
		M:                     s.g.M(),
		SpannerM:              s.spanner.M(),
		Maintainer:            s.maint,
		SnapshotSwapNs:        s.swapNs,
		LastInvalidatedShards: s.invalidated,
		SnapshotsRetained:     o.retained(),
		SnapshotRetain:        o.retain,
	}
	st.Queries = o.queries.Load()
	st.CacheHits = o.hits.Load()
	st.CacheMisses = o.misses.Load()
	st.Batches = o.batches.Load()
	st.ShardsInvalidated = o.shardsInvalidated.Load()
	st.CSRPatches = o.csrPatches.Load()
	st.CSRFullBuilds = o.csrFullBuilds.Load()
	if st.CSRPatches > 0 {
		st.CSRPatchNsAvg = o.csrPatchNs.Load() / int64(st.CSRPatches)
	}
	if st.CSRFullBuilds > 0 {
		st.CSRFullBuildNsAvg = o.csrFullBuildNs.Load() / int64(st.CSRFullBuilds)
	}
	if o.cache != nil {
		sizes := o.cache.shardSizes()
		total := 0
		for _, sz := range sizes {
			total += sz
		}
		st.CacheSize = total
		st.CacheShardSizes = sizes
	}
	// HitRate is the hit rate of the cache itself: hits over queries that
	// consulted it (NoCache and disabled-cache queries consult nothing).
	if consulted := st.CacheHits + st.CacheMisses; consulted > 0 {
		st.HitRate = float64(st.CacheHits) / float64(consulted)
	}
	st.K = o.cfg.K
	st.F = o.cfg.F
	st.Mode = o.cfg.Mode.String()
	st.Degraded = o.degraded.Load()
	st.ApplyShed = o.applyShed.Load()
	st.ApplyQueue = o.cfg.ApplyQueue
	if o.wal != nil {
		ws := o.wal.LogStats()
		st.WAL = &ws
		st.Checkpoints = o.checkpoints.Load()
		st.CheckpointErrors = o.checkpointErrs.Load()
		st.LastCheckpointEpoch = o.lastCkptEpoch.Load()
		st.Recovery = o.recovery
	}
	return st
}
