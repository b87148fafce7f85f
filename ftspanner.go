// Package ftspanner constructs fault-tolerant graph spanners in polynomial
// time, implementing "Efficient and Simple Algorithms for Fault-Tolerant
// Spanners" (Dinitz & Robelle, PODC 2020).
//
// An f-fault-tolerant t-spanner of a graph G is a subgraph H such that for
// every set F of at most f failed vertices (or edges) and every surviving
// pair u, v:
//
//	d_{H\F}(u, v) ≤ t · d_{G\F}(u, v)
//
// The package's central construction is Build, the paper's modified greedy
// algorithm (Theorem 2): given stretch parameter k and fault budget f it
// returns an f-fault-tolerant (2k-1)-spanner with O(k·f^(1-1/k)·n^(1+1/k))
// edges in O(m·k·f^(2-1/k)·n^(1+1/k)) time, for both unweighted and weighted
// graphs and both vertex and edge faults.
//
// Also provided: the exponential-time size-optimal greedy (BuildExact), the
// classic non-fault-tolerant greedy and Baswana–Sen spanners, the
// Dinitz–Krauthgamer reduction, distributed constructions in the LOCAL and
// CONGEST models (BuildLOCAL, BuildCONGEST) on a message-passing simulator,
// verification utilities (Verify, VerifySampled, MaxStretch), dynamic
// maintenance under batched edge churn (NewMaintainer), a concurrent
// query-serving engine answering distance/path queries under per-query
// fault sets (NewOracle; served over HTTP by cmd/ftserve), and reproducible
// random workload generators (the Random* graph helpers plus the
// UniformQueryPairs / ZipfQueryPairs / FaultBurstSchedule query workloads).
//
// Quick start:
//
//	g := ftspanner.NewGraph(1000)
//	// ... add edges with g.AddEdge / g.AddEdgeW ...
//	h, stats, err := ftspanner.Build(g, ftspanner.Options{K: 2, F: 2})
//	// h is a 2-fault-tolerant 3-spanner of g.
package ftspanner

import (
	"fmt"
	"io"
	"math/rand"

	"ftspanner/internal/core"
	"ftspanner/internal/dist"
	"ftspanner/internal/dist/congest"
	"ftspanner/internal/dist/local"
	"ftspanner/internal/dk11"
	"ftspanner/internal/dynamic"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/oracle"
	"ftspanner/internal/sp"
	"ftspanner/internal/spanner"
	"ftspanner/internal/verify"
	"ftspanner/internal/wal"
)

// Graph is an undirected graph with optional non-negative edge weights.
// Construct with NewGraph or NewWeightedGraph; see the methods on the type
// for mutation and queries.
type Graph = graph.Graph

// Edge is an undirected weighted edge of a Graph.
type Edge = graph.Edge

// NewGraph returns an empty unweighted graph on n vertices (IDs 0..n-1).
func NewGraph(n int) *Graph { return graph.New(n) }

// NewWeightedGraph returns an empty weighted graph on n vertices.
func NewWeightedGraph(n int) *Graph { return graph.NewWeighted(n) }

// ReadGraph decodes a graph from the package's text format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph encodes a graph in the package's text format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// GraphView is the read-only interface over a graph that every construction,
// decision, and verification entry point accepts: both *Graph and *CSR
// implement it, with byte-identical results.
type GraphView = graph.View

// CSR is an immutable flat-adjacency (compressed sparse row) snapshot of a
// graph: one offsets array and one contiguous half-edge array instead of
// per-vertex slices. Build one with SnapshotCSR (from a *Graph) or
// ReadGraphCSR (straight from the text format); it serves the same GraphView
// interface with better locality and ~half the pointer overhead, which is
// what the serving and million-node paths want.
type CSR = graph.CSR

// SnapshotCSR builds a CSR snapshot of g, preserving edge IDs and adjacency
// order exactly, so algorithms running on the snapshot return byte-identical
// results.
func SnapshotCSR(g *Graph) *CSR { return graph.BuildCSR(g) }

// ReadGraphCSR decodes a graph from the package's text format directly into
// a CSR snapshot, holding only the flat arrays — the O(n+m) ingestion path
// for million-node graphs.
func ReadGraphCSR(r io.Reader) (*CSR, error) { return graph.ReadCSR(r) }

// FaultMode selects vertex faults (VFT) or edge faults (EFT).
type FaultMode = lbc.Mode

// Fault modes.
const (
	// VertexFaults protects against up to f failed vertices.
	VertexFaults = lbc.Vertex
	// EdgeFaults protects against up to f failed edges.
	EdgeFaults = lbc.Edge
)

// Stats reports construction effort; see Build.
type Stats = core.Stats

// Options parameterizes Build and BuildExact.
type Options struct {
	// K is the stretch parameter: the constructed spanner has stretch 2K-1.
	// Must be >= 1.
	K int
	// F is the fault budget: the number of simultaneous failures tolerated.
	// F = 0 yields an ordinary (non-fault-tolerant) spanner.
	F int
	// Mode selects vertex or edge faults. Zero value means VertexFaults.
	Mode FaultMode
	// Parallelism is the number of worker goroutines used by the
	// embarrassingly-parallel phases (BuildExact's per-edge fault-set
	// search; the Verify* functions take it as an explicit argument
	// instead). 0 selects GOMAXPROCS; 1 forces the sequential path.
	// Results are byte-identical for every value.
	Parallelism int
	// BuildParallelism is the worker count for the modified greedy
	// construction itself: Build, NewMaintainer's and NewOracle's initial
	// build, and the maintainer's staleness-budget rebuild fallback. 0
	// selects GOMAXPROCS; 1 forces the classic sequential loop. More than
	// one worker runs the construction in deterministic speculate-then-
	// commit rounds (see README "Parallel construction"); the spanner is
	// byte-identical to the sequential build for every value, so the knob
	// trades cores for wall-clock and nothing else.
	BuildParallelism int
	// StalenessBudget tunes NewMaintainer and NewOracle only: the fraction
	// of live edges a deletion batch may invalidate before the maintainer
	// rebuilds the spanner from scratch instead of repairing it edge by
	// edge. 0 selects the default (0.25); values >= 1 effectively disable
	// rebuilds. Build and BuildExact ignore it.
	StalenessBudget float64
	// CacheCapacity tunes NewOracle only: the total entry budget of its
	// query-result cache. 0 selects the default (32768); negative disables
	// caching. Every other entry point ignores it.
	CacheCapacity int
	// SnapshotRetain tunes NewOracle only: how many epoch snapshots the
	// oracle keeps reachable for re-verification (Oracle.SnapshotAt), which
	// is also how many epochs a cached answer may keep being served after
	// the batch that produced it. 0 selects the default (8); 1 restricts
	// serving to the head epoch. Each retained epoch pins O(n+m) memory.
	// Every other entry point ignores it.
	SnapshotRetain int
	// WAL tunes NewOracle only: a durable churn log (OpenWAL) that makes
	// every Oracle.Apply write-ahead and the oracle recoverable after
	// kill -9 via RecoverOracle. The log directory must be fresh; nil
	// disables durability. Every other entry point ignores it.
	WAL *WAL
	// CheckpointEvery tunes NewOracle with a WAL only: a checkpoint (a
	// compaction barrier bounding recovery replay) is written every this
	// many applied batches. 0 selects the default (256); negative disables
	// periodic checkpoints (Oracle.Checkpoint still works).
	CheckpointEvery int
	// ApplyQueue tunes NewOracle only: a positive value bounds how many
	// Apply calls may be in flight before further ones shed immediately
	// with an *oracle.OverloadedError instead of queueing. 0 = unbounded.
	ApplyQueue int
}

// normalizeMode maps the zero FaultMode to VertexFaults, so that the
// documented "zero value means VertexFaults" holds at every top-level entry
// point, not just the ones routed through Options.
func normalizeMode(m FaultMode) FaultMode {
	if m == 0 {
		return VertexFaults
	}
	return m
}

func (o Options) mode() FaultMode { return normalizeMode(o.Mode) }

// Stretch returns the stretch 2K-1 the options request.
func (o Options) Stretch() int { return core.Stretch(o.K) }

// Build constructs an F-fault-tolerant (2K-1)-spanner of g with the paper's
// polynomial-time modified greedy algorithm (Algorithm 3 on unweighted
// graphs, Algorithm 4 on weighted graphs). The output is a new subgraph of
// g; g is not modified.
//
// Each call allocates one searcher per worker of Options.BuildParallelism
// (0 selects GOMAXPROCS). With more than one worker the construction runs in
// batched-parallel rounds; the returned spanner and stats (besides the round
// counters) are byte-identical to the sequential build either way.
func Build(g *Graph, opts Options) (*Graph, Stats, error) {
	return opts.build(g, sp.NewSearchers(opts.BuildParallelism, 0, 0))
}

// build runs the modified greedy on searchers, untraced.
func (o Options) build(g *Graph, searchers []*Searcher) (*Graph, Stats, error) {
	h, _, stats, err := core.Build(g, core.Params{K: o.K, F: o.F, Mode: o.mode(), Searchers: searchers})
	return h, stats, err
}

// Searcher is a reusable shortest-path engine holding all the scratch the
// constructions' inner BFS/Dijkstra queries need. Build allocates
// Options.BuildParallelism of them per call; callers constructing many
// spanners can allocate one with NewSearcher and pass it to BuildWith so the
// scratch is reused across builds. A Searcher is not safe for concurrent
// use.
type Searcher = sp.Searcher

// NewSearcher returns a Searcher preallocated for graphs with up to n
// vertices and m edges; it grows on demand beyond that.
func NewSearcher(n, m int) *Searcher { return sp.NewSearcher(n, m) }

// BuildWith is the sequential Build on the one searcher s, reusing its
// scratch across the construction (nil s allocates a fresh one). It ignores
// Options.BuildParallelism: the spanner is the one Build returns, and
// Stats.Rounds stays 0. The construction's hot loop performs no per-edge
// heap allocation on a warm searcher.
func BuildWith(s *Searcher, g *Graph, opts Options) (*Graph, Stats, error) {
	return opts.build(g, []*Searcher{s})
}

// BuildExact constructs the spanner with the original exponential-time
// greedy (Algorithm 1), whose size is fully optimal,
// O(f^(1-1/k)·n^(1+1/k)). Its edge test enumerates all C(n, F) fault sets —
// use only on small instances (the paper's open problem that Build answers
// was precisely avoiding this cost). The fault-set enumeration is sharded
// across Options.Parallelism workers; the result is byte-identical for
// every worker count.
func BuildExact(g *Graph, opts Options) (*Graph, Stats, error) {
	return core.ExactGreedyParallel(g, opts.K, opts.F, opts.mode(), opts.Parallelism)
}

// SizeBound returns the Theorem 8 size bound k·f^(1-1/k)·n^(1+1/k) (without
// its constant); useful for normalizing measured sizes.
func SizeBound(n, k, f int) float64 { return core.SizeBound(n, k, f) }

// GreedySpanner builds a non-fault-tolerant (2k-1)-spanner with the classic
// greedy algorithm of Althöfer et al. (size O(n^(1+1/k))).
func GreedySpanner(g *Graph, k int) (*Graph, error) { return spanner.Greedy(g, k) }

// BaswanaSenSpanner builds a non-fault-tolerant (2k-1)-spanner with the
// randomized algorithm of Baswana and Sen (expected size O(k·n^(1+1/k))).
// The stretch guarantee holds on every run.
func BaswanaSenSpanner(rng *rand.Rand, g *Graph, k int) (*Graph, error) {
	return spanner.BaswanaSen(rng, g, k)
}

// DK11Spanner builds an f-vertex-fault-tolerant (2k-1)-spanner with the
// Dinitz–Krauthgamer reduction over the classic greedy: size
// O(f^(2-1/k)·n^(1+1/k)·log n), guarantee with high probability. iterations
// = 0 selects the canonical ⌈f³·ln n⌉.
func DK11Spanner(rng *rand.Rand, g *Graph, k, f, iterations int) (*Graph, error) {
	if iterations == 0 {
		iterations = dk11.DefaultIterations(g.N(), f)
	}
	return dk11.Construct(rng, g, f, iterations, func(r *rand.Rand, sub *Graph) (*Graph, error) {
		return spanner.Greedy(sub, k)
	})
}

// LocalResult is the outcome of BuildLOCAL: the spanner plus LOCAL-model
// round accounting.
type LocalResult = local.Result

// BuildLOCAL runs the paper's Theorem 12 LOCAL-model algorithm: padded
// decomposition plus per-cluster greedy, O(log n) rounds and size
// O(f^(1-1/k)·n^(1+1/k)·log n) with high probability (vertex faults).
func BuildLOCAL(g *Graph, opts Options, seed int64) (*LocalResult, error) {
	if opts.mode() != VertexFaults {
		return nil, fmt.Errorf("ftspanner: the LOCAL construction supports vertex faults only")
	}
	return local.FTSpanner(g, local.Options{K: opts.K, F: opts.F, Seed: seed})
}

// DistResult carries the message-passing engine's accounting for a
// distributed run: logical rounds, CONGEST-charged rounds, message and bit
// totals, and worst per-edge congestion.
type DistResult = dist.Result

// BuildCONGEST runs the paper's Theorem 15 CONGEST-model algorithm
// (Dinitz–Krauthgamer over distributed Baswana–Sen, all iterations in
// parallel under congestion scheduling). iterations = 0 selects the
// canonical ⌈f³·ln n⌉. Vertex faults, guarantee with high probability;
// size O(k·f^(2-1/k)·n^(1+1/k)·log n).
func BuildCONGEST(g *Graph, opts Options, iterations int, seed int64) (*Graph, *DistResult, error) {
	if opts.mode() != VertexFaults {
		return nil, nil, fmt.Errorf("ftspanner: the CONGEST construction supports vertex faults only")
	}
	return congest.FTSpanner(g, opts.K, opts.F, iterations, seed)
}

// BaswanaSenCONGEST runs the distributed Baswana–Sen (2k-1)-spanner
// (Theorem 14) in the CONGEST model: O(k²) rounds, O(log n)-bit messages.
func BaswanaSenCONGEST(g *Graph, k int, seed int64) (*Graph, *DistResult, error) {
	return congest.BaswanaSen(g, k, seed)
}

// Maintainer keeps an F-fault-tolerant (2K-1)-spanner in sync with a graph
// under batched edge insertions and deletions, re-deciding only the edges
// whose stored LBC certificates an update actually broke (with a full
// rebuild fallback once a staleness budget is exceeded). See NewMaintainer.
type Maintainer = dynamic.Maintainer

// MaintainerStats exposes a Maintainer's cumulative effort counters:
// inserts/deletes applied, witnesses invalidated, LBC re-decisions, and the
// repair-vs-rebuild batch split.
type MaintainerStats = dynamic.Stats

// EdgeUpdate names one endpoint pair of an UpdateBatch, with the weight for
// insertions into weighted graphs (0 means weight 1 on unweighted graphs).
type EdgeUpdate = dynamic.Update

// UpdateBatch is one atomic group of edge updates for a Maintainer:
// deletions apply before insertions, and the whole batch is validated
// before anything mutates.
type UpdateBatch = dynamic.Batch

// TouchedSet names the vertices whose adjacency changed and the edge-ID
// slots that changed across one batch — the unit an incremental CSR patch
// (PatchCSR) consumes.
type TouchedSet = graph.Touched

// UpdateDelta is Maintainer.ApplyBatch's account of what one batch moved:
// the touched sets of the graph and the spanner, or Rebuilt when the
// maintainer rebuilt the spanner from scratch and the spanner set is
// meaningless.
type UpdateDelta = dynamic.Delta

// PatchCSR re-snapshots g in O(touched) instead of O(n+m): adjacency rows
// and edge slots outside the touched set are block-copied from prev (an
// earlier snapshot of the same graph), only the touched ones are re-read.
// It validates what it cheaply can and errors rather than returning a
// corrupt snapshot; callers fall back to SnapshotCSR.
func PatchCSR(prev *CSR, g *Graph, t TouchedSet) (*CSR, error) {
	return graph.PatchCSR(prev, g, t)
}

// NewMaintainer builds the spanner of g per opts (like Build, recording the
// per-edge certificates) and returns a Maintainer that keeps it valid under
// Maintainer.ApplyBatch updates. The graph is cloned: later batches never
// mutate g. Query the maintained pair with Maintainer.Graph and
// Maintainer.Spanner, and the repair counters with Maintainer.Stats.
//
// After every successful ApplyBatch the spanner satisfies the same
// F-fault-tolerant (2K-1)-spanner property Build guarantees for the updated
// graph; it may differ edge-for-edge from a fresh Build, since repairs
// decide against the evolved spanner rather than the greedy prefix.
func NewMaintainer(g *Graph, opts Options) (*Maintainer, error) {
	return dynamic.New(g, dynamic.Config{
		K:                opts.K,
		F:                opts.F,
		Mode:             opts.mode(),
		StalenessBudget:  opts.StalenessBudget,
		BuildParallelism: opts.BuildParallelism,
	})
}

// Oracle is a thread-safe query engine serving distance/path queries on a
// maintained fault-tolerant spanner under per-query fault sets. The read
// path is lock-free RCU: queries load an atomically published immutable
// snapshot and run entirely against it on pooled zero-allocation
// searchers, so Oracle.Apply churn batches never block readers. Hot
// answers come from a result cache sharded by vertex partition — a batch
// invalidates only the shards owning vertices it touched, and surviving
// entries are served labeled with the (possibly older) epoch that produced
// them, re-verifiable through Oracle.SnapshotAt for as long as that epoch
// is retained. See NewOracle.
type Oracle = oracle.Oracle

// QueryOptions carries one query's fault set (vertex IDs or edge endpoint
// pairs, per the oracle's FaultMode) and cache directive.
type QueryOptions = oracle.QueryOptions

// QueryResult is one served answer: the distance and realizing path on the
// spanner snapshot identified by its Epoch, plus whether it was served from
// the cache.
type QueryResult = oracle.QueryResult

// OracleStats is a point-in-time snapshot of an Oracle's serving counters:
// queries, cache hits/misses/size, epoch, batches, and the underlying
// MaintainerStats.
type OracleStats = oracle.Stats

// NewOracle builds the F-fault-tolerant (2K-1)-spanner of g (recording
// repair certificates, like NewMaintainer) and returns an Oracle serving
// distance/path queries on it. g is cloned and never mutated. All Oracle
// methods are safe for concurrent use: queries, snapshots, and stats are
// lock-free reads of the current published epoch, and Oracle.Apply
// serializes churn batches on a writer-only mutex while readers keep
// serving the previous epoch.
//
// For any fault set F of at most Options.F failures (of Options.Mode) and
// any surviving pair, the served distance is at most 2K-1 times the true
// distance in the faulted source graph of the answer's epoch — the spanner
// guarantee, delivered as a service.
func NewOracle(g *Graph, opts Options) (*Oracle, error) {
	return oracle.New(g, opts.oracleConfig())
}

func (o Options) oracleConfig() oracle.Config {
	return oracle.Config{
		K:                o.K,
		F:                o.F,
		Mode:             o.mode(),
		StalenessBudget:  o.StalenessBudget,
		BuildParallelism: o.BuildParallelism,
		CacheCapacity:    o.CacheCapacity,
		SnapshotRetain:   o.SnapshotRetain,
		WAL:              o.WAL,
		CheckpointEvery:  o.CheckpointEvery,
		ApplyQueue:       o.ApplyQueue,
	}
}

// WAL is a durable churn log: an append-only, CRC-checksummed record log
// plus periodic checkpoint files in one directory, which together make an
// Oracle recoverable to its exact pre-crash state (same spanner edge set,
// same epoch) after kill -9. Open one with OpenWAL, hand it to NewOracle
// via Options.WAL on a fresh directory, or to RecoverOracle on a directory
// holding state. Use WAL.HasState to pick between the two.
type WAL = wal.Log

// WALOptions parameterizes OpenWAL: the directory, the fsync policy, and
// record-size bounds.
type WALOptions = wal.Options

// WALSyncPolicy says when churn-log appends reach stable storage.
type WALSyncPolicy = wal.SyncPolicy

// Fsync policies for WALOptions.Sync.
const (
	// WALSyncAlways fsyncs every append: acknowledged batches survive power
	// loss. The default.
	WALSyncAlways = wal.SyncAlways
	// WALSyncInterval fsyncs at most once per WALOptions.SyncInterval.
	WALSyncInterval = wal.SyncInterval
	// WALSyncNever leaves flushing to the OS: the log still survives
	// process death, only machine death can lose the tail.
	WALSyncNever = wal.SyncNever
)

// OpenWAL opens (creating if necessary) the churn log in opts.Dir and
// repairs any torn tail a crash left behind.
func OpenWAL(opts WALOptions) (*WAL, error) { return wal.Open(opts) }

// ParseWALSyncPolicy maps the command-line spellings always/interval/off.
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// RecoveryInfo describes what RecoverOracle did: the checkpoint it started
// from, the records it replayed, and the final epoch.
type RecoveryInfo = oracle.RecoveryInfo

// RecoverOracle reconstructs an Oracle from w's directory — newest
// committed checkpoint plus deterministic replay of the logged churn
// suffix — landing on exactly the pre-crash durable state. opts must match
// the configuration the log was written under (refused otherwise);
// opts.WAL is ignored and replaced by w, which the recovered oracle owns
// and keeps appending to.
func RecoverOracle(w *WAL, opts Options) (*Oracle, RecoveryInfo, error) {
	return oracle.Recover(w, opts.oracleConfig())
}

// VerifyReport summarizes a verification run; see Verify.
type VerifyReport = verify.Report

// Violation is a concrete counterexample to the spanner property.
type Violation = verify.Violation

// Verify checks exhaustively (over every fault set of size at most f)
// whether h is an f-fault-tolerant t-spanner of g. Exponential in f; for
// large instances use VerifySampled.
func Verify(g, h *Graph, t float64, f int, mode FaultMode) (VerifyReport, error) {
	return verify.Exhaustive(g, h, t, f, normalizeMode(mode))
}

// VerifyParallel is Verify with the fault sets sharded across parallelism
// worker goroutines (0 selects GOMAXPROCS). The report matches Verify's:
// same outcome and same first violation for every worker count.
func VerifyParallel(g, h *Graph, t float64, f int, mode FaultMode, parallelism int) (VerifyReport, error) {
	return verify.ExhaustiveParallel(g, h, t, f, normalizeMode(mode), parallelism)
}

// VerifySampled checks h against the empty fault set plus trials random
// fault sets of size f. A reported violation is definite; OK is evidence,
// not proof.
func VerifySampled(g, h *Graph, t float64, f int, mode FaultMode, rng *rand.Rand, trials int) (VerifyReport, error) {
	return verify.Sampled(g, h, t, f, normalizeMode(mode), rng, trials)
}

// VerifySampledParallel is VerifySampled sharded across parallelism worker
// goroutines (0 selects GOMAXPROCS); trial sets are drawn from rng in the
// same order as VerifySampled, and the reported violation is the one of the
// lowest trial index.
func VerifySampledParallel(g, h *Graph, t float64, f int, mode FaultMode, rng *rand.Rand, trials int, parallelism int) (VerifyReport, error) {
	return verify.SampledParallel(g, h, t, f, normalizeMode(mode), rng, trials, parallelism)
}

// MaxStretch measures the worst realized stretch of h against g after
// failing the given vertices or g-edge IDs (per mode): the maximum over
// surviving vertex pairs of d_{H\F}/d_{G\F}, +Inf if h disconnects a pair
// that g keeps connected.
func MaxStretch(g, h *Graph, faultIDs []int, mode FaultMode) (float64, error) {
	return verify.MaxStretch(g, h, faultIDs, normalizeMode(mode))
}
