package oracle

import (
	"time"

	"ftspanner/internal/obs"
	"ftspanner/internal/wal"
)

// churnTraceRing is how many recent apply-pipeline traces the oracle
// retains for /debug/trace/churn.
const churnTraceRing = 128

// ChurnTrace is one applied batch's walk through the write pipeline:
// what the batch was, which path each layer took, and how long every
// stage ran. The oracle keeps the last churnTraceRing of them — the live
// per-event counterpart of the aggregated serve_churn[] bench series.
type ChurnTrace struct {
	// Epoch is the snapshot epoch the batch published.
	Epoch uint64 `json:"epoch"`
	// Time is when the batch was published (UTC).
	Time time.Time `json:"time"`
	// Inserts and Deletes are the batch's update counts.
	Inserts int `json:"inserts"`
	Deletes int `json:"deletes"`
	// Rebuilt reports the maintainer fell past the staleness budget and
	// rebuilt the spanner from scratch; PatchedCSR reports the snapshot
	// took the incremental PatchCSR path rather than a full BuildCSR.
	Rebuilt    bool `json:"rebuilt"`
	PatchedCSR bool `json:"patched_csr"`
	// ShardsInvalidated is how many result-cache shards the batch evicted.
	ShardsInvalidated int `json:"shards_invalidated"`
	// Per-stage durations. ValidateNs and WalAppendNs are 0 without a WAL
	// (the non-durable path validates inside ApplyBatch, inside RepairNs).
	ValidateNs  int64 `json:"validate_ns"`
	WalAppendNs int64 `json:"wal_append_ns"`
	// RepairNs is the maintainer's ApplyBatch: witness invalidation and
	// per-edge LBC re-decisions (or the staleness-budget rebuild).
	RepairNs int64 `json:"repair_ns"`
	// CSRNs covers rebuilding the snapshot's CSRs: spanner patch-or-build
	// plus the graph patch.
	CSRNs int64 `json:"csr_ns"`
	// PublishNs covers cache invalidation and the RCU pointer swap.
	PublishNs int64 `json:"publish_ns"`
	// TotalNs is the whole apply under the writer mutex (excluding any
	// checkpoint that followed it).
	TotalNs int64 `json:"total_ns"`
}

// metricsSet is the oracle's always-on instrumentation: histograms and
// error counters it records directly, plus func metrics that surface the
// counters the oracle and maintainer already keep. Everything hangs off
// one Registry so ftserve can expose the full stack at /metrics.
type metricsSet struct {
	reg *obs.Registry

	queryHitNs    *obs.Histogram
	queryMissNs   *obs.Histogram
	queryCappedNs *obs.Histogram
	queryErrors   *obs.Counter

	applyNs         *obs.Histogram
	stageValidateNs *obs.Histogram
	stageWalNs      *obs.Histogram
	stageRepairNs   *obs.Histogram
	stageCSRNs      *obs.Histogram
	stagePublishNs  *obs.Histogram
	applyErrors     *obs.Counter

	ckptNs    *obs.Histogram
	ckptBytes *obs.Counter

	traces *obs.Ring[ChurnTrace]
}

// newMetrics builds the oracle's registry. Called once from
// newFromMaintainer, after the first snapshot is published, so the func
// metrics can read o.snap freely.
func newMetrics(o *Oracle) *metricsSet {
	reg := obs.NewRegistry()
	mx := &metricsSet{
		reg: reg,

		queryHitNs:    reg.Histogram(`ftspanner_oracle_query_ns{result="hit"}`, "end-to-end Query latency by result: cache hit, computed miss, or computed with a MaxDistance cap"),
		queryMissNs:   reg.Histogram(`ftspanner_oracle_query_ns{result="miss"}`, ""),
		queryCappedNs: reg.Histogram(`ftspanner_oracle_query_ns{result="capped"}`, ""),
		queryErrors:   reg.Counter("ftspanner_oracle_query_errors_total", "Query calls rejected before serving (bad pair, bad fault set)"),

		applyNs:         reg.Histogram("ftspanner_apply_ns", "whole Apply under the writer mutex, excluding checkpoints"),
		stageValidateNs: reg.Histogram(`ftspanner_apply_stage_ns{stage="validate"}`, "Apply write-pipeline stage timings: validate -> wal_append -> repair -> csr -> publish"),
		stageWalNs:      reg.Histogram(`ftspanner_apply_stage_ns{stage="wal_append"}`, ""),
		stageRepairNs:   reg.Histogram(`ftspanner_apply_stage_ns{stage="repair"}`, ""),
		stageCSRNs:      reg.Histogram(`ftspanner_apply_stage_ns{stage="csr"}`, ""),
		stagePublishNs:  reg.Histogram(`ftspanner_apply_stage_ns{stage="publish"}`, ""),
		applyErrors:     reg.Counter("ftspanner_apply_errors_total", "Apply calls that failed after entering the writer mutex"),

		traces: obs.NewRing[ChurnTrace](churnTraceRing),
	}

	// Lock-free scrape of the counters the read/write paths already
	// maintain: atomics and the published snapshot's frozen maintainer
	// stats. No double counting, no new hot-path work.
	reg.GaugeFunc("ftspanner_epoch", "current head snapshot epoch", func() float64 { return float64(o.snap.Load().epoch) })
	reg.CounterFunc("ftspanner_oracle_queries_total", "Query calls accepted", func() float64 { return float64(o.queries.Load()) })
	reg.CounterFunc("ftspanner_oracle_cache_hits_total", "queries served from the result cache", func() float64 { return float64(o.hits.Load()) })
	reg.CounterFunc("ftspanner_oracle_cache_misses_total", "queries that consulted the cache and missed", func() float64 { return float64(o.misses.Load()) })
	reg.CounterFunc("ftspanner_oracle_batches_total", "churn batches applied", func() float64 { return float64(o.batches.Load()) })
	reg.CounterFunc("ftspanner_oracle_shards_invalidated_total", "result-cache shard invalidations across all batches", func() float64 { return float64(o.shardsInvalidated.Load()) })
	reg.CounterFunc("ftspanner_csr_patches_total", "snapshot CSRs built by incremental PatchCSR", func() float64 { return float64(o.csrPatches.Load()) })
	reg.CounterFunc("ftspanner_csr_full_builds_total", "snapshot CSRs built from scratch", func() float64 { return float64(o.csrFullBuilds.Load()) })
	if o.cache != nil {
		reg.GaugeFunc("ftspanner_oracle_cache_entries", "result-cache entries across all shards (stale included until collected)", func() float64 {
			total := 0
			for _, sz := range o.cache.shardSizes() {
				total += sz
			}
			return float64(total)
		})
	}

	reg.GaugeFunc("ftspanner_maintainer_staleness_budget", "resolved rebuild threshold in effect", func() float64 { return o.snap.Load().maint.StalenessBudget })
	reg.CounterFunc("ftspanner_maintainer_redecided_total", "LBC re-decisions outside full builds (inserts + broken witnesses)", func() float64 { return float64(o.snap.Load().maint.Redecided) })
	reg.CounterFunc("ftspanner_maintainer_bfs_passes_total", "hop-bounded BFS passes of those re-decisions", func() float64 { return float64(o.snap.Load().maint.BFSPasses) })
	reg.CounterFunc("ftspanner_maintainer_invalidated_total", "coverage witnesses broken by deletions", func() float64 { return float64(o.snap.Load().maint.Invalidated) })
	reg.CounterFunc("ftspanner_maintainer_repair_batches_total", "batches serviced by edge-by-edge repair", func() float64 { return float64(o.snap.Load().maint.RepairBatches) })
	reg.CounterFunc("ftspanner_maintainer_rebuild_batches_total", "batches serviced by a full rebuild", func() float64 { return float64(o.snap.Load().maint.RebuildBatches) })
	reg.CounterFunc("ftspanner_maintainer_full_builds_total", "traced greedy builds (initial + rebuilds)", func() float64 { return float64(o.snap.Load().maint.FullBuilds) })
	reg.CounterFunc("ftspanner_maintainer_build_rounds_total", "speculate-then-commit rounds of the batched full builds", func() float64 { return float64(o.snap.Load().maint.BuildRounds) })
	reg.CounterFunc("ftspanner_maintainer_build_redecided_total", "speculative decisions invalidated and redone by the batched full builds", func() float64 { return float64(o.snap.Load().maint.BuildRedecided) })

	reg.CounterFunc("ftspanner_apply_shed_total", "Apply calls rejected by the bounded apply queue", func() float64 { return float64(o.applyShed.Load()) })
	reg.GaugeFunc("ftspanner_degraded", "1 while the oracle is in the sticky write-ahead failure state", func() float64 {
		if o.degraded.Load() {
			return 1
		}
		return 0
	})

	if o.wal != nil {
		mx.ckptNs = reg.Histogram("ftspanner_wal_checkpoint_ns", "checkpoint file-set write duration (graph + spanner + meta, fsynced)")
		mx.ckptBytes = reg.Counter("ftspanner_wal_checkpoint_bytes_total", "checkpoint content bytes written")
		reg.CounterFunc("ftspanner_checkpoints_total", "completed checkpoint file sets", func() float64 { return float64(o.checkpoints.Load()) })
		reg.CounterFunc("ftspanner_checkpoint_errors_total", "checkpoint file-set write failures", func() float64 { return float64(o.checkpointErrs.Load()) })
		// The log records its own write-path timings into the shared
		// registry; the counters it already keeps are scraped lazily.
		o.wal.SetMetrics(wal.Metrics{
			AppendNs:      reg.Histogram("ftspanner_wal_append_ns", "churn-log record append, including any policy-triggered fsync"),
			FsyncNs:       reg.Histogram("ftspanner_wal_fsync_ns", "churn-log fsync duration"),
			AppendedBytes: reg.Counter("ftspanner_wal_appended_bytes_total", "churn-log bytes appended (headers + payloads)"),
		})
		reg.CounterFunc("ftspanner_wal_appends_total", "churn-log records appended", func() float64 { return float64(o.wal.LogStats().Appends) })
		reg.CounterFunc("ftspanner_wal_syncs_total", "churn-log fsyncs", func() float64 { return float64(o.wal.LogStats().Syncs) })
		reg.GaugeFunc("ftspanner_wal_size_bytes", "churn-log file size", func() float64 { return float64(o.wal.Size()) })
	}
	return mx
}

// stageTimes carries one apply's per-stage durations from the pipeline to
// recordApply.
type stageTimes struct {
	validate, walAppend, repair, csr, publish int64
}

// recordApply folds one successful apply into the histograms and the
// churn-trace ring. Called under wmu, right after publishLocked.
func (mx *metricsSet) recordApply(epoch uint64, total int64, inserts, deletes int, rebuilt, patched bool, invalidated int, st stageTimes) {
	mx.applyNs.Record(total)
	// ckptNs doubles as the has-WAL marker: without a WAL the validate and
	// wal_append stages don't run (ApplyBatch validates internally), so
	// recording zeros would just skew their distributions.
	if mx.ckptNs != nil {
		mx.stageValidateNs.Record(st.validate)
		mx.stageWalNs.Record(st.walAppend)
	}
	mx.stageRepairNs.Record(st.repair)
	mx.stageCSRNs.Record(st.csr)
	mx.stagePublishNs.Record(st.publish)
	mx.traces.Append(ChurnTrace{
		Epoch:             epoch,
		Time:              time.Now().UTC(),
		Inserts:           inserts,
		Deletes:           deletes,
		Rebuilt:           rebuilt,
		PatchedCSR:        patched,
		ShardsInvalidated: invalidated,
		ValidateNs:        st.validate,
		WalAppendNs:       st.walAppend,
		RepairNs:          st.repair,
		CSRNs:             st.csr,
		PublishNs:         st.publish,
		TotalNs:           total,
	})
}

// Registry returns the oracle's metrics registry — mount
// Registry().Handler() at /metrics (the oracle's own HTTP handler already
// does). The registry is always on; its hot-path instruments are
// wait-free and allocation-free, which TestHotCacheHitZeroAllocs pins.
func (o *Oracle) Registry() *obs.Registry { return o.mx.reg }

// ChurnTraces returns the most recent apply-pipeline traces, oldest
// first (at most churnTraceRing of them).
func (o *Oracle) ChurnTraces() []ChurnTrace { return o.mx.traces.Snapshot() }
