package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ftspanner"
	"ftspanner/internal/lbc"
	"ftspanner/internal/oracle"
)

// The traced run replays a workload's inputs in-process, single goroutine,
// with a span at each call into a layer's public functions, then drives the
// wire phases once more for the figures only a socket has. It reports the
// per-layer metrics and prints four budgets that set the layer sums against
// the end-to-end figure they should explain. End-to-end metrics are never
// taken from it.

// loopResult is what the harness-side greedy produced and how long it took.
type loopResult struct {
	h             *ftspanner.Graph
	passes, yes   int
	loopS, orderS float64
}

// greedyLoop is the harness-side Algorithm 3/4: order the edges, decide each
// with lbc.DecideWith against the spanner so far, add it on YES. With a
// tracer every call is a span; without, the loop runs bare, and the
// difference is the tracing overhead.
func greedyLoop(tr *tracer, parent int, g *ftspanner.Graph, sp *spec) (lr loopResult, err error) {
	start := time.Now()
	loop := -1
	var order []int
	if tr != nil {
		loop = tr.begin("core.loop", parent)
		ord := tr.begin("graph.order", loop)
		order = considerationOrder(g)
		lr.orderS = tr.end(ord)
	} else {
		order = considerationOrder(g)
	}
	if g.Weighted() {
		lr.h = ftspanner.NewWeightedGraph(g.N())
	} else {
		lr.h = ftspanner.NewGraph(g.N())
	}
	s := ftspanner.NewSearcher(g.N(), g.EdgeIDLimit())
	t := 2*sp.k - 1
	// One clock read per boundary: the end of a span is the start of the
	// next, which keeps the tracing overhead of ~0.5M cheap edges in bounds.
	var decide, add *series
	var mark int64
	if tr != nil {
		decide, add = tr.series("lbc.decide"), tr.series("core.add_edge")
		decide.reserve(len(order))
		add.reserve(len(order))
		mark = tr.now()
	}
	for _, id := range order {
		e := g.Edge(id)
		res, err := lbc.DecideWith(s, lr.h, e.U, e.V, t, sp.f, sp.mode())
		if err != nil {
			return lr, err
		}
		if tr != nil {
			now := tr.now()
			decide.add(loop, mark, now)
			mark = now
		}
		lr.passes += res.Passes
		if res.Yes {
			lr.yes++
			if _, err := lr.h.AddEdgeW(e.U, e.V, e.W); err != nil {
				return lr, err
			}
			if tr != nil {
				now := tr.now()
				add.add(loop, mark, now)
				mark = now
			}
		}
	}
	if tr != nil {
		tr.end(loop)
	}
	lr.loopS = time.Since(start).Seconds()
	return lr, nil
}

// considerationOrder is the greedy's canonical order: nondecreasing weight
// on weighted graphs, edge ID otherwise.
func considerationOrder(g *ftspanner.Graph) []int {
	if g.Weighted() {
		return g.EdgeIDsByWeight()
	}
	return g.EdgeIDs()
}

// csrBytes is the size of a CSR's three arrays: n+1 offsets, two half-edges
// (two ints) per edge, one edge record (two ints and a weight) per ID slot.
func csrBytes(c *ftspanner.CSR) float64 {
	return float64(8*(c.N()+1) + 16*2*c.M() + 24*c.EdgeIDLimit())
}

// maxSearches caps the bare-search pass of the traced run.
const maxSearches = 2000

// recorder is the in-memory http.ResponseWriter the handler is timed into.
type recorder struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *recorder) WriteHeader(status int)      { r.status = status }

func blockFaults(s *ftspanner.Searcher, h *ftspanner.CSR, q *query) {
	s.ResetBlocked()
	for _, x := range q.faultV {
		s.BlockVertex(x)
	}
	for _, p := range q.faultE {
		if id, ok := h.EdgeBetween(p[0], p[1]); ok {
			s.BlockEdge(id)
		}
	}
}

// newestCheckpointBytes sums the files of the newest checkpoint in dir.
func newestCheckpointBytes(dir string) (float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*"))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no checkpoint files in %s (%v)", dir, err)
	}
	sort.Strings(files)
	newest, _, _ := strings.Cut(filepath.Base(files[len(files)-1]), ".")
	total := 0.0
	for _, f := range files {
		if strings.HasPrefix(filepath.Base(f), newest+".") {
			st, err := os.Stat(f)
			if err != nil {
				return 0, err
			}
			total += float64(st.Size())
		}
	}
	return total, nil
}

func runTraced(env *runEnv, sp *spec, seed int64, seconds int) (*result, error) {
	res := &result{workload: sp.name, seed: seed, metrics: map[string]metric{}, correct: true}
	ph := splitSeconds(seconds)
	dir, err := os.MkdirTemp(env.out, sp.name+"-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, file, _, err := setup(sp, seed, ph, dir, 1)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	g, opts := in.g, sp.options()
	tr := newTracer(sp.name)
	root := tr.begin("traced_run", -1)
	fail := func(layer string, err error) (*result, error) {
		return nil, fmt.Errorf("traced run, %s: %w", layer, err)
	}

	// graph: ingest.
	id := tr.begin("graph.read", root)
	f, err := os.Open(file)
	if err != nil {
		return fail("graph", err)
	}
	g2, err := ftspanner.ReadGraph(f)
	f.Close()
	if err != nil {
		return fail("graph", err)
	}
	res.set("graph.read_s", tr.end(id), "s")
	res.check(edgeTableHash(g2) == edgeTableHash(g), "graph file does not read back as written")

	// core / lbc: the harness-side greedy, traced and bare.
	lr, err := greedyLoop(tr, root, g, sp)
	if err != nil {
		return fail("core", err)
	}
	bare, err := greedyLoop(nil, -1, g, sp)
	if err != nil {
		return fail("core", err)
	}
	h, passes, loopS, orderS := lr.h, lr.passes, lr.loopS, lr.orderS
	loopHash := edgeTableHash(h)
	decide := sortedCopy(tr.series("lbc.decide").scaled(1e3))
	res.set("graph.order_s", orderS, "s")
	res.set("core.loop_s", loopS, "s")
	res.set("lbc.decide_mean_us", mean(decide), "us")
	res.set("lbc.decide_p99_us", percentile(decide, 0.99), "us")
	res.set("lbc.passes_per_decision", float64(passes)/float64(g.M()), "ratio")
	res.set("lbc.yes_share", float64(lr.yes)/float64(g.M()), "ratio")
	res.set("trace.overhead_share", (loopS-bare.loopS)/bare.loopS, "ratio")
	res.set("core.size_over_bound", float64(h.M())/ftspanner.SizeBound(g.N(), sp.k, sp.f), "ratio")

	// sp: one hop-bounded BFS pass on sampled considered edges, against the
	// finished spanner.
	s := ftspanner.NewSearcher(g.N(), g.EdgeIDLimit())
	rng := in.stream(streamSample)
	expanded := 0
	const bfsSamples = 2000
	for i := 0; i < bfsSamples; i++ {
		p := in.edges[rng.Intn(len(in.edges))]
		s.ResetBlocked()
		s.StartExpandedLog()
		t0 := tr.now()
		s.PathWithin(h, p[0], p[1], 2*sp.k-1)
		tr.series("sp.bfs_pass").add(root, t0, tr.now())
		expanded += len(s.StopExpandedLog())
	}
	res.set("sp.bfs_pass_us", mean(tr.series("sp.bfs_pass").scaled(1e3)), "us")
	res.set("sp.expanded_per_pass", float64(expanded)/bfsSamples, "vertices")

	// core: the program's own builds, sequential and default.
	id = tr.begin("core.build_seq", root)
	seqOpts := opts
	seqOpts.BuildParallelism = 1
	hSeq, seqStats, err := ftspanner.Build(g, seqOpts)
	if err != nil {
		return fail("core", err)
	}
	seqS := tr.end(id)
	id = tr.begin("core.build_default", root)
	hDef, defStats, err := ftspanner.Build(g, opts)
	if err != nil {
		return fail("core", err)
	}
	defS := tr.end(id)
	res.check(edgeTableHash(hSeq) == loopHash, "harness loop and sequential Build disagree")
	res.check(edgeTableHash(hDef) == loopHash, "default and sequential Build disagree")
	res.check(seqStats.BFSPasses == passes, "Build counted %d BFS passes, the harness loop %d", seqStats.BFSPasses, passes)
	res.set("core.build_seq_s", seqS, "s")
	res.set("core.bfs_passes", float64(seqStats.BFSPasses), "count")
	res.set("core.rounds", float64(defStats.Rounds), "count")
	res.set("core.redecided_share", float64(defStats.Redecided)/float64(defStats.EdgesConsidered), "ratio")

	// graph: CSR of H.
	id = tr.begin("graph.build_csr", root)
	csrH := ftspanner.SnapshotCSR(h)
	res.set("graph.build_csr_ms", tr.end(id)*1e3, "ms")
	res.set("graph.csr_bytes", csrBytes(csrH), "B")

	// dynamic + graph: witness repair and the two CSR patches per batch, over
	// the whole churn schedule. Per-batch times are medians, like
	// batch_p50_ms, which keeps the first applies (fresh memory) out.
	id = tr.begin("dynamic.new", root)
	m, err := ftspanner.NewMaintainer(g, opts)
	if err != nil {
		return fail("dynamic", err)
	}
	res.set("dynamic.new_s", tr.end(id), "s")
	churn := tr.begin("dynamic.churn", root)
	csrG, csrH := ftspanner.SnapshotCSR(m.Graph()), ftspanner.SnapshotCSR(m.Spanner())
	before := m.Stats()
	for _, b := range in.batches {
		t0 := tr.now()
		delta, err := m.ApplyBatch(b)
		if err != nil {
			return fail("dynamic", err)
		}
		t1 := tr.now()
		tr.series("dynamic.apply").add(churn, t0, t1)
		if csrG, err = ftspanner.PatchCSR(csrG, m.Graph(), delta.Graph); err != nil {
			return fail("graph", err)
		}
		if delta.Rebuilt {
			csrH = ftspanner.SnapshotCSR(m.Spanner())
		} else if csrH, err = ftspanner.PatchCSR(csrH, m.Spanner(), delta.Spanner); err != nil {
			return fail("graph", err)
		}
		tr.series("graph.patch_csr").add(churn, t1, tr.now())
	}
	tr.end(churn)
	after := m.Stats()
	nb := float64(len(in.batches))
	dynApplyMs := median(tr.series("dynamic.apply").scaled(1e6))
	patchMs := median(tr.series("graph.patch_csr").scaled(1e6))
	res.set("dynamic.apply_ms", dynApplyMs, "ms")
	res.set("graph.patch_csr_ms", patchMs, "ms")
	res.set("dynamic.invalidated_per_batch", float64(after.Invalidated-before.Invalidated)/nb, "count")
	res.set("dynamic.redecided_per_batch", float64(after.Redecided-before.Redecided)/nb, "count")
	res.set("dynamic.rebuilds", float64(after.RebuildBatches-before.RebuildBatches), "count")

	// wal: append with and without fsync.
	walSpan := tr.begin("wal.appends", root)
	var bytesPerBatch float64
	for _, pol := range []struct {
		name string
		sync ftspanner.WALSyncPolicy
	}{{"wal.append_sync", ftspanner.WALSyncAlways}, {"wal.append_nosync", ftspanner.WALSyncNever}} {
		w, err := ftspanner.OpenWAL(ftspanner.WALOptions{Dir: filepath.Join(dir, pol.name), Sync: pol.sync})
		if err != nil {
			return fail("wal", err)
		}
		size := w.Size()
		for i, b := range in.batches {
			t0 := tr.now()
			if err := w.AppendBatch(uint64(i+2), b); err != nil {
				w.Close()
				return fail("wal", err)
			}
			tr.series(pol.name).add(walSpan, t0, tr.now())
		}
		bytesPerBatch = float64(w.Size()-size) / nb
		if err := w.Close(); err != nil {
			return fail("wal", err)
		}
	}
	tr.end(walSpan)
	walSyncUs := median(tr.series("wal.append_sync").scaled(1e3))
	res.set("wal.append_sync_us", walSyncUs, "us")
	res.set("wal.append_nosync_us", median(tr.series("wal.append_nosync").scaled(1e3)), "us")
	res.set("wal.bytes_per_batch", bytesPerBatch, "B")

	// oracle: boot on a fresh WAL.
	walDir := filepath.Join(dir, "oracle-wal")
	w, err := ftspanner.OpenWAL(ftspanner.WALOptions{Dir: walDir, Sync: ftspanner.WALSyncAlways})
	if err != nil {
		return fail("wal", err)
	}
	oOpts := opts
	oOpts.WAL, oOpts.CheckpointEvery = w, -1
	id = tr.begin("oracle.new", root)
	o, err := ftspanner.NewOracle(g, oOpts)
	if err != nil {
		w.Close()
		return fail("oracle", err)
	}
	res.set("oracle.new_s", tr.end(id), "s")
	defer o.Close()

	// oracle / sp / http: the phase-A query mix, three ways. The pool (as in
	// the warm-up) and then a first draw of queries go to Oracle.Query; the
	// ones that missed go, with the same faults blocked, to the bare search
	// on the spanner CSR; a second draw of the same mix goes through the
	// HTTP handler, so that a unique-key mix misses there too.
	queries := tr.begin("oracle.queries", root)
	hit, miss := tr.series("oracle.query_hit"), tr.series("oracle.query_miss")
	asked := append([]query(nil), in.pool...)
	rng = in.stream(streamPhaseA)
	for i := 0; i < sp.samples; i++ {
		asked = append(asked, sp.newQuery(in, rng))
	}
	var missed []*query // the first maxSearches queries that missed
	missedS := 0.0      // and what Oracle.Query took on them
	drawnS, drawnMisses := 0.0, 0
	for i := range asked {
		q := &asked[i]
		t0 := tr.now()
		r, err := o.Query(q.u, q.v, ftspanner.QueryOptions{FaultVertices: q.faultV, FaultEdges: q.faultE, MaxDistance: q.maxDist, CopyPath: true})
		t1 := tr.now()
		if err != nil {
			return fail("oracle", err)
		}
		if r.CacheHit {
			hit.add(queries, t0, t1)
		} else {
			miss.add(queries, t0, t1)
			if len(missed) < maxSearches {
				missed = append(missed, q)
				missedS += float64(t1-t0) / 1e9
			}
		}
		if i >= len(in.pool) {
			drawnS += float64(t1-t0) / 1e9
			if !r.CacheHit {
				drawnMisses++
			}
		}
	}
	_, hNow, _ := o.Snapshot()
	served := ftspanner.SnapshotCSR(hNow)
	for _, q := range missed {
		blockFaults(s, served, q)
		t0 := tr.now()
		if q.maxDist > 0 {
			s.DistPathWithin(served, q.u, q.v, q.maxDist)
		} else {
			s.DistPath(served, q.u, q.v)
		}
		tr.series("sp.query_search").add(queries, t0, tr.now())
	}
	s.ResetBlocked()
	handler := oracle.NewHTTPHandler(o)
	rec := &recorder{header: http.Header{}}
	for i := 0; i < sp.samples; i++ {
		q := sp.newQuery(in, rng)
		req, err := q.request("http://bench", sp.post)
		if err != nil {
			return fail("http", err)
		}
		rec.body.Reset()
		rec.status = http.StatusOK
		t0 := tr.now()
		handler.ServeHTTP(rec, req)
		tr.series("http.handler").add(queries, t0, tr.now())
		if rec.status != http.StatusOK {
			return fail("http", fmt.Errorf("handler answered %d: %s", rec.status, rec.body.String()))
		}
	}
	tr.end(queries)
	hitNs, missUs := hit.scaled(1), miss.scaled(1e3)
	searchUs := tr.series("sp.query_search").scaled(1e3)
	handlerUs := tr.series("http.handler").scaled(1e3)
	// Of the drawn mix (what the handler and the wire see): the mean Query
	// time and the share of misses.
	queryUs := drawnS * 1e6 / float64(sp.samples)
	missShare := float64(drawnMisses) / float64(sp.samples)
	res.set("oracle.query_hit_ns", mean(hitNs), "ns")
	res.set("oracle.query_miss_us", mean(missUs), "us")
	res.set("sp.query_search_us", mean(searchUs), "us")
	// Only misses search: the overhead is what a miss costs beyond the
	// search itself (fault canonicalisation, searcher checkout, path copy,
	// cache put and eviction), on the queries both passes ran.
	missOverhead := 0.0
	if len(missed) > 0 {
		missOverhead = missedS*1e6/float64(len(missed)) - mean(searchUs)
	}
	res.set("oracle.miss_overhead_us", missOverhead, "us")
	res.set("http.handler_us", mean(handlerUs), "us")

	// oracle + wal: the durable apply path, with one checkpoint where the
	// timed run has its last, so that recovery replays the same suffix.
	applies := tr.begin("oracle.applies", root)
	var ckptS []float64
	var ckptBytes float64
	stBefore := o.Stats()
	lastBarrier := len(in.batches) / in.every * in.every
	for i, b := range in.batches {
		if i == lastBarrier {
			id := tr.begin("wal.checkpoint", applies)
			if _, err := o.Checkpoint(); err != nil {
				return fail("oracle", err)
			}
			ckptS = append(ckptS, tr.end(id))
			if ckptBytes, err = newestCheckpointBytes(walDir); err != nil {
				return fail("wal", err)
			}
		}
		t0 := tr.now()
		if err := o.Apply(b); err != nil {
			return fail("oracle", err)
		}
		tr.series("oracle.apply").add(applies, t0, tr.now())
	}
	tr.end(applies)
	stAfter := o.Stats()
	res.check(len(ckptS) == 1, "traced run took %d checkpoints, want 1", len(ckptS))
	applyMs := median(tr.series("oracle.apply").scaled(1e6))
	res.set("oracle.apply_ms", applyMs, "ms")
	// A checkpoint invalidates all 64 shards by design; the per-batch figure
	// is about the batches.
	invalidated := float64(stAfter.ShardsInvalidated-stBefore.ShardsInvalidated) - 64*float64(len(ckptS))
	res.set("oracle.shards_invalidated_per_batch", invalidated/nb, "count")
	res.set("wal.checkpoint_s", median(ckptS), "s")
	res.set("wal.checkpoint_bytes", ckptBytes, "B")

	// oracle: recovery from the directory alone.
	_, hLive, epochLive := o.Snapshot()
	if err := o.Close(); err != nil {
		return fail("oracle", err)
	}
	w, err = ftspanner.OpenWAL(ftspanner.WALOptions{Dir: walDir, Sync: ftspanner.WALSyncAlways})
	if err != nil {
		return fail("wal", err)
	}
	id = tr.begin("oracle.recover", root)
	rec2, info, err := ftspanner.RecoverOracle(w, oOpts)
	if err != nil {
		w.Close()
		return fail("oracle", err)
	}
	recoverS := tr.end(id)
	defer rec2.Close()
	_, hRec, epochRec := rec2.Snapshot()
	res.check(epochRec == epochLive, "recovered at epoch %d, closed at %d", epochRec, epochLive)
	res.check(edgeTableHash(hRec) == edgeTableHash(hLive), "recovered spanner differs from the live one")
	res.set("oracle.recover_load_s", float64(info.LoadNs)/1e9, "s")
	res.set("oracle.recover_replay_s", float64(info.ReplayNs)/1e9, "s")
	tr.end(root)

	// http / loadgen: the wire phases against a real child.
	srv, _, err := startServer(env.bin, serverArgs(sp, file, filepath.Join(dir, "wal"), in.every)...)
	if err != nil {
		return fail("wire", err)
	}
	defer srv.kill()
	if _, _, err := srv.waitReady(bootTimeout); err != nil {
		return fail("wire", err)
	}
	timed := &result{metrics: map[string]metric{}, correct: true}
	wire, _, err := wirePhases(timed, srv, in, ph)
	if err != nil {
		return fail("wire", err)
	}
	res.attempted += timed.attempted
	res.failed += timed.failed
	res.correct = res.correct && timed.correct
	res.saturated = timed.saturated
	res.notes = append(res.notes, timed.notes...)
	late := sortedCopy(nsToFloat(wire.open.lateNs, 1e3))
	res.set("oracle.hit_share", wire.hitShareA, "ratio")
	res.set("http.wire_overhead_us", wire.rttMeanUs-mean(handlerUs), "us")
	res.set("http.server_ns_share", wire.serverShare, "ratio")
	res.set("http.response_bytes", wire.responseBytes, "B")
	res.set("http.query_p90_us", wire.queryP90us, "us")
	res.set("http.query_p99_us", wire.queryP99us, "us")
	res.set("http.query_p999_us", wire.queryP999us, "us")
	res.set("http.query_p99_stall_us", wire.stallP99us, "us")
	res.set("http.batch_p95_ms", wire.batchP95ms, "ms")
	res.set("loadgen.offered_rps", wire.open.offeredRPS, "1/s")
	res.set("loadgen.achieved_rps", wire.open.achieved, "1/s")
	res.set("loadgen.late_p99_us", percentile(late, 0.99), "us")
	res.set("loadgen.backlog_max", float64(wire.open.backlogMax), "count")

	if err := tr.write(env.out); err != nil {
		return nil, err
	}
	searchShareUs := mean(searchUs) * missShare
	printBudgets(sp.name, []budget{
		{"build_s (traced default Build)", "s", defS, []part{
			{"graph.order", orderS}, {"sum lbc.decide", tr.series("lbc.decide").seconds()}, {"sum add-edge", tr.series("core.add_edge").seconds()}}},
		{"core.build_seq_s vs the harness loop", "s", seqS, []part{{"core.loop (bare)", bare.loopS}}},
		// What is left here is http.wire_overhead_us: the net/http server,
		// the loopback and the client.
		{"closed-loop RTT, mean", "us", wire.rttMeanUs, []part{
			{"handler self", mean(handlerUs) - queryUs},
			{"oracle self", queryUs - searchShareUs}, {"sp search", searchShareUs}}},
		{"batch_p50_ms (traced wire run)", "ms", timed.metrics["batch_p50_ms"].Value, []part{
			{"wal append+fsync", walSyncUs / 1e3}, {"dynamic.apply", dynApplyMs}, {"graph.patch_csr", patchMs},
			{"oracle self", applyMs - walSyncUs/1e3 - dynApplyMs - patchMs}}},
		{"RecoverOracle", "s", recoverS, []part{
			{"load + rebuild", float64(info.LoadNs) / 1e9}, {"replay", float64(info.ReplayNs) / 1e9}}},
	})
	return res, nil
}

// A budget sets an end-to-end figure against the layer figures that should
// add up to it.
type budget struct {
	what  string
	unit  string
	total float64
	parts []part
}

type part struct {
	name  string
	value float64
}

func printBudgets(workload string, budgets []budget) {
	fmt.Printf("budgets, %s\n", workload)
	for _, b := range budgets {
		sum := 0.0
		var terms []string
		for _, p := range b.parts {
			sum += p.value
			terms = append(terms, fmt.Sprintf("%s %.4g", p.name, p.value))
		}
		share := 0.0
		if b.total != 0 {
			share = 100 * (b.total - sum) / b.total
		}
		fmt.Printf("  %-38s %10.4g %-2s = %s; unexplained %.4g (%.1f %%)\n",
			b.what, b.total, b.unit, strings.Join(terms, " + "), b.total-sum, share)
	}
}
