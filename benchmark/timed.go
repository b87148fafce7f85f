package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"ftspanner"
)

// The run shape, identical for every workload:
//
//	setup -> build (in-process, R times) -> boot ftserve on a fresh WAL ->
//	phase A (closed loop, 2 connections, no churn) ->
//	phase B (open loop on 1 connection + 1 paced writer connection) ->
//	verify (200 uncached queries, checked against the mirror) ->
//	SIGKILL -> recover on the same WAL (cycles times) -> SIGTERM.
//
// At no time are more than two load goroutines or connections open.

const (
	setupRounds = 3
	loadConns   = 2
	// harnessMemoryLimit re-enables collection if the harness, with its
	// collector off for the wire phases, should ever grow this large.
	harnessMemoryLimit = 3 << 30
)

// phases splits the measured seconds of a run: an eighth warms the server
// (searchers allocated, every pooled key asked once), three sixteenths are
// phase A, the rest phase B, which has the checkpoints to fit in.
type phases struct{ warm, a, b time.Duration }

func splitSeconds(seconds int) phases {
	total := time.Duration(seconds) * time.Second
	p := phases{warm: total / 8, a: total * 3 / 16}
	p.b = total - p.warm - p.a
	return p
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. correct is false when an output was
// wrong (a bad answer, a spanner that differs between builds, a recovery
// that lost state); failed also counts operations that merely did not
// complete, and every operation of a saturated phase.
type result struct {
	workload  string
	seed      int64
	metrics   map[string]metric
	attempted int
	failed    int
	correct   bool
	saturated bool
	notes     []string
}

// wireDetail carries what the traced run reports about the wire phases.
type wireDetail struct {
	rttMeanUs, serverShare, hitShareA, responseBytes float64
	queryP90us, queryP99us, queryP999us              float64
	stallP99us, batchP95ms                           float64
	open                                             openLoopResult
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) count(t tally, what string) {
	r.attempted += t.attempted
	r.failed += t.failed
	if t.wrong > 0 {
		r.correct = false
	}
	if t.failed > 0 {
		r.notes = append(r.notes, fmt.Sprintf("%s: %d of %d failed, first: %v", what, t.failed, t.attempted, t.firstErr))
	}
}

// check counts one verification: an identity the outputs must satisfy.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.correct = false
		r.notes = append(r.notes, "check failed: "+fmt.Sprintf(format, args...))
	}
}

// runEnv is what a run needs from the process: where to write and which
// binary to exec.
type runEnv struct {
	out string // benchmark/out
	bin string // the compiled ftserve
}

func newRunEnv() (*runEnv, error) {
	out, err := outDir()
	if err != nil {
		return nil, err
	}
	if out, err = filepath.EvalSymlinks(out); err != nil {
		return nil, err
	}
	bin, err := buildServer(out)
	if err != nil {
		return nil, err
	}
	return &runEnv{out: out, bin: bin}, nil
}

// setup generates the inputs and writes the graph file, rounds times over;
// the median is setup_s. Everything is kept from the last round.
func setup(sp *spec, seed int64, ph phases, dir string, rounds int) (*inputs, string, float64, error) {
	file := filepath.Join(dir, "graph.txt")
	var in *inputs
	var took []float64
	for i := 0; i < rounds; i++ {
		start := time.Now()
		var err error
		if in, err = makeInputs(sp, seed, ph.b); err != nil {
			return nil, "", 0, err
		}
		if err := writeGraph(file, in.g); err != nil {
			return nil, "", 0, fmt.Errorf("write graph: %w", err)
		}
		took = append(took, time.Since(start).Seconds())
	}
	return in, file, median(took), nil
}

// serverArgs are the ftserve flags of a workload; the same for boot and for
// every recovery.
func serverArgs(sp *spec, file, walDir string, every int) []string {
	return []string{
		"-graph", file, "-k", strconv.Itoa(sp.k), "-f", strconv.Itoa(sp.f), "-mode", sp.modeFlag(),
		"-wal", walDir, "-fsync", "always", "-checkpoint-every", strconv.Itoa(every),
		"-drain-grace", "10ms", // the default half second only delays the final SIGTERM check
	}
}

// guard runs fn and, should it still be running after limit, kills the
// server so that the requests fn is blocked on fail; the phase is then
// reported as timed out instead of stalling the pipeline.
func guard(phase string, limit time.Duration, srv *server, fn func()) error {
	var once sync.Once
	timedOut := false
	t := time.AfterFunc(limit, func() { once.Do(func() { timedOut = true; srv.kill() }) })
	fn()
	t.Stop()
	once.Do(func() {}) // after this, timedOut is settled
	if timedOut {
		return fmt.Errorf("phase %s timed out after %s", phase, limit)
	}
	return nil
}

// runTimed is the untraced run: the only source of end-to-end metrics.
func runTimed(env *runEnv, sp *spec, seed int64, seconds int) (*result, error) {
	res := &result{workload: sp.name, seed: seed, metrics: map[string]metric{}, correct: true}
	ph := splitSeconds(seconds)
	dir, err := os.MkdirTemp(env.out, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// 1. setup
	in, file, setupS, err := setup(sp, seed, ph, dir, setupRounds)
	if err != nil {
		return nil, fmt.Errorf("phase setup: %w", err)
	}
	res.set("setup_s", setupS, "s")

	// 2. build
	if err := buildPhase(res, in); err != nil {
		return nil, fmt.Errorf("phase build: %w", err)
	}

	// 3. boot, cycles times over, each on a fresh WAL directory; the last
	// child stays.
	var srv *server
	defer func() {
		if srv != nil {
			srv.kill() // the current child, whichever it is by then
		}
	}()
	var args []string
	var bootS []float64
	for c := 0; c < sp.cycles; c++ {
		if srv != nil {
			srv.kill()
		}
		args = serverArgs(sp, file, filepath.Join(dir, fmt.Sprintf("wal-%d", c)), in.every)
		res.attempted++
		var started time.Time
		if srv, started, err = startServer(env.bin, args...); err != nil {
			return nil, fmt.Errorf("phase boot: %w", err)
		}
		_, ready, err := srv.waitReady(bootTimeout)
		if err != nil {
			return nil, fmt.Errorf("phase boot: %w", err)
		}
		bootS = append(bootS, ready.Sub(started).Seconds())
	}
	st, err := srv.stats()
	if err != nil {
		return nil, fmt.Errorf("phase boot: %w", err)
	}
	res.check(st.SpannerM == int(res.metrics["spanner_edges"].Value),
		"served spanner has %d edges, in-process build %v", st.SpannerM, res.metrics["spanner_edges"].Value)
	bootCheckpoints := st.Checkpoints

	// 4 + 5. phases A and B
	_, lastEpoch, err := wirePhases(res, srv, in, ph)
	if err != nil {
		return nil, err
	}
	st, err = srv.stats()
	if err != nil {
		return nil, fmt.Errorf("phase B: %w", err)
	}
	res.check(int(st.Checkpoints-bootCheckpoints) == in.warm/in.every+sp.checkpoint,
		"%d checkpoints since boot, want %d in the warm-up and %d in phase B", st.Checkpoints-bootCheckpoints, in.warm/in.every, sp.checkpoint)
	res.check(st.Epoch >= lastEpoch, "head epoch %d below last acknowledged %d", st.Epoch, lastEpoch)
	headEpoch := st.Epoch

	// 6. verify
	var answers []queryReply
	err = guard("verify", bootTimeout, srv, func() {
		var t tally
		answers, t = verifyPhase(srv, in, headEpoch, true)
		res.count(t, "verify")
	})
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("phase verify: read VmHWM: %w", err)
	}
	res.set("serve_peak_rss_mb", rss, "MB")

	// 7. recover
	var recoverS []float64
	for c := 0; c < sp.cycles; c++ {
		srv.kill()
		res.attempted++
		var started time.Time
		if srv, started, err = startServer(env.bin, args...); err != nil {
			return nil, fmt.Errorf("phase recover: %w", err)
		}
		epoch, ready, err := srv.waitReady(bootTimeout)
		if err != nil {
			return nil, fmt.Errorf("phase recover: %w", err)
		}
		recoverS = append(recoverS, ready.Sub(started).Seconds())
		res.check(epoch == headEpoch, "recovered at epoch %d, killed at %d", epoch, headEpoch)
		err = guard("recover", bootTimeout, srv, func() {
			again, t := verifyPhase(srv, in, headEpoch, false)
			res.count(t, "verify after recovery")
			same := len(again) == len(answers)
			for i := 0; same && i < len(again); i++ {
				same = sameAnswer(&again[i], &answers[i])
			}
			res.check(same, "answers after recovery %d differ from those before the kill", c+1)
		})
		if err != nil {
			return nil, err
		}
	}
	res.attempted++
	if err := srv.terminate(); err != nil {
		res.failed++
		res.notes = append(res.notes, "shutdown: "+err.Error())
	}
	if left := leftovers(env.bin); len(left) > 0 {
		res.failed++
		res.notes = append(res.notes, fmt.Sprintf("leftover ftserve processes: %v", left))
	}
	res.set("boot_s", median(bootS), "s")
	res.set("recover_s", median(recoverS), "s")
	return res, nil
}

// buildPhase times R fresh default-option builds and checks the output of
// each: a subgraph of G, within the size bound, and the same edge table
// every time.
func buildPhase(res *result, in *inputs) error {
	sp := in.sp
	var took []float64
	var first uint64
	for i := 0; i < sp.builds; i++ {
		runtime.GC()
		start := time.Now()
		h, _, err := ftspanner.Build(in.g, sp.options())
		if err != nil {
			return err
		}
		took = append(took, time.Since(start).Seconds())
		hash := edgeTableHash(h)
		if i == 0 {
			first = hash
			res.set("spanner_edges", float64(h.M()), "edges")
			res.check(h.IsSubgraphOf(in.g), "built spanner is not a subgraph of G")
			bound := ftspanner.SizeBound(in.g.N(), sp.k, sp.f)
			res.check(float64(h.M()) <= bound, "spanner has %d edges, size bound is %.0f", h.M(), bound)
		}
		res.check(hash == first, "build %d produced a different spanner", i+1)
	}
	runtime.GC()
	res.set("build_s", median(took), "s")
	return nil
}

// wirePhases runs the warm-up and phases A and B against srv and sets the
// four end-to-end metrics they define. It returns the last acknowledged batch epoch.
func wirePhases(res *result, srv *server, in *inputs, ph phases) (*wireDetail, uint64, error) {
	sp := in.sp
	// The load generator must not be the noise it measures: a collection
	// cycle of this process (the mirror graph alone is tens of MB of
	// pointers) slows the generator goroutine for milliseconds at a time and
	// shows up as query tail latency. The phases allocate a few hundred MB
	// at most, so collect before and after instead, with a limit as the
	// safety net.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(harnessMemoryLimit))
	conns := make([]*conn, loadConns)
	for i := range conns {
		conns[i] = newConn(srv.base, queryTimeout)
		defer conns[i].close()
	}
	closed := func(dur time.Duration, stream int, pool []query) *querySamples {
		until := time.Now().Add(dur)
		parts := make([]*querySamples, loadConns)
		var wg sync.WaitGroup
		for i := range conns {
			first := pool[len(pool)*i/loadConns : len(pool)*(i+1)/loadConns]
			wg.Add(1)
			go func() {
				defer wg.Done()
				parts[i] = closedLoop(conns[i], in, in.stream(stream+i), first, until)
			}()
		}
		wg.Wait()
		all := parts[0]
		for _, p := range parts[1:] {
			all.merge(p)
		}
		return all
	}

	// Warm-up: not measured, but its failures count. The write path first
	// (see warmBatches), then the read path, so that what the batches
	// invalidated is cached again.
	conns[1].client.Timeout = batchTimeout
	err := guard("warm-up", ph.warm+bootTimeout, srv, func() {
		res.count(writeBatches(conns[1], in.g, in.batches[:in.warm], time.Now(), 0).tally, "warm-up batches")
		conns[1].client.Timeout = queryTimeout
		res.count(closed(ph.warm, streamWarm, in.pool).tally, "warm-up queries")
	})
	if err != nil {
		return nil, 0, err
	}

	// Phase A.
	var a *querySamples
	startA := time.Now()
	err = guard("A", ph.a+bootTimeout, srv, func() {
		a = closed(ph.a, streamPhaseA, nil)
	})
	if err != nil {
		return nil, 0, err
	}
	elapsedA := time.Since(startA)
	res.count(a.tally, "phase A queries")
	if len(a.rttNs) == 0 {
		return nil, 0, errors.New("phase A: no query was answered")
	}
	res.set("query_qps", float64(len(a.rttNs))/elapsedA.Seconds(), "1/s")

	// Phase B: conns[0] carries the open-loop queries, a third connection
	// would break the two-connection budget, so the writer takes conns[1]
	// with the longer batch timeout.
	conns[1].client.Timeout = batchTimeout
	b := &querySamples{}
	var open openLoopResult
	var wr *writerResult
	err = guard("B", ph.b+bootTimeout+batchTimeout, srv, func() {
		rng := in.stream(streamPhaseB)
		start := time.Now()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr = writeBatches(conns[1], in.g, in.batches[in.warm:], start, time.Duration(float64(time.Second)/sp.batchRate))
		}()
		open = openLoop(wallClock{}, start, in.arrivals, ph.b, func(int) bool {
			q := sp.newQuery(in, rng)
			b.attempted++
			sent := time.Now()
			r, wrong, err := conns[0].ask(&q, sp.post, in.n)
			if err != nil {
				b.fail(wrong, err)
				return false
			}
			b.record(time.Since(sent), &r, conns[0].buf.Len())
			return true
		})
		wg.Wait()
	})
	if err != nil {
		return nil, 0, err
	}
	if len(open.latencyNs) == 0 || len(wr.rttNs) == 0 {
		return nil, 0, fmt.Errorf("phase B: nothing was answered (queries: %v, batches: %v)", b.firstErr, wr.firstErr)
	}
	if open.saturated {
		// The fixed rate is wrong for this box: nothing the phase measured
		// is a latency of the program.
		res.saturated = true
		b.failed, wr.failed = b.attempted, wr.attempted
		res.notes = append(res.notes, fmt.Sprintf("phase B saturated: offered %.0f/s, achieved %.0f/s", open.offeredRPS, open.achieved))
	}
	res.count(b.tally, "phase B queries")
	res.count(wr.tally, "phase B batches")

	// A batch that completes a checkpoint interval carries the barrier: the
	// server answers it only after compacting and rebuilding. Those round
	// trips are the stalls; the others are ordinary batches. A query whose
	// wait overlaps a stall is set apart as well: it ran against the rebuild
	// for the CPUs, and how many there are depends on how long the rebuild
	// took, so mixing the two regimes makes the percentiles of either
	// unsteady.
	var batch, stall []float64
	var windows [][2]int64
	for i, rtt := range wr.rttNs {
		if (i+1)%in.every == 0 { // in.warm is a multiple of in.every
			stall = append(stall, float64(rtt)/1e6)
			windows = append(windows, [2]int64{wr.sentNs[i], wr.sentNs[i] + rtt})
		} else {
			batch = append(batch, float64(rtt)/1e6)
		}
	}
	// The backlog a stall leaves behind is part of it: a window lasts until
	// the generator sends on time again.
	for k := range windows {
		for i, d := range in.arrivals {
			if dn := d.Nanoseconds(); dn >= windows[k][1] {
				if open.lateNs[i] <= onTime.Nanoseconds() {
					break
				}
				windows[k][1] = dn + 1
			}
		}
	}
	var lat, latStall []float64
	for i, l := range open.latencyNs {
		inStall := false
		for _, w := range windows {
			inStall = inStall || (open.dueNs[i] < w[1] && open.dueNs[i]+l > w[0])
		}
		if inStall {
			latStall = append(latStall, float64(l)/1e3)
		} else {
			lat = append(lat, float64(l)/1e3)
		}
	}
	if len(lat) == 0 || len(batch) == 0 || len(stall) == 0 {
		return nil, 0, fmt.Errorf("phase B: %d queries and %d batches outside %d checkpoint stalls", len(lat), len(batch), len(stall))
	}
	sort.Float64s(lat)
	sort.Float64s(latStall)
	sort.Float64s(batch)
	res.set("query_p50_us", percentile(lat, 0.50), "us")
	res.set("batch_p50_ms", percentile(batch, 0.50), "ms")
	res.set("checkpoint_stall_ms", median(stall), "ms")

	share := make([]float64, len(a.rttNs))
	for i := range share {
		share[i] = float64(a.serverNs[i]) / float64(a.rttNs[i])
	}
	return &wireDetail{
		rttMeanUs:     mean(nsToFloat(a.rttNs, 1e3)),
		serverShare:   median(share),
		hitShareA:     float64(a.hits) / float64(len(a.rttNs)),
		responseBytes: float64(a.bytes+b.bytes) / float64(len(a.rttNs)+len(b.rttNs)),
		queryP90us:    percentile(lat, 0.90),
		queryP99us:    percentile(lat, 0.99),
		queryP999us:   percentile(lat, 0.999),
		stallP99us:    percentile(latStall, 0.99),
		batchP95ms:    percentile(batch, 0.95),
		open:          open,
	}, wr.lastEpoch, nil
}

// verifyPhase asks the verify queries uncached on a quiescent server. With
// full set, each reply is also checked against the mirror: every hop an edge
// of G, weights summing to the distance, the distance within stretch of the
// harness's own d_{G∖F}.
func verifyPhase(srv *server, in *inputs, headEpoch uint64, full bool) ([]queryReply, tally) {
	c := newConn(srv.base, queryTimeout)
	defer c.close()
	var t tally
	var f *finder
	if full {
		f = newFinder(in.n)
	}
	answers := make([]queryReply, 0, len(in.verify))
	for i := range in.verify {
		q := &in.verify[i]
		t.attempted++
		r, wrong, err := c.ask(q, in.sp.post, in.n)
		if err == nil && r.Epoch != headEpoch {
			wrong, err = true, fmt.Errorf("uncached reply names epoch %d, head is %d", r.Epoch, headEpoch)
		}
		if err == nil && full {
			if err = checkAgainstMirror(in.g, f, q, &r, in.sp.stretch()); err != nil {
				wrong = true
			}
		}
		if err != nil {
			t.fail(wrong, fmt.Errorf("verify query %d {%d,%d}: %w", i, q.u, q.v, err))
		}
		answers = append(answers, r)
	}
	return answers, t
}

func sameAnswer(a, b *queryReply) bool {
	if a.Reachable != b.Reachable || a.Distance != b.Distance || a.Epoch != b.Epoch || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// sortedNames returns the metric names of r in a stable order.
func (r *result) sortedNames() []string {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
