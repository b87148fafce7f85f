package core

import (
	"fmt"
	"sync"

	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/sp"
)

// The batched builder replaces greedySequential's one long sequential
// dependency chain with deterministic speculate-then-commit rounds, the shape
// of the deterministic MPC ruling-set algorithms (Pai–Pemmaraju,
// arXiv:2205.12686; Giliberti–Parsaeian, arXiv:2406.12727): a round of
// independent local decisions computed in parallel against a frozen snapshot,
// followed by a canonical serial conflict-resolution step.
//
// Round structure. The canonical consideration order — one edgeRec (ID,
// endpoints, weight) per edge, gathered once by considerationOrder — is cut
// into rounds, and both phases read their round's slice of that record
// stream in sequence instead of looking edges up by ID. For each round every
// edge's LBC gap decision is speculated in parallel against the spanner
// frozen at round start, one warm sp.Searcher per worker. The commit phase
// then walks the round in canonical order: a decision is kept
// as-is when it is provably still the decision the sequential greedy would
// have made, and re-decided serially (against the now-updated spanner)
// otherwise. Accepted edges are appended to the spanner immediately, exactly
// as in the sequential loop.
//
// Conflict test. An LBC pass (sp.Searcher.PathWithin) is a pure function of
// the adjacency rows it scans: the rows its two-ended search expands from
// either terminal, and not the rows of the vertices it prunes. Adding edge
// {u,v} to the spanner appends entries to the rows of u and v and touches
// nothing else. So a speculative decision — up to alpha+1 passes, their
// scanned rows all recorded in one expanded-vertex log R
// (sp.StartExpandedLog) — replays operation-for-operation on the grown
// spanner, early exits included, as long as no earlier-committed edge of the
// round has an endpoint in R. In that case the speculated answer IS the sequential answer and is
// committed without re-execution; otherwise the edge is re-decided. The test
// is sufficient, not necessary, so mis-speculation costs work but never
// correctness: the output spanner, trace, and per-edge BFS pass counts are
// byte-identical to greedySequential's for every worker count.
//
// Determinism. Speculation runs against the frozen snapshot, so each
// decision and its read set are independent of which worker computes them or
// in what interleaving. Commit order is canonical. The read-set size cap is
// per decision. Round-size adaptation depends only on re-decide counts.
// Hence rounds, re-decides, and output are all a function of the input
// alone — Stats.Rounds and Stats.Redecided are reproducible, and the
// identical-output pin holds for workers ∈ {1, 2, 4, 8, ...}.

// batchTuning governs the round scheduler. A package variable (not constants)
// so tests can force many tiny rounds or degenerate caps; production code
// never mutates it. Values are deliberately worker-count-independent — see
// the determinism note above.
var batchTuning = struct {
	// initialRound is the first round's edge count. Rounds then adapt:
	// halved (down to minRound) when the re-decide rate exceeds highWater,
	// doubled (up to maxRound) when it drops below lowWater.
	initialRound int
	minRound     int
	maxRound     int
	// readSetCap bounds the recorded read set of one decision. A decision
	// whose passes scanned more rows than this is treated as
	// conflicting with ANY earlier accept in its round (re-decided), instead
	// of burning unbounded arena memory. Per decision, not per worker, so
	// Stats.Redecided stays independent of the worker count.
	readSetCap int
	lowWater   float64
	highWater  float64
}{
	initialRound: 256,
	minRound:     32,
	maxRound:     8192,
	readSetCap:   1024,
	lowWater:     0.05,
	highWater:    0.25,
}

// specDecision is one speculated edge decision, produced by a worker against
// the frozen round snapshot and consumed by the serial commit.
type specDecision struct {
	yes    bool
	capped bool // read set exceeded batchTuning.readSetCap; see above
	passes int32
	worker int32 // arena owner
	// [readLo, readHi) spans the decision's expanded-vertex log in the
	// owning worker's arena. Unused when capped.
	readLo, readHi int32
	// Retainable certificate copies, populated in traced builds only.
	cut, witness []int
}

// batchedBuilder carries the per-build state of the speculate-then-commit
// engine. Everything round-sized is allocated once here and reused across
// every round: the spec slice, the read-set arenas, the dirty stamps, the
// worker channels, and (via Params.Searchers) the per-worker search
// scratch. TestModifiedGreedyBatchedRoundReuse pins that rounds allocate
// nothing beyond spanner growth.
type batchedBuilder struct {
	h         *graph.Graph
	t, f      int
	mode      lbc.Mode
	order     []edgeRec
	searchers []*sp.Searcher
	traced    bool

	spec   []specDecision
	arenas [][]int32 // per-worker read-set storage, reset each round

	// dirty[v] == dirtyEpoch iff v is an endpoint of an edge accepted
	// earlier in the current round; bumping the epoch clears it in O(1).
	dirty      []uint32
	dirtyEpoch uint32

	jobs []chan [2]int // per-worker round dispatch; closing ends the worker
	wg   sync.WaitGroup

	// First error per worker with its canonical index; the commit surfaces
	// the lowest-index one so the reported error is deterministic too.
	errs   []error
	errIdx []int
}

// greedyBatched is the batched edge loop: the round scheduler, the worker
// pool (one worker per searcher), and the canonical commit. Parameters are
// assumed validated and len(searchers) > 1. A non-nil trace receives every
// committed decision with retainable certificate copies, exactly like
// greedySequential.
func greedyBatched(searchers []*sp.Searcher, g graph.View, k, f int, mode lbc.Mode, order []edgeRec, stats *Stats, trace *[]EdgeDecision) (*graph.Graph, error) {
	workers := len(searchers)
	for _, s := range searchers {
		s.Grow(g.N(), g.EdgeIDLimit())
	}
	// No round ever exceeds the larger tuning bound or the edge count, so
	// one spec slice of that size serves every round of the build.
	specCap := max(batchTuning.initialRound, batchTuning.maxRound)
	if specCap > len(order) {
		specCap = len(order)
	}
	b := &batchedBuilder{
		h:         graph.NewLike(g),
		t:         Stretch(k),
		f:         f,
		mode:      mode,
		order:     order,
		searchers: searchers,
		traced:    trace != nil,
		spec:      make([]specDecision, specCap),
		arenas:    make([][]int32, workers),
		dirty:     make([]uint32, g.N()),
		jobs:      make([]chan [2]int, workers),
		errs:      make([]error, workers),
		errIdx:    make([]int, workers),
	}
	for w := range b.jobs {
		b.jobs[w] = make(chan [2]int, 1)
	}
	for w := 0; w < workers; w++ {
		go b.worker(w)
	}
	// Closing the job channels releases the workers; every return below
	// passes a wg barrier first, so no worker is mid-round at close time.
	defer func() {
		for _, c := range b.jobs {
			close(c)
		}
	}()

	roundSize := batchTuning.initialRound
	for lo := 0; lo < len(order); {
		hi := lo + roundSize
		if hi > len(order) {
			hi = len(order)
		}
		for w := range b.arenas {
			b.arenas[w] = b.arenas[w][:0]
		}
		b.wg.Add(workers)
		for _, c := range b.jobs {
			c <- [2]int{lo, hi}
		}
		b.wg.Wait()
		if err := b.firstError(); err != nil {
			return nil, err
		}
		stats.Rounds++
		before := stats.Redecided
		if err := b.commitRound(lo, hi, stats, trace); err != nil {
			return nil, err
		}
		rate := float64(stats.Redecided-before) / float64(hi-lo)
		if rate > batchTuning.highWater {
			roundSize = max(roundSize/2, batchTuning.minRound)
		} else if rate < batchTuning.lowWater {
			roundSize = min(roundSize*2, batchTuning.maxRound)
		}
		lo = hi
	}
	stats.EdgesConsidered += len(order)
	stats.EdgesAdded = b.h.M()
	return b.h, nil
}

// worker is one persistent speculation goroutine: it serves every round of
// the build from the same Searcher, taking the strided indices
// lo+w, lo+w+workers, ... of each dispatched round. Striding keeps the
// assignment deterministic (not that it matters for output — any assignment
// yields the same decisions — but it keeps per-worker load balanced without
// a shared counter).
func (b *batchedBuilder) worker(w int) {
	s := b.searchers[w]
	workers := len(b.jobs)
	for span := range b.jobs[w] {
		for i := span[0] + w; i < span[1]; i += workers {
			if b.errs[w] != nil {
				break
			}
			b.speculate(s, w, i, span[0])
		}
		b.wg.Done()
	}
}

// speculate decides edge order[i] against the frozen spanner and records the
// outcome plus its read set into spec[i-lo]. Runs concurrently with other
// workers: it writes only this worker's arena and error slot and the spec
// entries of its own stride, and reads b.h, which no one mutates between the
// round's dispatch and its barrier.
func (b *batchedBuilder) speculate(s *sp.Searcher, w, i, lo int) {
	u, v := int(b.order[i].u), int(b.order[i].v)
	s.StartExpandedLog()
	res, err := lbc.DecideWith(s, b.h, u, v, b.t, b.f, b.mode)
	read := s.StopExpandedLog()
	if err != nil {
		b.errs[w] = fmt.Errorf("core: LBC on edge {%d,%d}: %w", u, v, err)
		b.errIdx[w] = i
		return
	}
	d := &b.spec[i-lo]
	*d = specDecision{yes: res.Yes, passes: int32(res.Passes), worker: int32(w)}
	if len(read) > batchTuning.readSetCap {
		d.capped = true
	} else {
		arena := b.arenas[w]
		d.readLo = int32(len(arena))
		for _, v := range read {
			arena = append(arena, int32(v))
		}
		d.readHi = int32(len(arena))
		b.arenas[w] = arena
	}
	if b.traced {
		if res.Yes {
			d.cut = cloneInts(res.Cut)
		} else {
			d.witness = cloneInts(res.PathEdges)
		}
	}
}

// firstError returns the recorded error with the lowest canonical edge
// index, or nil.
func (b *batchedBuilder) firstError() error {
	var err error
	at := -1
	for w, e := range b.errs {
		if e != nil && (at == -1 || b.errIdx[w] < at) {
			err, at = e, b.errIdx[w]
		}
	}
	return err
}

// commitRound resolves round [lo, hi) in canonical order: valid speculations
// commit as-is, invalidated ones are re-decided on worker 0's searcher
// against the updated spanner, and accepted edges mark their endpoints dirty
// for the decisions after them.
func (b *batchedBuilder) commitRound(lo, hi int, stats *Stats, trace *[]EdgeDecision) error {
	b.dirtyEpoch++
	if b.dirtyEpoch == 0 {
		clear(b.dirty)
		b.dirtyEpoch = 1
	}
	accepts := 0
	s0 := b.searchers[0]
	for i := lo; i < hi; i++ {
		d := &b.spec[i-lo]
		e := &b.order[i]
		u, v := int(e.u), int(e.v)
		yes, passes := d.yes, int(d.passes)
		cut, witness := d.cut, d.witness
		if accepts > 0 && (d.capped || b.readSetDirty(d)) {
			res, err := lbc.DecideWith(s0, b.h, u, v, b.t, b.f, b.mode)
			if err != nil {
				return fmt.Errorf("core: LBC on edge {%d,%d}: %w", u, v, err)
			}
			stats.Redecided++
			yes, passes = res.Yes, res.Passes
			if b.traced {
				if yes {
					cut, witness = cloneInts(res.Cut), nil
				} else {
					cut, witness = nil, cloneInts(res.PathEdges)
				}
			}
		}
		stats.BFSPasses += passes
		hid := -1
		if yes {
			hid = b.h.MustAddEdgeW(u, v, e.w)
			b.dirty[u] = b.dirtyEpoch
			b.dirty[v] = b.dirtyEpoch
			accepts++
		}
		if trace != nil {
			*trace = append(*trace, EdgeDecision{GEdgeID: int(e.id), Added: yes, HEdgeID: hid, Cut: cut, Witness: witness, Passes: passes})
		}
	}
	return nil
}

// readSetDirty reports whether any vertex in the decision's recorded read
// set was marked dirty by an earlier accept of the current round.
func (b *batchedBuilder) readSetDirty(d *specDecision) bool {
	for _, v := range b.arenas[d.worker][d.readLo:d.readHi] {
		if b.dirty[v] == b.dirtyEpoch {
			return true
		}
	}
	return false
}
