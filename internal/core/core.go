// Package core implements the paper's fault-tolerant spanner constructions:
//
//   - ExactGreedy: Algorithm 1, the exponential-time greedy of Bodwin,
//     Dinitz, Parter, Vassilevska Williams (SODA'18) as analyzed by Bodwin
//     and Patel (PODC'19). Size-optimal O(f^(1-1/k)·n^(1+1/k)) but its edge
//     test enumerates all fault sets of size f, so it is exponential in f.
//   - ModifiedGreedy: Algorithms 3 and 4, the paper's main contribution. The
//     exponential edge test is replaced by the polynomial Length-Bounded Cut
//     gap decision (package lbc), giving an f-fault-tolerant (2k-1)-spanner
//     with O(k·f^(1-1/k)·n^(1+1/k)) edges in O(m·k·f^(2-1/k)·n^(1+1/k)) time
//     (Theorems 5, 8, 9, 10). On weighted graphs edges are considered in
//     nondecreasing weight order and the LBC test ignores weights; the
//     ordering alone restores correctness (Theorem 10).
//
// Both algorithms support vertex faults (f-VFT) and edge faults (f-EFT) via
// lbc.Mode. Both leave the input graph unmodified and return a new subgraph
// on the same vertex set.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ftspanner/internal/combin"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/sp"
)

// Stretch returns the stretch 2k-1 corresponding to parameter k.
func Stretch(k int) int { return 2*k - 1 }

// Stats reports construction effort.
type Stats struct {
	// EdgesConsidered is the number of candidate edges examined (= m).
	EdgesConsidered int
	// EdgesAdded is the number of edges in the returned spanner.
	EdgesAdded int
	// BFSPasses is the total number of hop-bounded BFS passes across all
	// committed LBC decisions (ModifiedGreedy family only). Identical for
	// every execution mode and worker count: the batched builder counts the
	// passes of the decision it committed, not of mis-speculations.
	BFSPasses int
	// FaultSetsTried is the total number of fault sets enumerated
	// (ExactGreedy only). With one worker this count is deterministic; under
	// ExactGreedyParallel it reflects the fault sets actually examined
	// before the early exit, which can exceed the sequential count and vary
	// between runs. The constructed spanner is identical either way.
	FaultSetsTried int64
	// Rounds is the number of speculate-then-commit rounds executed
	// (ModifiedGreedyBatched with more than one worker only; 0 on the
	// sequential paths).
	Rounds int
	// Redecided counts speculative decisions that were invalidated by an
	// earlier commit in their round and re-decided serially against the
	// updated spanner (ModifiedGreedyBatched only). Deterministic per input:
	// the conflict test depends on decision read sets and committed accepts,
	// not on the worker count or scheduling.
	Redecided int
}

func validateParams(g graph.View, k, f int, mode lbc.Mode) error {
	if g == nil {
		return fmt.Errorf("core: nil graph")
	}
	if k < 1 {
		return fmt.Errorf("core: stretch parameter k must be >= 1, got %d", k)
	}
	if f < 0 {
		return fmt.Errorf("core: fault budget f must be >= 0, got %d", f)
	}
	if mode != lbc.Vertex && mode != lbc.Edge {
		return fmt.Errorf("core: invalid fault mode %v", mode)
	}
	return nil
}

// ModifiedGreedy builds an f-fault-tolerant (2k-1)-spanner of g in polynomial
// time (the paper's Theorem 2).
//
// On unweighted graphs this is Algorithm 3 with insertion order; on weighted
// graphs it is Algorithm 4 (nondecreasing weight order). f = 0 degenerates to
// a non-fault-tolerant (2k-1)-spanner (the hop-based variant of the classic
// greedy).
func ModifiedGreedy(g graph.View, k, f int, mode lbc.Mode) (*graph.Graph, Stats, error) {
	if err := validateParams(g, k, f, mode); err != nil {
		return nil, Stats{}, err
	}
	return ModifiedGreedyWithOrder(g, k, f, mode, considerationOrder(g))
}

// ModifiedGreedyWithOrder is ModifiedGreedy with an explicit edge
// consideration order (a permutation of the edge IDs of g).
//
// The size bound (Theorem 8) holds for every order. Correctness on weighted
// graphs holds only for nondecreasing weight orders (Theorem 10) — passing
// another order on a weighted graph may violate the stretch guarantee, as
// TestWeightOrderingIsLoadBearing shows.
func ModifiedGreedyWithOrder(g graph.View, k, f int, mode lbc.Mode, order []int) (*graph.Graph, Stats, error) {
	return modifiedGreedy(nil, g, k, f, mode, order)
}

// ModifiedGreedyWith is ModifiedGreedy reusing the scratch of s across the
// whole construction (and across constructions, when the caller builds many
// spanners with one searcher). A nil s allocates a fresh searcher. The hot
// loop — one lbc.DecideWith per input edge — performs no per-edge heap
// allocation beyond the growth of the output spanner itself.
func ModifiedGreedyWith(s *sp.Searcher, g graph.View, k, f int, mode lbc.Mode) (*graph.Graph, Stats, error) {
	if err := validateParams(g, k, f, mode); err != nil {
		return nil, Stats{}, err
	}
	return modifiedGreedy(s, g, k, f, mode, considerationOrder(g))
}

// traceSink receives the final, canonical-order decision for every
// considered edge: the spanner edge ID on YES (-1 otherwise), the BFS pass
// count, and — when the engine runs in traced mode — a retainable copy of
// the YES cut certificate or the NO coverage witness (nil sink fields
// otherwise, and nil slices when the sink itself is what requested no
// copies). Every ModifiedGreedy* variant is this one edge loop plus a sink:
// the plain builds pass a nil sink, the traced builds collect EdgeDecisions,
// and the batched build drives the same sink from its commit phase.
type traceSink func(gid, hID int, yes bool, passes int, cut, witness []int)

func modifiedGreedy(s *sp.Searcher, g graph.View, k, f int, mode lbc.Mode, order []int) (*graph.Graph, Stats, error) {
	var stats Stats
	if err := validateParams(g, k, f, mode); err != nil {
		return nil, stats, err
	}
	if err := checkOrder(g, order); err != nil {
		return nil, stats, err
	}
	h, err := greedySequential(s, g, k, f, mode, order, &stats, nil)
	return h, stats, err
}

// greedySequential is the sequential edge loop shared by ModifiedGreedy,
// ModifiedGreedyWith, ModifiedGreedyWithOrder, and ModifiedGreedyTraced:
// one lbc decision per edge in consideration order against the spanner so
// far. Parameters are assumed validated. A non-nil sink receives every
// decision with retainable certificate copies.
func greedySequential(s *sp.Searcher, g graph.View, k, f int, mode lbc.Mode, order []int, stats *Stats, sink traceSink) (*graph.Graph, error) {
	if s == nil {
		s = sp.NewSearcher(g.N(), g.EdgeIDLimit())
	} else {
		s.Grow(g.N(), g.EdgeIDLimit())
	}
	t := Stretch(k)
	h := graph.NewLike(g)
	for _, id := range order {
		e := g.Edge(id)
		stats.EdgesConsidered++
		res, err := lbc.DecideWith(s, h, e.U, e.V, t, f, mode)
		if err != nil {
			return nil, fmt.Errorf("core: LBC on edge {%d,%d}: %w", e.U, e.V, err)
		}
		stats.BFSPasses += res.Passes
		hid := -1
		if res.Yes {
			hid = h.MustAddEdgeW(e.U, e.V, e.W)
		}
		if sink != nil {
			// res.Cut / res.PathEdges alias searcher scratch; hand the sink
			// copies it may retain.
			if res.Yes {
				sink(id, hid, true, res.Passes, cloneInts(res.Cut), nil)
			} else {
				sink(id, -1, false, res.Passes, nil, cloneInts(res.PathEdges))
			}
		}
	}
	stats.EdgesAdded = h.M()
	return h, nil
}

// cloneInts copies a scratch-aliasing slice into a retainable one. A nil or
// empty input stays nil, matching the historical EdgeDecision encoding
// (append([]int(nil), nil...) == nil).
func cloneInts(a []int) []int {
	return append([]int(nil), a...)
}

// ExactGreedy builds an f-fault-tolerant (2k-1)-spanner of g using the
// original exponential-time greedy (Algorithm 1): an edge {u,v} is added iff
// some fault set F with |F| <= f satisfies d_{H\F}(u,v) > (2k-1)·w(u,v).
//
// The fault-set search enumerates C(n-2, f) vertex sets (or C(|E(H)|, f)
// edge sets), so this is only feasible for small instances; it exists as the
// size-optimal baseline TestModifiedVsExactSize compares the modified greedy
// against. Distances are weighted on weighted graphs (Dijkstra) and hop
// counts otherwise (BFS).
func ExactGreedy(g graph.View, k, f int, mode lbc.Mode) (*graph.Graph, Stats, error) {
	return ExactGreedyParallel(g, k, f, mode, 1)
}

// ExactGreedyParallel is ExactGreedy with the per-edge fault-set search
// fanned out across `workers` goroutines (workers <= 0 selects GOMAXPROCS),
// each with its own sp.Searcher. The greedy loop itself stays sequential —
// each edge decision depends on the spanner built so far — but the edge
// test is a pure existence query over an enumeration space, so sharding it
// is safe: the constructed spanner is byte-identical to the sequential one
// for every worker count. Only Stats.FaultSetsTried may differ (see Stats).
func ExactGreedyParallel(g graph.View, k, f int, mode lbc.Mode, workers int) (*graph.Graph, Stats, error) {
	var stats Stats
	if err := validateParams(g, k, f, mode); err != nil {
		return nil, stats, err
	}
	workers = sp.Workers(workers)
	t := Stretch(k)
	h := graph.NewLike(g)
	order := considerationOrder(g)
	// One searcher per worker, reused across every edge of the build.
	searchers := make([]*sp.Searcher, workers)
	for i := range searchers {
		searchers[i] = sp.NewSearcher(g.N(), g.M())
	}
	for _, id := range order {
		e := g.Edge(id)
		stats.EdgesConsidered++
		threshold := float64(t) * e.W
		var bad bool
		var tried int64
		if workers == 1 {
			bad, tried = existsFaultSetExceeding(searchers[0], h, e.U, e.V, f, threshold, mode)
		} else {
			bad, tried = existsFaultSetExceedingParallel(searchers, h, e.U, e.V, f, threshold, mode)
		}
		stats.FaultSetsTried += tried
		if bad {
			h.MustAddEdgeW(e.U, e.V, e.W)
		}
	}
	stats.EdgesAdded = h.M()
	return h, stats, nil
}

// faultCandidates lists the elements fault sets are drawn from: vertices
// other than the terminals, or all edges of h.
func faultCandidates(h *graph.Graph, u, v int, mode lbc.Mode) []int {
	var candidates []int
	switch mode {
	case lbc.Vertex:
		for x := 0; x < h.N(); x++ {
			if x != u && x != v {
				candidates = append(candidates, x)
			}
		}
	case lbc.Edge:
		for id := 0; id < h.EdgeIDLimit(); id++ {
			if h.EdgeAlive(id) {
				candidates = append(candidates, id)
			}
		}
	}
	return candidates
}

func block(s *sp.Searcher, mode lbc.Mode, id int) {
	switch mode {
	case lbc.Vertex:
		s.BlockVertex(id)
	case lbc.Edge:
		s.BlockEdge(id)
	}
}

// existsFaultSetExceeding reports whether some fault set of size at most f
// makes the u-v distance in h exceed threshold. Distance is monotone
// nondecreasing under larger fault sets, so enumerating sets of size exactly
// min(f, #candidates) is equivalent to enumerating all sizes <= f.
func existsFaultSetExceeding(s *sp.Searcher, h *graph.Graph, u, v, f int, threshold float64, mode lbc.Mode) (bool, int64) {
	candidates := faultCandidates(h, u, v, mode)
	size := f
	if size > len(candidates) {
		size = len(candidates)
	}
	s.Grow(h.N(), h.EdgeIDLimit())
	var tried int64
	found := combin.ForEach(len(candidates), size, func(idx []int) bool {
		tried++
		s.ResetBlocked()
		for _, i := range idx {
			block(s, mode, candidates[i])
		}
		return s.Dist(h, u, v) > threshold
	})
	return found, tried
}

// existsFaultSetExceedingParallel shards the fault-set enumeration by the
// first candidate index: the worker handling first element i enumerates all
// sets {candidates[i]} ∪ S with S drawn from the candidates after i. A
// shared flag stops all workers as soon as any of them finds a separating
// fault set (the query is pure existence, so which one is found first does
// not matter).
func existsFaultSetExceedingParallel(searchers []*sp.Searcher, h *graph.Graph, u, v, f int, threshold float64, mode lbc.Mode) (bool, int64) {
	candidates := faultCandidates(h, u, v, mode)
	size := f
	if size > len(candidates) {
		size = len(candidates)
	}
	if size == 0 {
		// Only the empty fault set to try.
		s := searchers[0]
		s.ResetBlocked()
		return s.Dist(h, u, v) > threshold, 1
	}
	// Pool setup (goroutines, channel, WaitGroup) costs a few microseconds;
	// on the small enumeration spaces of the early greedy edges that would
	// dominate the work, so stay sequential until the space is large enough
	// to amortize the fan-out.
	const minSetsForFanOut = 512
	if combin.Count(len(candidates), size) < minSetsForFanOut {
		return existsFaultSetExceeding(searchers[0], h, u, v, f, threshold, mode)
	}
	jobs := make(chan int, len(searchers))
	var found atomic.Bool
	var tried atomic.Int64
	var wg sync.WaitGroup
	for _, s := range searchers {
		wg.Add(1)
		go func(s *sp.Searcher) {
			defer wg.Done()
			s.Grow(h.N(), h.EdgeIDLimit())
			var local int64
			for first := range jobs {
				if found.Load() {
					continue // drain remaining jobs
				}
				rest := len(candidates) - first - 1
				combin.ForEach(rest, size-1, func(idx []int) bool {
					local++
					s.ResetBlocked()
					block(s, mode, candidates[first])
					for _, j := range idx {
						block(s, mode, candidates[first+1+j])
					}
					if s.Dist(h, u, v) > threshold {
						found.Store(true)
						return true
					}
					return found.Load()
				})
			}
			tried.Add(local)
		}(s)
	}
	for first := 0; first+size <= len(candidates); first++ {
		jobs <- first
	}
	close(jobs)
	wg.Wait()
	return found.Load(), tried.Load()
}

// considerationOrder is the canonical greedy order: ascending live edge ID
// (insertion order) on unweighted graphs, nondecreasing weight on weighted
// graphs. Both skip the dead edge-ID slots left by graph.RemoveEdge.
func considerationOrder(g graph.View) []int {
	if g.Weighted() {
		return g.EdgeIDsByWeight()
	}
	return g.EdgeIDs()
}

// checkOrder validates that order is a permutation of the live edge IDs of g.
func checkOrder(g graph.View, order []int) error {
	if len(order) != g.M() {
		return fmt.Errorf("core: order has %d entries, want %d", len(order), g.M())
	}
	seen := make([]bool, g.EdgeIDLimit())
	for _, id := range order {
		if id < 0 || id >= len(seen) || !g.EdgeAlive(id) {
			return fmt.Errorf("core: order entry %d is not a live edge ID", id)
		}
		if seen[id] {
			return fmt.Errorf("core: duplicate edge ID %d in order", id)
		}
		seen[id] = true
	}
	return nil
}

// SizeBound returns the paper's Theorem 8 size bound k·f^(1-1/k)·n^(1+1/k)
// without its hidden constant; measured size divided by this quantity
// should stay bounded as n grows (TestSizeGolden holds it under 3, and the
// benchmark reports it as core.size_over_bound). For f = 0 the
// non-fault-tolerant bound n^(1+1/k) is used.
func SizeBound(n, k, f int) float64 {
	if n <= 0 || k < 1 {
		return 0
	}
	nf := float64(n)
	kf := float64(k)
	exp := 1 + 1/kf
	if f <= 0 {
		return math.Pow(nf, exp)
	}
	return kf * math.Pow(float64(f), 1-1/kf) * math.Pow(nf, exp)
}
