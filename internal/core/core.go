// Package core implements the paper's fault-tolerant spanner constructions:
//
//   - ExactGreedy: Algorithm 1, the exponential-time greedy of Bodwin,
//     Dinitz, Parter, Vassilevska Williams (SODA'18) as analyzed by Bodwin
//     and Patel (PODC'19). Size-optimal O(f^(1-1/k)·n^(1+1/k)) but its edge
//     test enumerates all fault sets of size f, so it is exponential in f.
//   - Build: the modified greedy of Algorithms 3 and 4, the paper's main
//     contribution. The exponential edge test is replaced by the polynomial
//     Length-Bounded Cut gap decision (package lbc), giving an
//     f-fault-tolerant (2k-1)-spanner with O(k·f^(1-1/k)·n^(1+1/k)) edges in
//     O(m·k·f^(2-1/k)·n^(1+1/k)) time (Theorems 5, 8, 9, 10). On weighted
//     graphs edges are considered in nondecreasing weight order and the LBC
//     test ignores weights; the ordering alone restores correctness
//     (Theorem 10). Build is the only entry point to that one edge loop: its
//     Params choose the sequential loop or the byte-identical batched rounds
//     (by the number of searchers) and whether to return the decision trace.
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
	// committed LBC decisions (Build only). Identical for every worker
	// count: the batched rounds count the passes of the decision they
	// committed, not of mis-speculations.
	BFSPasses int
	// FaultSetsTried is the total number of fault sets enumerated
	// (ExactGreedy only). With one worker this count is deterministic; under
	// ExactGreedyParallel it reflects the fault sets actually examined
	// before the early exit, which can exceed the sequential count and vary
	// between runs. The constructed spanner is identical either way.
	FaultSetsTried int64
	// Rounds is the number of speculate-then-commit rounds executed (Build
	// with more than one searcher only; 0 on the sequential loop).
	Rounds int
	// Redecided counts speculative decisions that were invalidated by an
	// earlier commit in their round and re-decided serially against the
	// updated spanner (Build with more than one searcher only). Deterministic
	// per input: the conflict test depends on decision read sets and
	// committed accepts, not on the worker count or scheduling.
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
	if n, ids := g.N(), g.EdgeIDLimit(); n > math.MaxInt32 || ids > math.MaxInt32 {
		return fmt.Errorf("core: graph with %d vertices and %d edge IDs exceeds the int32 edge records", n, ids)
	}
	return nil
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
	t := Stretch(k)
	h := graph.NewLike(g)
	order := considerationOrder(g)
	// One searcher per worker, reused across every edge of the build.
	searchers := sp.NewSearchers(workers, g.N(), g.M())
	for _, e := range order {
		u, v := int(e.u), int(e.v)
		stats.EdgesConsidered++
		threshold := float64(t) * e.w
		var bad bool
		var tried int64
		if len(searchers) == 1 {
			bad, tried = existsFaultSetExceeding(searchers[0], h, u, v, f, threshold, mode)
		} else {
			bad, tried = existsFaultSetExceedingParallel(searchers, h, u, v, f, threshold, mode)
		}
		stats.FaultSetsTried += tried
		if bad {
			h.MustAddEdgeW(u, v, e.w)
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

// edgeRec is one edge of the consideration order with its endpoints and
// weight gathered next to its ID, so the edge loops read the order as one
// sequential stream instead of fetching each edge through the View at a
// random ID. 24 bytes; validateParams keeps vertex and edge IDs in int32.
type edgeRec struct {
	w        float64
	id, u, v int32
}

// considerationOrder is the canonical greedy order, one record per edge:
// ascending live edge ID (insertion order) on unweighted graphs; on
// weighted graphs nondecreasing weight with ties by ID, the radix sort of
// EdgeIDsByWeight (-0 and +0 tie). Both skip the dead edge-ID slots left by
// graph.RemoveEdge. The ID list is dropped once the records are gathered.
func considerationOrder(g graph.View) []edgeRec {
	if g.Weighted() {
		return gatherEdges(g, g.EdgeIDsByWeight())
	}
	return gatherEdges(g, g.EdgeIDs())
}

// gatherEdges reads the edges of ids, in that order, into records.
func gatherEdges(g graph.View, ids []int) []edgeRec {
	order := make([]edgeRec, len(ids))
	for i, id := range ids {
		e := g.Edge(id)
		order[i] = edgeRec{w: e.W, id: int32(id), u: int32(e.U), v: int32(e.V)}
	}
	return order
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
