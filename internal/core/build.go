package core

import (
	"fmt"

	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/sp"
)

// Params parameterizes Build.
type Params struct {
	// K is the stretch parameter (stretch 2K-1). Must be >= 1.
	K int
	// F is the fault budget. Must be >= 0.
	F int
	// Mode selects vertex or edge faults (lbc.Vertex or lbc.Edge).
	Mode lbc.Mode
	// Searchers is the per-worker search scratch. Nil or one searcher runs
	// the sequential edge loop (a nil entry allocates a fresh searcher).
	// More than one runs the speculate-then-commit rounds of batched.go with
	// one worker per searcher; every entry must then be non-nil. Callers
	// that build repeatedly keep the slice so the scratch is grown once and
	// reused (sp.NewSearchers).
	Searchers []*sp.Searcher
	// Trace requests the decision list: one EdgeDecision per considered
	// edge, in consideration order. It retains a copy of every cut and
	// witness, so a traced build allocates O(total certificate size) on top
	// of the spanner; an untraced build returns a nil list and copies none.
	Trace bool
}

// EdgeDecision is the full record of one greedy edge decision — what an
// untraced build discards. For an added edge it keeps the YES cut
// certificate; for a skipped edge it keeps the coverage witness
// (lbc.Result.PathEdges): the spanner-edge IDs of the disjoint short paths
// that prove every fault set of size at most f leaves a (2k-1)-hop u-v path.
// The witness stays valid as the spanner gains edges and is broken only when
// one of its edges is removed, which is the repair trigger of the dynamic
// maintainer.
//
// The cuts of the added edges are the sets F_e the Lemma 6 proof assembles
// into a (2k)-blocking set B = {(x, e) : e ∈ E(H), x ∈ F_e} of size at most
// (2k-1)·f·|E(H)| — the object behind the Theorem 8 size bound, which
// verify.CheckBlockingSet validates directly.
type EdgeDecision struct {
	// GEdgeID is the decided edge's ID in the input graph g.
	GEdgeID int
	// Added reports whether the edge entered the spanner.
	Added bool
	// HEdgeID is the edge's ID in the spanner when Added, else -1.
	HEdgeID int
	// Cut is the YES certificate (vertex IDs, or h-edge IDs in edge mode).
	// Nil when the edge was not added.
	Cut []int
	// Witness is the coverage witness (h-edge IDs) when the edge was not
	// added. Nil when Added. Note an empty (nil) witness on a non-added
	// edge cannot occur: a NO answer always found at least one path.
	Witness []int
	// Passes is the number of BFS passes the decision used.
	Passes int
}

// Build builds an f-fault-tolerant (2k-1)-spanner of g in polynomial time
// with the modified greedy (the paper's Theorem 2): every edge, in
// consideration order, is added iff Algorithm 2's Length-Bounded Cut gap
// test answers YES against the spanner built so far. On unweighted graphs
// this is Algorithm 3 with insertion order; on weighted graphs it is
// Algorithm 4 (nondecreasing weight order). f = 0 degenerates to a
// non-fault-tolerant (2k-1)-spanner (the hop-based variant of the classic
// greedy).
//
// The spanner, the decision list and EdgesConsidered / EdgesAdded /
// BFSPasses are byte-identical for every len(p.Searchers); only Rounds and
// Redecided record how the batched rounds went. An untraced build on a warm
// searcher performs no per-edge heap allocation beyond the growth of the
// output spanner itself.
func Build(g graph.View, p Params) (*graph.Graph, []EdgeDecision, Stats, error) {
	var stats Stats
	if err := validateParams(g, p.K, p.F, p.Mode); err != nil {
		return nil, nil, stats, err
	}
	order := considerationOrder(g)
	var decisions []EdgeDecision
	var trace *[]EdgeDecision
	if p.Trace {
		decisions = make([]EdgeDecision, 0, len(order))
		trace = &decisions
	}
	var h *graph.Graph
	var err error
	if len(p.Searchers) > 1 {
		h, err = greedyBatched(p.Searchers, g, p.K, p.F, p.Mode, order, &stats, trace)
	} else {
		var s *sp.Searcher
		if len(p.Searchers) == 1 {
			s = p.Searchers[0]
		}
		h, err = greedySequential(s, g, p.K, p.F, p.Mode, order, &stats, trace)
	}
	if err != nil {
		return nil, nil, stats, err
	}
	return h, decisions, stats, nil
}

// greedySequential is the edge loop itself: one lbc decision per edge of
// order against the spanner so far. Parameters are assumed validated; order
// need only hold live edges of g (TestWeightOrderingIsLoadBearing passes a
// heavy-first one). A nil s allocates a fresh searcher. A non-nil trace
// receives every decision with retainable certificate copies.
func greedySequential(s *sp.Searcher, g graph.View, k, f int, mode lbc.Mode, order []edgeRec, stats *Stats, trace *[]EdgeDecision) (*graph.Graph, error) {
	if s == nil {
		s = sp.NewSearcher(g.N(), g.EdgeIDLimit())
	} else {
		s.Grow(g.N(), g.EdgeIDLimit())
	}
	t := Stretch(k)
	h := graph.NewLike(g)
	for _, e := range order {
		u, v := int(e.u), int(e.v)
		stats.EdgesConsidered++
		res, err := lbc.DecideWith(s, h, u, v, t, f, mode)
		if err != nil {
			return nil, fmt.Errorf("core: LBC on edge {%d,%d}: %w", u, v, err)
		}
		stats.BFSPasses += res.Passes
		hid := -1
		if res.Yes {
			hid = h.MustAddEdgeW(u, v, e.w)
		}
		if trace != nil {
			// res.Cut / res.PathEdges alias searcher scratch; keep copies.
			d := EdgeDecision{GEdgeID: int(e.id), Added: res.Yes, HEdgeID: hid, Passes: res.Passes}
			if res.Yes {
				d.Cut = cloneInts(res.Cut)
			} else {
				d.Witness = cloneInts(res.PathEdges)
			}
			*trace = append(*trace, d)
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
