// Package spanner implements the non-fault-tolerant spanner algorithms the
// paper builds on or compares against:
//
//   - Greedy: the classic greedy (2k-1)-spanner of Althöfer, Das, Dobkin,
//     Joseph, Soares (1993) with the O(n^(1+1/k)) size guarantee. This is
//     the f = 0 special case of the fault-tolerant greedy and the girth
//     argument underlying every size bound in the paper.
//   - BaswanaSen: the randomized clustering spanner of Baswana and Sen
//     (2007) with expected size O(k·n^(1+1/k)). It is the base algorithm A
//     of the paper's CONGEST construction (Theorem 14) and the pluggable
//     spanner inside the Dinitz–Krauthgamer reduction.
package spanner

import (
	"fmt"

	"ftspanner/internal/graph"
	"ftspanner/internal/sp"
)

// Greedy builds a (2k-1)-spanner of g with the classic greedy algorithm:
// consider edges by nondecreasing weight, adding {u,v} iff the current
// spanner's u-v distance exceeds (2k-1)·w(u,v). The output has girth > 2k on
// unweighted graphs and at most O(n^(1+1/k)) edges (ADD+93).
func Greedy(g *graph.Graph, k int) (*graph.Graph, error) {
	if g == nil {
		return nil, fmt.Errorf("spanner: nil graph")
	}
	if k < 1 {
		return nil, fmt.Errorf("spanner: stretch parameter k must be >= 1, got %d", k)
	}
	t := 2*k - 1
	h := g.EmptyLike()
	s := sp.NewSearcher(g.N(), g.EdgeIDLimit())
	for _, id := range g.EdgeIDsByWeight() {
		e := g.Edge(id)
		if g.Weighted() {
			if s.Dist(h, e.U, e.V) > float64(t)*e.W {
				h.MustAddEdgeW(e.U, e.V, e.W)
			}
			continue
		}
		// Unweighted: hop-bounded BFS suffices and is cheaper.
		if _, _, ok := s.PathWithin(h, e.U, e.V, t); !ok {
			h.MustAddEdge(e.U, e.V)
		}
	}
	return h, nil
}
