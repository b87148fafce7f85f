package gen

import (
	"fmt"
	"math/rand"

	"ftspanner/internal/graph"
)

// UniformWeights returns a weighted copy of g whose edge weights are drawn
// independently and uniformly from [lo, hi). The edge set and edge IDs are
// preserved (same insertion order).
func UniformWeights(rng *rand.Rand, g *graph.Graph, lo, hi float64) (*graph.Graph, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("gen: UniformWeights needs 0 <= lo <= hi, got [%v,%v)", lo, hi)
	}
	out := graph.NewWeighted(g.N())
	for _, e := range g.Edges() {
		w := lo
		if hi > lo {
			w = lo + rng.Float64()*(hi-lo)
		}
		out.MustAddEdgeW(e.U, e.V, w)
	}
	return out, nil
}

// UnitWeights returns a weighted copy of g with all weights 1. Algorithms
// that require weighted inputs can run on unweighted graphs through this.
func UnitWeights(g *graph.Graph) *graph.Graph {
	out := graph.NewWeighted(g.N())
	for _, e := range g.Edges() {
		out.MustAddEdgeW(e.U, e.V, 1)
	}
	return out
}

// Unweighted returns an unweighted copy of g (weights dropped).
func Unweighted(g *graph.Graph) *graph.Graph {
	out := graph.New(g.N())
	for _, e := range g.Edges() {
		out.MustAddEdge(e.U, e.V)
	}
	return out
}

// AdversarialWeights returns a weighted copy of g where weights strongly
// decrease with edge ID (later edges are much lighter). Processing edges in
// insertion order on such a graph is the worst case for greedy spanner
// algorithms that ignore weights, as TestWeightOrderingIsLoadBearing in
// internal/core shows.
func AdversarialWeights(g *graph.Graph) *graph.Graph {
	out := graph.NewWeighted(g.N())
	m := g.M()
	for i, e := range g.Edges() {
		// Weight spans a factor of ~m so that a (2k-1)-hop path of heavy
		// edges badly violates the stretch of a light edge.
		out.MustAddEdgeW(e.U, e.V, float64(m-i))
	}
	return out
}
