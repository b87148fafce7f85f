// Package dk11 implements the fault-tolerant spanner reduction of Dinitz and
// Krauthgamer (PODC 2011), the paper's Theorem 13 baseline.
//
// The reduction turns any non-fault-tolerant (2k-1)-spanner algorithm A into
// an f-vertex-fault-tolerant one: run O(f³·log n) independent iterations; in
// each, every vertex participates independently with probability 1/f, A is
// run on the induced subgraph of the participants, and the union of all the
// resulting spanners is returned. With g(n) the size bound of A, the union
// has O(f³·g(2n/f)·log n) edges and is an f-VFT (2k-1)-spanner with high
// probability; with g(n) = n^(1+1/k) this is the classic
// O(f^(2-1/k)·n^(1+1/k)·log n) bound.
//
// The paper's CONGEST algorithm (Theorem 15) is exactly this reduction with
// Baswana–Sen as A, so this package is both the size baseline the modified
// greedy beats (TestModifiedGreedySparserThanDK11) and the reference the
// distributed implementation is validated against.
package dk11

import (
	"fmt"
	"math"
	"math/rand"

	"ftspanner/internal/graph"
)

// BaseAlg is a non-fault-tolerant spanner algorithm plugged into the
// reduction. It receives an induced subgraph and must return a spanner of it
// (same vertex count, subgraph of the input). Randomized algorithms draw
// from rng.
type BaseAlg func(rng *rand.Rand, g *graph.Graph) (*graph.Graph, error)

// ParticipationProb returns the per-iteration vertex participation
// probability. The paper states 1/f, which is sound for f >= 2 (an edge
// {u,v} survives a fault set F in one iteration with probability
// p²(1-p)^f ≈ 1/(e·f²), so f³·log n iterations cover every edge whp). At
// f = 1 the stated probability degenerates (p = 1 means the fault vertex
// always participates, so no iteration ever excludes it); we use the
// maximizer of p²(1-p), p = 2/3, instead. This substitution is recorded in
// DESIGN.md.
func ParticipationProb(f int) float64 {
	if f <= 1 {
		return 2.0 / 3.0
	}
	return 1.0 / float64(f)
}

// DefaultIterations returns the canonical iteration count
// ceil(max(f³, 12)·ln n) — the O(f³·log n) of Theorem 13 with constant 1,
// floored at 12·ln n so that small f still gets whp coverage under
// ParticipationProb.
func DefaultIterations(n, f int) int {
	if n < 2 {
		n = 2
	}
	if f < 1 {
		f = 1
	}
	scale := f * f * f
	if scale < 12 {
		scale = 12
	}
	return int(math.Ceil(float64(scale) * math.Log(float64(n))))
}

// Construct runs the Dinitz–Krauthgamer reduction on g with fault budget f
// and the given base algorithm, using the given number of iterations and
// ParticipationProb(f). The union is returned on g's vertex IDs. The
// guarantee is vertex-fault-tolerance with high probability over rng; it is
// not deterministic.
func Construct(rng *rand.Rand, g *graph.Graph, f, iterations int, base BaseAlg) (*graph.Graph, error) {
	if g == nil {
		return nil, fmt.Errorf("dk11: nil graph")
	}
	if f < 1 {
		return nil, fmt.Errorf("dk11: fault budget f must be >= 1, got %d", f)
	}
	if iterations < 1 {
		return nil, fmt.Errorf("dk11: iterations must be >= 1, got %d", iterations)
	}
	if base == nil {
		return nil, fmt.Errorf("dk11: nil base algorithm")
	}
	h := g.EmptyLike()
	prob := ParticipationProb(f)
	var participants []int
	for it := 0; it < iterations; it++ {
		participants = participants[:0]
		for v := 0; v < g.N(); v++ {
			if rng.Float64() < prob {
				participants = append(participants, v)
			}
		}
		if len(participants) == 0 {
			continue
		}
		sub, toOrig, err := g.InducedSubgraph(participants)
		if err != nil {
			return nil, fmt.Errorf("dk11: iteration %d: %w", it, err)
		}
		hi, err := base(rng, sub)
		if err != nil {
			return nil, fmt.Errorf("dk11: iteration %d: base algorithm: %w", it, err)
		}
		if hi.N() != sub.N() {
			return nil, fmt.Errorf("dk11: iteration %d: base algorithm changed vertex count (%d -> %d)",
				it, sub.N(), hi.N())
		}
		for _, e := range hi.Edges() {
			u, v := toOrig[e.U], toOrig[e.V]
			if !h.HasEdge(u, v) {
				h.MustAddEdgeW(u, v, e.W)
			}
		}
	}
	return h, nil
}
