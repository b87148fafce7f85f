package core

import (
	"math/rand"
	"testing"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/sp"
)

func sameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("graphs differ in shape: (%d,%d) vs (%d,%d)", a.N(), a.M(), b.N(), b.M())
	}
	for id := 0; id < a.M(); id++ {
		if a.Edge(id) != b.Edge(id) {
			t.Fatalf("edge %d differs: %+v vs %+v", id, a.Edge(id), b.Edge(id))
		}
	}
}

// TestExactGreedyParallelEquivalence: for every worker count the parallel
// exact greedy must build a byte-identical spanner (same edges, same IDs,
// same weights) — the fault-set search is a pure existence query, so
// sharding it cannot change any edge decision.
func TestExactGreedyParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 4; trial++ {
		base, err := gen.GNP(rng, 12, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		graphs := []*graph.Graph{base}
		if w, err := gen.UniformWeights(rng, base, 1, 9); err == nil {
			graphs = append(graphs, w)
		}
		for _, g := range graphs {
			for _, mode := range []lbc.Mode{lbc.Vertex, lbc.Edge} {
				want, wantStats, err := ExactGreedy(g, 2, 2, mode)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 8} {
					got, stats, err := ExactGreedyParallel(g, 2, 2, mode, workers)
					if err != nil {
						t.Fatal(err)
					}
					sameGraph(t, want, got)
					if stats.EdgesAdded != wantStats.EdgesAdded || stats.EdgesConsidered != wantStats.EdgesConsidered {
						t.Fatalf("workers=%d %v: stats %+v vs %+v", workers, mode, stats, wantStats)
					}
					if stats.FaultSetsTried <= 0 && g.M() > 0 {
						t.Fatalf("workers=%d %v: no fault sets tried", workers, mode)
					}
				}
			}
		}
	}
}

// TestModifiedGreedyWithReuse: one searcher serving many builds must give
// the same spanners as fresh per-build scratch.
func TestModifiedGreedyWithReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	s := sp.NewSearcher(0, 0)
	for trial := 0; trial < 6; trial++ {
		g, err := gen.GNP(rng, 20, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []lbc.Mode{lbc.Vertex, lbc.Edge} {
			want, wantStats, err := modifiedGreedy(g, 2, 1, mode)
			if err != nil {
				t.Fatal(err)
			}
			got, _, stats, err := Build(g, Params{K: 2, F: 1, Mode: mode, Searchers: []*sp.Searcher{s}})
			if err != nil {
				t.Fatal(err)
			}
			sameGraph(t, want, got)
			if stats != wantStats {
				t.Fatalf("trial %d %v: stats %+v vs %+v", trial, mode, stats, wantStats)
			}
		}
	}
}

// TestBuildUntracedAllocs pins "no per-edge heap allocation beyond spanner
// growth": a warm one-searcher untraced Build allocates well under one
// object per edge. A build that cloned a cut or witness per decision (what
// Trace: true does) would allocate more than one per skipped edge.
func TestBuildUntracedAllocs(t *testing.T) {
	g, err := gen.GNP(rand.New(rand.NewSource(84)), 300, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s := []*sp.Searcher{sp.NewSearcher(g.N(), g.EdgeIDLimit())}
	for _, mode := range []lbc.Mode{lbc.Vertex, lbc.Edge} {
		p := Params{K: 2, F: 2, Mode: mode, Searchers: s}
		build := func() {
			if _, _, _, err := Build(g, p); err != nil {
				t.Fatal(err)
			}
		}
		build() // warm the searcher
		if allocs := testing.AllocsPerRun(3, build); allocs >= float64(g.M())/2 {
			t.Errorf("%v: untraced build allocates %.0f/op for m = %d edges, want < m/2", mode, allocs, g.M())
		}
	}
}
