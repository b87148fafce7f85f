package core

import (
	"math/rand"
	"reflect"
	"testing"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/verify"
)

// csrEquivClasses are the graph classes the CSR ≡ slice pinning runs over:
// GNP, geometric (weighted), and a free-listed graph whose edge-ID space has
// holes and whose adjacency order reflects swap-removal.
func csrEquivClasses(t *testing.T) map[string]func(seed int64) *graph.Graph {
	t.Helper()
	return map[string]func(seed int64) *graph.Graph{
		"gnp": func(seed int64) *graph.Graph {
			rng := rand.New(rand.NewSource(seed))
			g, err := gen.GNP(rng, 28+rng.Intn(12), 0.25)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"geometric": func(seed int64) *graph.Graph {
			rng := rand.New(rand.NewSource(seed))
			g, _, err := gen.Geometric(rng, 30+rng.Intn(10), 0.35, true)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"free-listed": func(seed int64) *graph.Graph {
			rng := rand.New(rand.NewSource(seed))
			g, err := gen.GNP(rng, 30, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			ids := g.EdgeIDs()
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			for _, id := range ids[:len(ids)/3] {
				if err := g.RemoveEdge(id); err != nil {
					t.Fatal(err)
				}
			}
			for try := 0; try < g.N(); try++ {
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				if u != v && !g.HasEdge(u, v) {
					g.MustAddEdge(u, v)
				}
			}
			return g
		},
	}
}

// sameSpanner demands byte-identical construction results: same vertex
// count, same edge IDs assigned in the same order with the same endpoints
// and weights.
func sameSpanner(t *testing.T, name string, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("%s: spanners differ in shape: %v vs %v", name, a, b)
	}
	if a.EdgeIDLimit() != b.EdgeIDLimit() {
		t.Fatalf("%s: spanners differ in edge-ID space: %d vs %d", name, a.EdgeIDLimit(), b.EdgeIDLimit())
	}
	for id := 0; id < a.EdgeIDLimit(); id++ {
		if a.Edge(id) != b.Edge(id) {
			t.Fatalf("%s: edge %d differs: %v vs %v", name, id, a.Edge(id), b.Edge(id))
		}
	}
}

// TestModifiedGreedyCSREquivalence pins that the greedy construction is
// byte-identical whether the input is read through the slice adjacency or a
// CSR snapshot, for both fault modes, per seed.
func TestModifiedGreedyCSREquivalence(t *testing.T) {
	for name, build := range csrEquivClasses(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				g := build(seed)
				csr := graph.BuildCSR(g)
				for _, mode := range []lbc.Mode{lbc.Vertex, lbc.Edge} {
					hSlice, statsSlice, err := modifiedGreedy(g, 2, 1, mode)
					if err != nil {
						t.Fatal(err)
					}
					hCSR, statsCSR, err := modifiedGreedy(csr, 2, 1, mode)
					if err != nil {
						t.Fatal(err)
					}
					sameSpanner(t, name, hSlice, hCSR)
					if statsSlice != statsCSR {
						t.Fatalf("%s seed %d mode %v: stats differ: %+v vs %+v", name, seed, mode, statsSlice, statsCSR)
					}
				}
			}
		})
	}
}

// TestDecideCSREquivalence pins lbc.Decide verdicts and certificates across
// representations: same Yes, same Cut, same PathEdges, same pass count.
func TestDecideCSREquivalence(t *testing.T) {
	for name, build := range csrEquivClasses(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(10); seed <= 13; seed++ {
				g := build(seed)
				csr := graph.BuildCSR(g)
				rng := rand.New(rand.NewSource(seed * 31))
				for trial := 0; trial < 60; trial++ {
					u, v := rng.Intn(g.N()), rng.Intn(g.N())
					if u == v {
						continue
					}
					tHop := 1 + rng.Intn(4)
					alpha := rng.Intn(4)
					mode := lbc.Vertex
					if trial%2 == 1 {
						mode = lbc.Edge
					}
					rs, errS := lbc.Decide(g, u, v, tHop, alpha, mode)
					rc, errC := lbc.Decide(csr, u, v, tHop, alpha, mode)
					if (errS == nil) != (errC == nil) {
						t.Fatalf("%s: error divergence: %v vs %v", name, errS, errC)
					}
					if errS != nil {
						continue
					}
					if !reflect.DeepEqual(rs, rc) {
						t.Fatalf("%s seed %d (%d,%d,t=%d,a=%d,%v): Decide differs:\nslice %+v\ncsr   %+v",
							name, seed, u, v, tHop, alpha, mode, rs, rc)
					}
				}
			}
		})
	}
}

// TestVerifyCSREquivalence pins verifier verdicts across representations:
// Exhaustive on (g,h) and on their CSR snapshots returns identical reports.
func TestVerifyCSREquivalence(t *testing.T) {
	for name, build := range csrEquivClasses(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(20); seed <= 22; seed++ {
				g := build(seed)
				h, _, err := modifiedGreedy(g, 2, 1, lbc.Vertex)
				if err != nil {
					t.Fatal(err)
				}
				// Also check a deliberately broken spanner so the negative
				// verdict (and its witness) is pinned too.
				broken := h.Clone()
				if broken.M() > g.N() { // keep it connected enough to matter
					ids := broken.EdgeIDs()
					for _, id := range ids[:3] {
						if err := broken.RemoveEdge(id); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, pair := range []struct {
					tag string
					h   *graph.Graph
				}{{"valid", h}, {"broken", broken}} {
					repSlice, err := verify.Exhaustive(g, pair.h, 3, 1, lbc.Vertex)
					if err != nil {
						t.Fatal(err)
					}
					repCSR, err := verify.Exhaustive(graph.BuildCSR(g), graph.BuildCSR(pair.h), 3, 1, lbc.Vertex)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(repSlice, repCSR) {
						t.Fatalf("%s seed %d (%s): Exhaustive differs:\nslice %+v\ncsr   %+v",
							name, seed, pair.tag, repSlice, repCSR)
					}
				}
			}
		})
	}
}
