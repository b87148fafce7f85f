package graph_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
)

// stableWeightOrder is the reference consideration order: the live IDs
// ascending, then a comparison-based stable sort by weight.
func stableWeightOrder(v graph.View) []int {
	ids := v.EdgeIDs()
	sort.SliceStable(ids, func(a, b int) bool {
		return v.Weight(ids[a]) < v.Weight(ids[b])
	})
	return ids
}

// checkWeightOrder asserts that both representations of g return the
// reference order.
func checkWeightOrder(t *testing.T, g *graph.Graph) {
	t.Helper()
	want := stableWeightOrder(g)
	if got := g.EdgeIDsByWeight(); !slices.Equal(got, want) {
		t.Fatalf("Graph.EdgeIDsByWeight = %v, want %v", head(got), head(want))
	}
	c := graph.BuildCSR(g)
	if got := c.EdgeIDsByWeight(); !slices.Equal(got, want) {
		t.Fatalf("CSR.EdgeIDsByWeight = %v, want %v", head(got), head(want))
	}
}

func head(a []int) []int { return a[:min(len(a), 20)] }

// weightedClique returns a weighted graph on n vertices with every pair
// {u, v} as an edge, weights drawn by w in insertion order.
func weightedClique(n int, w func(i int) float64) *graph.Graph {
	g := graph.NewWeighted(n)
	i := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdgeW(u, v, w(i))
			i++
		}
	}
	return g
}

func TestEdgeIDsByWeightMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	pick := func(ws ...float64) func(int) float64 {
		return func(int) float64 { return ws[rng.Intn(len(ws))] }
	}
	cases := []struct {
		name string
		g    func() *graph.Graph
	}{
		{"heavy_ties", func() *graph.Graph { return weightedClique(60, pick(1, 2, 3)) }},
		{"one_weight", func() *graph.Graph { return weightedClique(40, pick(2.5)) }},
		{"signed_zeros", func() *graph.Graph { return weightedClique(30, pick(0, math.Copysign(0, -1), 1)) }},
		{"only_signed_zeros", func() *graph.Graph { return weightedClique(20, pick(0, math.Copysign(0, -1))) }},
		{"subnormals", func() *graph.Graph {
			return weightedClique(30, pick(0, 5e-324, 1e-320, 2.2e-308, math.SmallestNonzeroFloat64*3, 1))
		}},
		{"huge", func() *graph.Graph { return weightedClique(30, pick(1e300, math.MaxFloat64, 1e-300, 7)) }},
		{"uniform_1_2", func() *graph.Graph { return weightedClique(120, func(int) float64 { return 1 + rng.Float64() }) }},
		{"wide_range", func() *graph.Graph {
			return weightedClique(300, func(int) float64 { return math.Ldexp(rng.Float64(), rng.Intn(200)-100) })
		}},
		{"empty", func() *graph.Graph { return graph.NewWeighted(0) }},
		{"no_edges", func() *graph.Graph { return graph.NewWeighted(5) }},
		{"one_edge", func() *graph.Graph {
			g := graph.NewWeighted(2)
			g.MustAddEdgeW(0, 1, 3)
			return g
		}},
		{"dead_slots", func() *graph.Graph {
			g := weightedClique(40, pick(1, 1.5, 2, 4))
			for id := 0; id < g.EdgeIDLimit(); id += 3 {
				if err := g.RemoveEdge(id); err != nil {
					t.Fatal(err)
				}
			}
			// Reuse a few retired IDs, with weights that land mid-order.
			g.MustAddEdgeW(0, 1, 1.5)
			g.MustAddEdgeW(0, 4, 0)
			return g
		}},
		{"unweighted", func() *graph.Graph {
			g := graph.New(50)
			for u := 0; u < 50; u++ {
				for v := u + 1; v < 50; v += 3 {
					g.MustAddEdge(u, v)
				}
			}
			return g
		}},
		{"lattice", func() *graph.Graph {
			g, err := gen.Lattice(rand.New(rand.NewSource(1)), 60, 60, 200, true)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkWeightOrder(t, tc.g()) })
	}
}

// FuzzEdgeIDsByWeight checks the order on arbitrary admissible weights: the
// input's 8-byte words are float64 bit patterns, made admissible by dropping
// NaN and infinities and negating negatives (so -0.0 survives). Every
// removeEvery-th edge is then removed to leave dead ID slots.
func FuzzEdgeIDsByWeight(f *testing.F) {
	word := func(ws ...float64) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
		return b
	}
	f.Add(word(1, 1, 1), uint8(0))
	f.Add(word(0, math.Copysign(0, -1), 0, 5e-324, 1e300), uint8(2))
	f.Add(word(1.25, 1.5, 1.25, 1.75, 1.5, 1.0), uint8(4))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, removeEvery uint8) {
		var ws []float64
		for len(data) >= 8 && len(ws) < 4096 {
			w := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if math.IsNaN(w) || math.IsInf(w, 0) {
				continue
			}
			if w < 0 {
				w = -w
			}
			ws = append(ws, w)
		}
		// A star keeps the graph simple for any number of edges.
		g := graph.NewWeighted(len(ws) + 1)
		for i, w := range ws {
			g.MustAddEdgeW(0, i+1, w)
		}
		if removeEvery > 0 {
			for id := 0; id < g.EdgeIDLimit(); id += int(removeEvery) {
				if err := g.RemoveEdge(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkWeightOrder(t, g)
	})
}

// BenchmarkEdgeIDsByWeight times the weighted greedy's order alone on the
// road_hot graph: a 400×400 weighted lattice with 6 400 shortcuts.
func BenchmarkEdgeIDsByWeight(b *testing.B) {
	g, err := gen.Lattice(rand.New(rand.NewSource(1)), 400, 400, 6400, true)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		g.EdgeIDsByWeight()
	}
}
