package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// mutatedGraph returns a random graph that has been through a
// remove/re-add churn pass, so its edge-ID space has free-listed holes and
// its adjacency order reflects swap-removal — the worst case for any code
// assuming dense IDs or insertion order.
func mutatedGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(40)
	g := NewWeighted(n)
	for try := 0; try < 4*n; try++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdgeW(u, v, 0.5+rng.Float64())
	}
	ids := g.EdgeIDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:len(ids)/3] {
		if err := g.RemoveEdge(id); err != nil {
			panic(err)
		}
	}
	for try := 0; try < n/2; try++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdgeW(u, v, 0.5+rng.Float64())
	}
	return g
}

// checkCSRMatches asserts that c is an exact structural replica of g: same
// counts, same edge-ID space (dead slots included), and byte-identical
// per-vertex adjacency order.
func checkCSRMatches(t *testing.T, g *Graph, c *CSR) {
	t.Helper()
	if c.N() != g.N() || c.M() != g.M() || c.Weighted() != g.Weighted() {
		t.Fatalf("csr shape %v != graph shape %v", c, g)
	}
	if c.EdgeIDLimit() != g.EdgeIDLimit() {
		t.Fatalf("EdgeIDLimit: csr %d, graph %d", c.EdgeIDLimit(), g.EdgeIDLimit())
	}
	for id := 0; id < g.EdgeIDLimit(); id++ {
		if c.EdgeAlive(id) != g.EdgeAlive(id) {
			t.Fatalf("EdgeAlive(%d): csr %v, graph %v", id, c.EdgeAlive(id), g.EdgeAlive(id))
		}
		if c.Edge(id) != g.Edge(id) {
			t.Fatalf("Edge(%d): csr %v, graph %v", id, c.Edge(id), g.Edge(id))
		}
	}
	for u := 0; u < g.N(); u++ {
		ga, ca := g.Adj(u), c.Adj(u)
		if len(ga) != len(ca) {
			t.Fatalf("Adj(%d): csr degree %d, graph degree %d", u, len(ca), len(ga))
		}
		for i := range ga {
			if ga[i] != ca[i] {
				t.Fatalf("Adj(%d)[%d]: csr %v, graph %v — adjacency order must match", u, i, ca[i], ga[i])
			}
		}
		if c.Degree(u) != g.Degree(u) {
			t.Fatalf("Degree(%d): csr %d, graph %d", u, c.Degree(u), g.Degree(u))
		}
	}
	if !reflect.DeepEqual(c.EdgeIDs(), g.EdgeIDs()) {
		t.Fatal("EdgeIDs differ")
	}
	if !reflect.DeepEqual(c.EdgeIDsByWeight(), g.EdgeIDsByWeight()) {
		t.Fatal("EdgeIDsByWeight differ")
	}
	if !reflect.DeepEqual(c.Edges(), g.Edges()) {
		t.Fatal("Edges differ")
	}
}

func TestBuildCSRMatchesGraph(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := mutatedGraph(seed)
		checkCSRMatches(t, g, BuildCSR(g))
	}
}

func TestBuildCSRIsSnapshot(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	c := BuildCSR(g)
	g.MustAddEdge(1, 2)
	if err := g.RemoveEdge(0); err != nil {
		t.Fatal(err)
	}
	if c.M() != 1 || !c.EdgeAlive(0) || c.EdgeIDLimit() != 1 {
		t.Fatalf("snapshot changed under source mutation: %v", c)
	}
	if got, ok := c.EdgeBetween(0, 1); !ok || got != 0 {
		t.Fatalf("EdgeBetween(0,1) = %d,%v, want 0,true", got, ok)
	}
	if c.HasEdge(1, 2) {
		t.Fatal("snapshot acquired an edge added after BuildCSR")
	}
}

func TestCSRToGraphRoundTrip(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		g := mutatedGraph(seed)
		back := BuildCSR(g).ToGraph()
		// The round trip must preserve everything, including free-list holes
		// and adjacency order; compare via a fresh CSR of the result.
		checkCSRMatches(t, back, BuildCSR(g))
		checkCSRMatches(t, g, BuildCSR(back))
		// And the rebuilt graph must still be mutable in the reclaimed slots.
		before := back.EdgeIDLimit()
		if back.M() < before {
			u, v := findNonEdge(back)
			id := back.MustAddEdgeW(u, v, 1.5)
			if id >= before {
				t.Fatalf("ToGraph lost the free list: new edge got id %d, limit was %d", id, before)
			}
		}
	}
}

func findNonEdge(g *Graph) (int, int) {
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	panic("complete graph")
}

func TestCSREmpty(t *testing.T) {
	c := BuildCSR(New(0))
	if c.N() != 0 || c.M() != 0 {
		t.Fatalf("empty csr = %v", c)
	}
	c = BuildCSR(New(3))
	if c.N() != 3 || c.M() != 0 || len(c.Adj(1)) != 0 {
		t.Fatalf("edgeless csr = %v", c)
	}
	if _, ok := c.EdgeBetween(0, 5); ok {
		t.Fatal("EdgeBetween accepted an out-of-range vertex")
	}
}
