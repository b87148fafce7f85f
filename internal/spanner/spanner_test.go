package spanner

import (
	"math"
	"math/rand"
	"testing"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/sp"
	"ftspanner/internal/verify"
)

func TestGreedyValidation(t *testing.T) {
	if _, err := Greedy(nil, 2); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Greedy(gen.Complete(3), 0); err == nil {
		t.Error("k = 0 accepted")
	}
}

func TestGreedyStretchOne(t *testing.T) {
	// k=1 (stretch 1) must keep every edge of a complete graph.
	g := gen.Complete(6)
	h, err := Greedy(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != g.M() {
		t.Errorf("1-spanner has %d of %d edges", h.M(), g.M())
	}
}

func TestGreedyUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, k := range []int{2, 3} {
		g, err := gen.GNP(rng, 60, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Greedy(g, k)
		if err != nil {
			t.Fatal(err)
		}
		// Validity: a (2k-1)-spanner (checked edge-wise, f=0).
		rep, err := verify.Exhaustive(g, h, float64(2*k-1), 0, lbc.Vertex)
		if err != nil || !rep.OK {
			t.Fatalf("k=%d: greedy output invalid: %v %v", k, rep.Violation, err)
		}
		// Girth > 2k: the ADD+93 structural invariant.
		if girth := h.Girth(); girth >= 0 && girth <= 2*k {
			t.Errorf("k=%d: greedy spanner girth %d, want > %d", k, girth, 2*k)
		}
		// Size bound with the Moore-bound constant: m <= n^(1+1/k) + n.
		bound := math.Pow(float64(g.N()), 1+1/float64(k)) + float64(g.N())
		if float64(h.M()) > bound {
			t.Errorf("k=%d: size %d exceeds n^(1+1/k)+n = %.0f", k, h.M(), bound)
		}
	}
}

func TestGreedyWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	base, err := gen.GNP(rng, 40, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.UniformWeights(rng, base, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Greedy(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Exhaustive(g, h, 3, 0, lbc.Vertex)
	if err != nil || !rep.OK {
		t.Fatalf("weighted greedy invalid: %v %v", rep.Violation, err)
	}
	if h.M() >= g.M() {
		t.Errorf("weighted greedy did not sparsify: %d of %d", h.M(), g.M())
	}
}

// TestGreedyMatchesAllocatingReference pins Greedy's warm-Searcher loop to
// the same loop over the allocating package-level sp queries: the spanners
// must be edge-for-edge identical, weighted and unweighted.
func TestGreedyMatchesAllocatingReference(t *testing.T) {
	reference := func(g *graph.Graph, k int) *graph.Graph {
		hops := 2*k - 1
		h := g.EmptyLike()
		for _, id := range g.EdgeIDsByWeight() {
			e := g.Edge(id)
			if g.Weighted() {
				if sp.Dist(h, e.U, e.V, sp.Blocked{}) > float64(hops)*e.W {
					h.MustAddEdgeW(e.U, e.V, e.W)
				}
			} else if _, _, ok := sp.PathWithin(h, e.U, e.V, hops, sp.Blocked{}); !ok {
				h.MustAddEdge(e.U, e.V)
			}
		}
		return h
	}
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 6; trial++ {
		g, err := gen.GNP(rng, 50, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if trial%2 == 1 {
			if g, err = gen.UniformWeights(rng, g, 1, 10); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []int{1, 2, 3} {
			h, err := Greedy(g, k)
			if err != nil {
				t.Fatal(err)
			}
			want := reference(g, k)
			if h.M() != want.M() {
				t.Fatalf("trial %d k=%d: %d edges, reference %d", trial, k, h.M(), want.M())
			}
			for id := 0; id < h.EdgeIDLimit(); id++ {
				if h.Edge(id) != want.Edge(id) {
					t.Fatalf("trial %d k=%d: edge %d = %v, reference %v", trial, k, id, h.Edge(id), want.Edge(id))
				}
			}
		}
	}
}

func TestGreedyGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g, _, err := gen.Geometric(rng, 150, 0.25, true)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Greedy(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Exhaustive(g, h, 5, 0, lbc.Vertex)
	if err != nil || !rep.OK {
		t.Fatalf("geometric greedy invalid: %v %v", rep.Violation, err)
	}
}

func TestBaswanaSenValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	if _, err := BaswanaSen(rng, nil, 2); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := BaswanaSen(rng, gen.Complete(3), 0); err == nil {
		t.Error("k = 0 accepted")
	}
}

func TestBaswanaSenK1KeepsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g := gen.Complete(7)
	h, err := BaswanaSen(rng, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != g.M() {
		t.Errorf("k=1 spanner has %d of %d edges", h.M(), g.M())
	}
}

// TestBaswanaSenStretchDeterministic: the stretch guarantee holds on every
// run regardless of the random choices. Check many seeds on several graph
// families.
func TestBaswanaSenStretch(t *testing.T) {
	families := map[string]*graph.Graph{}
	rng := rand.New(rand.NewSource(56))
	if g, err := gen.GNP(rng, 50, 0.25); err == nil {
		families["gnp"] = g
	}
	if g, err := gen.Torus(6, 6); err == nil {
		families["torus"] = g
	}
	if base, err := gen.GNP(rng, 40, 0.3); err == nil {
		if w, err := gen.UniformWeights(rng, base, 1, 50); err == nil {
			families["weighted gnp"] = w
		}
	}
	families["complete"] = gen.Complete(20)

	for name, g := range families {
		for _, k := range []int{2, 3} {
			for seed := int64(0); seed < 5; seed++ {
				h, err := BaswanaSen(rand.New(rand.NewSource(seed)), g, k)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := verify.Exhaustive(g, h, float64(2*k-1), 0, lbc.Vertex)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK {
					t.Fatalf("%s k=%d seed=%d: Baswana-Sen output invalid: %v",
						name, k, seed, rep.Violation)
				}
			}
		}
	}
}

// TestBaswanaSenSize: expected size is O(k·n^(1+1/k)); assert a generous
// multiple on a dense graph where sparsification must happen.
func TestBaswanaSenSize(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	g := gen.Complete(64)
	var total int
	const runs = 5
	for i := 0; i < runs; i++ {
		h, err := BaswanaSen(rng, g, 2)
		if err != nil {
			t.Fatal(err)
		}
		total += h.M()
	}
	avg := float64(total) / runs
	bound := 2 * math.Pow(64, 1.5) // k·n^(1+1/k) = 1024
	if avg > 4*bound {
		t.Errorf("average size %.0f far above k·n^(1+1/k) = %.0f", avg, bound)
	}
	if avg >= float64(g.M()) {
		t.Errorf("Baswana-Sen did not sparsify K64: avg %.0f of %d", avg, g.M())
	}
}

func TestBaswanaSenEmptyAndSingleton(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	h, err := BaswanaSen(rng, graph.New(0), 2)
	if err != nil || h.N() != 0 {
		t.Errorf("empty graph: %v %v", h, err)
	}
	h, err = BaswanaSen(rng, graph.New(5), 3)
	if err != nil || h.M() != 0 {
		t.Errorf("edgeless graph: %v %v", h, err)
	}
}

func TestBaswanaSenDeterministicGivenSeed(t *testing.T) {
	g := gen.Complete(30)
	a, err := BaswanaSen(rand.New(rand.NewSource(99)), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BaswanaSen(rand.New(rand.NewSource(99)), g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsSubgraphOf(b) || !b.IsSubgraphOf(a) {
		t.Error("same seed produced different spanners")
	}
}
