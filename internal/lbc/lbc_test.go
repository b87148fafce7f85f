package lbc

import (
	"math/rand"
	"testing"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/sp"
)

// disjointPaths builds a graph whose only u-v paths are internally-disjoint
// paths of the given hop lengths. Returns g, u, v.
func disjointPaths(lens ...int) (*graph.Graph, int, int) {
	n := 2
	for _, l := range lens {
		n += l - 1
	}
	g := graph.New(n)
	u, v := 0, 1
	next := 2
	for _, l := range lens {
		prev := u
		for i := 0; i < l-1; i++ {
			g.MustAddEdge(prev, next)
			prev = next
			next++
		}
		g.MustAddEdge(prev, v)
	}
	return g, u, v
}

func TestDecideYesOnSeparablePair(t *testing.T) {
	// Path 0-1-2: {1} is a length-2 vertex cut, so LBC(2, 1) must say YES.
	g := gen.Path(3)
	res, err := Decide(g, 0, 2, 2, 1, Vertex)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if !res.Yes {
		t.Fatal("Decide = NO, want YES (cut {1} has size 1 <= alpha)")
	}
	ok, err := IsCut(g, 0, 2, 2, res.Cut, Vertex)
	if err != nil || !ok {
		t.Errorf("returned certificate %v is not a valid cut (ok=%v err=%v)", res.Cut, ok, err)
	}
	if len(res.Cut) > 1*2 {
		t.Errorf("certificate size %d exceeds alpha*t = 2", len(res.Cut))
	}
}

func TestDecideNoWhenWellConnected(t *testing.T) {
	// K5 minus terminals still has 3 internally disjoint 2-hop u-v paths
	// plus the direct edge; every length-3 vertex cut needs >= 3 vertices.
	// With alpha*t = 1*3 = 3 the instance is in the gray zone, so use
	// alpha=0: any path at all forces NO after 1 pass.
	g := gen.Complete(5)
	res, err := Decide(g, 0, 1, 3, 0, Vertex)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if res.Yes {
		t.Error("Decide = YES on K5 with alpha=0, want NO")
	}
	if res.Passes != 1 {
		t.Errorf("passes = %d, want 1", res.Passes)
	}
}

func TestDecideEdgeMode(t *testing.T) {
	// Two disjoint u-v paths of lengths 2 and 3: min length-3 edge cut is 2.
	g, u, v := disjointPaths(2, 3)
	res, err := Decide(g, u, v, 3, 2, Edge)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if !res.Yes {
		t.Fatal("Decide edge mode = NO, want YES (cut of size 2 exists <= alpha)")
	}
	ok, err := IsCut(g, u, v, 3, res.Cut, Edge)
	if err != nil || !ok {
		t.Errorf("edge certificate %v invalid (ok=%v err=%v)", res.Cut, ok, err)
	}
	if len(res.Cut) > 2*3 {
		t.Errorf("certificate size %d exceeds alpha*t = 6", len(res.Cut))
	}
}

func TestDecideDirectEdgeVertexMode(t *testing.T) {
	// When {u,v} itself is an edge, no vertex cut can disconnect them within
	// any t >= 1, so Decide must return NO for every alpha.
	g := gen.Complete(4)
	for alpha := 0; alpha <= 3; alpha++ {
		res, err := Decide(g, 0, 1, 3, alpha, Vertex)
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		if res.Yes {
			t.Errorf("alpha=%d: YES despite direct u-v edge", alpha)
		}
	}
}

func TestDecideValidation(t *testing.T) {
	g := gen.Path(4)
	cases := []struct {
		name           string
		u, v, t, alpha int
		mode           Mode
	}{
		{"u out of range", -1, 2, 3, 1, Vertex},
		{"v out of range", 0, 9, 3, 1, Vertex},
		{"u == v", 2, 2, 3, 1, Vertex},
		{"t < 1", 0, 1, 0, 1, Vertex},
		{"alpha < 0", 0, 1, 3, -1, Vertex},
		{"bad mode", 0, 1, 3, 1, Mode(0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decide(g, tc.u, tc.v, tc.t, tc.alpha, tc.mode); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestIsCut(t *testing.T) {
	g, u, v := disjointPaths(2, 2) // u-a-v and u-b-v
	ok, err := IsCut(g, u, v, 2, []int{2, 3}, Vertex)
	if err != nil || !ok {
		t.Errorf("IsCut({2,3}) = %v, %v; want true", ok, err)
	}
	ok, err = IsCut(g, u, v, 2, []int{2}, Vertex)
	if err != nil || ok {
		t.Errorf("IsCut({2}) = %v, %v; want false (second path remains)", ok, err)
	}
	// Cuts containing a terminal are invalid by definition.
	ok, err = IsCut(g, u, v, 2, []int{u}, Vertex)
	if err != nil || ok {
		t.Errorf("IsCut containing terminal = %v, %v; want false", ok, err)
	}
	if _, err := IsCut(g, u, v, 2, []int{99}, Vertex); err == nil {
		t.Error("out-of-range cut vertex accepted")
	}
	if _, err := IsCut(g, u, v, 2, []int{99}, Edge); err == nil {
		t.Error("out-of-range cut edge accepted")
	}
}

func TestExactVertex(t *testing.T) {
	g, u, v := disjointPaths(2, 3)
	// Min length-3 vertex cut: one vertex from each path = 2.
	cut, found, err := Exact(g, u, v, 3, 3, Vertex)
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	if !found || len(cut) != 2 {
		t.Fatalf("Exact = %v found=%v, want size-2 cut", cut, found)
	}
	ok, _ := IsCut(g, u, v, 3, cut, Vertex)
	if !ok {
		t.Errorf("Exact returned invalid cut %v", cut)
	}
	// With t=2 only the short path matters: min cut is 1.
	cut, found, err = Exact(g, u, v, 2, 3, Vertex)
	if err != nil || !found || len(cut) != 1 {
		t.Errorf("Exact t=2 = %v found=%v err=%v, want size-1 cut", cut, found, err)
	}
}

func TestExactNoCutExists(t *testing.T) {
	g := gen.Complete(4)
	// Direct edge means no vertex cut exists at all.
	if _, found, err := Exact(g, 0, 1, 3, 2, Vertex); err != nil || found {
		t.Errorf("Exact on adjacent pair: found=%v err=%v, want no cut", found, err)
	}
	// Edge mode: K4 has 3 edge-disjoint u-v paths of <= 2 hops; maxSize 2 insufficient.
	if _, found, err := Exact(g, 0, 1, 2, 2, Edge); err != nil || found {
		t.Errorf("Exact edge maxSize=2: found=%v err=%v, want none", found, err)
	}
	if cut, found, err := Exact(g, 0, 1, 2, 3, Edge); err != nil || !found || len(cut) != 3 {
		t.Errorf("Exact edge maxSize=3 = %v found=%v err=%v, want size-3 cut", cut, found, err)
	}
}

func TestExactValidation(t *testing.T) {
	g := gen.Path(3)
	if _, _, err := Exact(g, 0, 2, 2, -1, Vertex); err == nil {
		t.Error("negative maxSize accepted")
	}
	if _, _, err := Exact(g, 0, 0, 2, 1, Vertex); err == nil {
		t.Error("u == v accepted")
	}
}

// TestGapGuarantee is the Theorem 4 property test: on random small graphs,
// whenever the exact minimum length-t-cut has size <= alpha, Decide must say
// YES; whenever it exceeds alpha*t, Decide must say NO. YES certificates must
// be valid cuts of size <= alpha*t.
func TestGapGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		g, err := gen.GNP(rng, 10, 0.35)
		if err != nil {
			t.Fatal(err)
		}
		u, v := 0, 1+rng.Intn(9)
		tHop := 2 + rng.Intn(3) // t in {2,3,4}
		alpha := 1 + rng.Intn(2)
		for _, mode := range []Mode{Vertex, Edge} {
			res, err := Decide(g, u, v, tHop, alpha, mode)
			if err != nil {
				t.Fatal(err)
			}
			if res.Yes {
				ok, err := IsCut(g, u, v, tHop, res.Cut, mode)
				if err != nil || !ok {
					t.Fatalf("trial %d %v: YES certificate invalid: %v %v", trial, mode, res.Cut, err)
				}
				if len(res.Cut) > alpha*tHop {
					t.Fatalf("trial %d %v: certificate size %d > alpha*t = %d",
						trial, mode, len(res.Cut), alpha*tHop)
				}
				// Completeness direction: every cut of size <= alpha implies
				// YES, which is satisfied; nothing more to check.
			} else {
				// NO requires that no cut of size <= alpha exists.
				if _, found, err := Exact(g, u, v, tHop, alpha, mode); err != nil {
					t.Fatal(err)
				} else if found {
					t.Fatalf("trial %d %v: Decide said NO but a cut of size <= %d exists",
						trial, mode, alpha)
				}
			}
		}
	}
}

// TestGapDecisionGolden pins Algorithm 2 on instances of known minimum cut:
// p internally-disjoint h-hop u-v paths need exactly p vertices to cut at
// t = h. Per alpha it pins the answer and the BFS passes, which respect the
// Theorem 4 gap (YES when the cut is <= alpha, NO when it is > alpha*t); a
// YES certificate is a valid cut of size <= alpha*t.
func TestGapDecisionGolden(t *testing.T) {
	for _, tc := range []struct {
		paths         []int
		alpha, passes int
		yes           bool
	}{
		{[]int{3, 3}, 0, 1, false}, {[]int{3, 3}, 1, 2, false},
		{[]int{3, 3}, 2, 3, true}, {[]int{3, 3}, 4, 3, true},
		{[]int{3, 3, 3}, 0, 1, false}, {[]int{3, 3, 3}, 2, 3, false},
		{[]int{3, 3, 3}, 3, 4, true}, {[]int{3, 3, 3}, 5, 4, true},
		{[]int{2, 2, 2, 2}, 0, 1, false}, {[]int{2, 2, 2, 2}, 3, 4, false},
		{[]int{2, 2, 2, 2}, 4, 5, true}, {[]int{2, 2, 2, 2}, 6, 5, true},
	} {
		g, u, v := disjointPaths(tc.paths...)
		minCut, hops := len(tc.paths), tc.paths[0]
		res, err := Decide(g, u, v, hops, tc.alpha, Vertex)
		if err != nil {
			t.Fatal(err)
		}
		if res.Yes != tc.yes || res.Passes != tc.passes {
			t.Errorf("%v alpha=%d: yes=%v after %d passes, want yes=%v after %d",
				tc.paths, tc.alpha, res.Yes, res.Passes, tc.yes, tc.passes)
		}
		if (minCut <= tc.alpha && !res.Yes) || (minCut > tc.alpha*hops && res.Yes) {
			t.Errorf("%v alpha=%d: answer yes=%v breaks the gap for min cut %d", tc.paths, tc.alpha, res.Yes, minCut)
		}
		if res.Yes {
			if ok, err := IsCut(g, u, v, hops, res.Cut, Vertex); err != nil || !ok || len(res.Cut) > tc.alpha*hops {
				t.Errorf("%v alpha=%d: certificate %v is not a cut of size <= %d", tc.paths, tc.alpha, res.Cut, tc.alpha*hops)
			}
		}
	}
}

// TestDecidePassBound checks the Theorem 4 runtime shape: at most alpha+1
// BFS passes.
func TestDecidePassBound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g, err := gen.GNP(rng, 40, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for alpha := 0; alpha <= 5; alpha++ {
		res, err := Decide(g, 0, 1, 3, alpha, Vertex)
		if err != nil {
			t.Fatal(err)
		}
		if res.Passes < 1 || res.Passes > alpha+1 {
			t.Errorf("alpha=%d: passes = %d, want in [1,%d]", alpha, res.Passes, alpha+1)
		}
	}
}

func TestModeString(t *testing.T) {
	if Vertex.String() != "vertex" || Edge.String() != "edge" {
		t.Errorf("mode strings: %q %q", Vertex, Edge)
	}
	if Mode(7).String() != "Mode(7)" {
		t.Errorf("unknown mode string: %q", Mode(7))
	}
}

// TestDecideDirectEdgePassAccounting is the regression test for the
// pass-accounting bug: a vertex-mode pass that finds the 1-hop u-v path
// adds no internal vertices to the cut, so before the short-circuit every
// remaining pass re-found the same path and Decide burned all alpha+1 BFS
// passes before answering NO. The answer is known the moment a pass
// contributes nothing — no vertex cut can remove a direct edge.
func TestDecideDirectEdgePassAccounting(t *testing.T) {
	g := gen.Complete(4)
	for alpha := 0; alpha <= 4; alpha++ {
		res, err := Decide(g, 0, 1, 3, alpha, Vertex)
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		if res.Yes {
			t.Fatalf("alpha=%d: YES despite direct u-v edge", alpha)
		}
		if res.Passes != 1 {
			t.Errorf("alpha=%d: passes = %d, want 1 (short-circuit on barren pass)", alpha, res.Passes)
		}
	}
	// Edge mode is unaffected: the direct edge itself joins the cut, so the
	// pass makes progress and enumeration continues as before.
	res, err := Decide(g, 0, 1, 2, 3, Edge)
	if err != nil {
		t.Fatalf("Decide edge: %v", err)
	}
	if !res.Yes {
		t.Error("edge mode on K4 t=2 alpha=3: want YES (cut all short u-v paths)")
	}
}

// TestDecideWithMatchesDecide: the searcher-based entry point returns the
// same decision, certificate, and pass count as Decide on random instances.
func TestDecideWithMatchesDecide(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := sp.NewSearcher(0, 0)
	for trial := 0; trial < 50; trial++ {
		g, err := gen.GNP(rng, 14, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		u, v := 0, 1+rng.Intn(13)
		tHop := 1 + rng.Intn(4)
		alpha := rng.Intn(3)
		for _, mode := range []Mode{Vertex, Edge} {
			want, err := Decide(g, u, v, tHop, alpha, mode)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecideWith(s, g, u, v, tHop, alpha, mode)
			if err != nil {
				t.Fatal(err)
			}
			if got.Yes != want.Yes || got.Passes != want.Passes || len(got.Cut) != len(want.Cut) {
				t.Fatalf("trial %d %v: DecideWith = %+v, Decide = %+v", trial, mode, got, want)
			}
			for i := range got.Cut {
				if got.Cut[i] != want.Cut[i] {
					t.Fatalf("trial %d %v: cut mismatch %v vs %v", trial, mode, got.Cut, want.Cut)
				}
			}
		}
	}
}

// TestDecideWithLeavesSearcherClean: DecideWith must reset the fault mask
// on exit so the searcher stays safe for direct Dist/BFS use afterwards
// (the public BuildWith reuse pattern hands users exactly this searcher).
func TestDecideWithLeavesSearcherClean(t *testing.T) {
	g := gen.Complete(6)
	s := sp.NewSearcher(g.N(), g.M())
	// alpha large enough that vertex passes install cut vertices in the mask.
	if _, err := DecideWith(s, g, 0, 1, 2, 3, Vertex); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if s.VertexBlocked(v) {
			t.Fatalf("vertex %d left blocked after DecideWith", v)
		}
	}
	if d := s.Dist(g, 0, 1); d != 1 {
		t.Errorf("post-DecideWith Dist = %v, want 1 (stale mask leaked)", d)
	}
}

// TestDecideWithZeroAllocs pins the greedy's per-edge hot path at zero heap
// allocations on a warm searcher (the tentpole acceptance criterion).
func TestDecideWithZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	g, err := gen.GNP(rng, 96, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s := sp.NewSearcher(g.N(), g.M())
	for _, mode := range []Mode{Vertex, Edge} {
		fn := func() {
			if _, err := DecideWith(s, g, 0, 1, 3, 4, mode); err != nil {
				t.Fatal(err)
			}
		}
		fn() // warm the searcher
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%v: DecideWith allocates %v/op on a warm searcher, want 0", mode, allocs)
		}
	}
}

// Guard against accidental API drift: Decide must not mutate the input graph.
func TestDecideDoesNotMutate(t *testing.T) {
	g := gen.Complete(5)
	before := g.M()
	if _, err := Decide(g, 0, 1, 3, 2, Vertex); err != nil {
		t.Fatal(err)
	}
	if g.M() != before {
		t.Error("Decide mutated the input graph")
	}
	// And BFS on the original still works (no lingering blocked state).
	if d := sp.HopDist(g, 0, 1, sp.Blocked{}); d != 1 {
		t.Errorf("post-Decide dist = %d, want 1", d)
	}
}
