package core

import (
	"math"
	"math/rand"
	"testing"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/verify"
)

func TestStretch(t *testing.T) {
	for k, want := range map[int]int{1: 1, 2: 3, 3: 5, 4: 7} {
		if got := Stretch(k); got != want {
			t.Errorf("Stretch(%d) = %d, want %d", k, got, want)
		}
	}
}

// modifiedGreedy is the untraced sequential Build every other construction
// is compared against.
func modifiedGreedy(g graph.View, k, f int, mode lbc.Mode) (*graph.Graph, Stats, error) {
	h, _, stats, err := Build(g, Params{K: k, F: f, Mode: mode})
	return h, stats, err
}

func TestValidation(t *testing.T) {
	g := gen.Complete(4)
	if _, _, err := modifiedGreedy(nil, 2, 1, lbc.Vertex); err == nil {
		t.Error("nil graph accepted")
	}
	if _, _, err := modifiedGreedy(g, 0, 1, lbc.Vertex); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, _, err := modifiedGreedy(g, 2, -1, lbc.Vertex); err == nil {
		t.Error("f = -1 accepted")
	}
	if _, _, err := modifiedGreedy(g, 2, 1, lbc.Mode(0)); err == nil {
		t.Error("bad mode accepted")
	}
	if _, _, err := ExactGreedy(g, 0, 1, lbc.Vertex); err == nil {
		t.Error("ExactGreedy k = 0 accepted")
	}
}

// TestModifiedGreedyIsFTSpanner is the Theorem 5 check: the output verifies
// exhaustively as an f-fault-tolerant (2k-1)-spanner, both fault modes.
func TestModifiedGreedyIsFTSpanner(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		g, err := gen.GNP(rng, 14, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 3} {
			for _, f := range []int{1, 2} {
				for _, mode := range []lbc.Mode{lbc.Vertex, lbc.Edge} {
					h, stats, err := modifiedGreedy(g, k, f, mode)
					if err != nil {
						t.Fatal(err)
					}
					if stats.EdgesConsidered != g.M() || stats.EdgesAdded != h.M() {
						t.Errorf("stats inconsistent: %+v vs m=%d |H|=%d", stats, g.M(), h.M())
					}
					rep, err := verify.Exhaustive(g, h, float64(Stretch(k)), f, mode)
					if err != nil {
						t.Fatal(err)
					}
					if !rep.OK {
						t.Fatalf("trial %d k=%d f=%d %v: not a valid FT spanner: %v",
							trial, k, f, mode, rep.Violation)
					}
				}
			}
		}
	}
}

// TestExactGreedyIsFTSpanner checks Algorithm 1's output the same way.
func TestExactGreedyIsFTSpanner(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4; trial++ {
		g, err := gen.GNP(rng, 12, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []lbc.Mode{lbc.Vertex, lbc.Edge} {
			h, stats, err := ExactGreedy(g, 2, 1, mode)
			if err != nil {
				t.Fatal(err)
			}
			if stats.FaultSetsTried == 0 && g.M() > 0 {
				t.Error("exact greedy tried no fault sets")
			}
			rep, err := verify.Exhaustive(g, h, 3, 1, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK {
				t.Fatalf("trial %d %v: exact greedy output invalid: %v", trial, mode, rep.Violation)
			}
		}
	}
}

// TestWeightedModifiedGreedy is the Theorem 10 check on weighted graphs.
func TestWeightedModifiedGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 5; trial++ {
		base, err := gen.GNP(rng, 12, 0.45)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gen.UniformWeights(rng, base, 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []lbc.Mode{lbc.Vertex, lbc.Edge} {
			h, _, err := modifiedGreedy(g, 2, 1, mode)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := verify.Exhaustive(g, h, 3, 1, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK {
				t.Fatalf("trial %d %v: weighted spanner invalid: %v", trial, mode, rep.Violation)
			}
		}
	}
}

// TestModifiedGreedyValidAcrossFamilies is Theorems 5 and 10 at f = 2 on
// three seeded families: |H| is pinned per fault mode and every output
// verifies exhaustively as a 2-fault-tolerant 3-spanner.
func TestModifiedGreedyValidAcrossFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gnp, err := gen.GNP(rng, 20, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	base, err := gen.GNP(rng, 18, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := gen.UniformWeights(rng, base, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		vft, eft int
	}{
		{"G(20,.35)", gnp, 50, 50},
		{"weighted G(18,.4)", weighted, 45, 45},
		{"grid 4x5", grid, 31, 31},
	} {
		for mode, want := range map[lbc.Mode]int{lbc.Vertex: tc.vft, lbc.Edge: tc.eft} {
			h, _, err := modifiedGreedy(tc.g, 2, 2, mode)
			if err != nil {
				t.Fatal(err)
			}
			if h.M() != want {
				t.Errorf("%s %v: |H| = %d, want %d", tc.name, mode, h.M(), want)
			}
			rep, err := verify.Exhaustive(tc.g, h, 3, 2, mode)
			if err != nil || !rep.OK {
				t.Errorf("%s %v: not a valid 2-FT 3-spanner: %v %v", tc.name, mode, rep.Violation, err)
			}
		}
	}
}

// TestWeightOrderingIsLoadBearing is the Theorem 10 ablation: on a graph
// with two vertex-disjoint heavy 3-hop u-v paths plus a light direct edge,
// running the unweighted greedy in a heavy-first order rejects the light
// edge (the LBC test sees two short hop-paths and answers NO), which
// violates the stretch bound. The nondecreasing-weight order of Algorithm 4
// never does. The adversarial_gnp subtest shows the same on a random graph.
func TestWeightOrderingIsLoadBearing(t *testing.T) {
	t.Run("two_heavy_paths", func(t *testing.T) {
		g := graph.NewWeighted(6)
		heavy := []int{
			g.MustAddEdgeW(0, 1, 10), // path A: 0-1-2-3
			g.MustAddEdgeW(1, 2, 10),
			g.MustAddEdgeW(2, 3, 10),
			g.MustAddEdgeW(0, 4, 10), // path B: 0-4-5-3
			g.MustAddEdgeW(4, 5, 10),
			g.MustAddEdgeW(5, 3, 10),
		}
		light := g.MustAddEdgeW(0, 3, 1)
		badOrder := append(append([]int{}, heavy...), light)

		h, err := greedySequential(nil, g, 2, 1, lbc.Vertex, gatherEdges(g, badOrder), new(Stats), nil)
		if err != nil {
			t.Fatal(err)
		}
		if h.HasEdge(0, 3) {
			t.Fatal("bad order unexpectedly kept the light edge; ablation premise broken")
		}
		viol, err := verify.CheckUnderFaults(g, h, 3, nil, lbc.Vertex)
		if err != nil {
			t.Fatal(err)
		}
		if viol == nil {
			t.Fatal("bad-order spanner has no violation; ablation premise broken")
		}

		// The correct (sorted) order keeps it and verifies exhaustively.
		h, _, err = modifiedGreedy(g, 2, 1, lbc.Vertex)
		if err != nil {
			t.Fatal(err)
		}
		if !h.HasEdge(0, 3) {
			t.Error("sorted order dropped the light edge")
		}
		rep, err := verify.Exhaustive(g, h, 3, 1, lbc.Vertex)
		if err != nil || !rep.OK {
			t.Errorf("sorted-order spanner invalid: %v %v", rep.Violation, err)
		}
	})

	// Weights fall with edge ID, so insertion order is heaviest first.
	t.Run("adversarial_gnp", func(t *testing.T) {
		base, err := gen.GNP(rand.New(rand.NewSource(13)), 40, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		adv := gen.AdversarialWeights(base)
		insertion := make([]int, adv.M())
		for i := range insertion {
			insertion[i] = i
		}
		for _, tc := range []struct {
			name  string
			order []int
			valid bool
		}{
			{"sorted", adv.EdgeIDsByWeight(), true},
			{"insertion", insertion, false},
		} {
			h, err := greedySequential(nil, adv, 2, 1, lbc.Vertex, gatherEdges(adv, tc.order), new(Stats), nil)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := verify.Exhaustive(adv, h, 3, 1, lbc.Vertex)
			if err != nil {
				t.Fatal(err)
			}
			if rep.OK != tc.valid {
				t.Errorf("adversarial G(40,.25), %s order: valid = %v, want %v", tc.name, rep.OK, tc.valid)
			}
		}
	})
}

// TestF0GirthInvariant: with f=0 the modified greedy degenerates to the
// classic hop-based greedy, whose output has girth > 2k (an edge is only
// added when no (2k-1)-hop path exists, so every new cycle has >= 2k+1
// edges). This is the structural fact behind the ADD+93 size bound.
func TestF0GirthInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, k := range []int{2, 3} {
		g, err := gen.GNP(rng, 40, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := modifiedGreedy(g, k, 0, lbc.Vertex)
		if err != nil {
			t.Fatal(err)
		}
		if girth := h.Girth(); girth >= 0 && girth <= 2*k {
			t.Errorf("k=%d: f=0 greedy output has girth %d, want > %d", k, girth, 2*k)
		}
		// And it is still a (2k-1)-spanner.
		rep, err := verify.Exhaustive(g, h, float64(Stretch(k)), 0, lbc.Vertex)
		if err != nil || !rep.OK {
			t.Errorf("k=%d: f=0 output not a spanner: %v %v", k, rep.Violation, err)
		}
	}
}

// TestSpannerOfItself: a spanner of a spanner-complete instance. On a tree
// (no alternative paths), every edge must be kept by any spanner algorithm.
func TestTreeKeepsAllEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := gen.RandomTree(rng, 30)
	for _, f := range []int{0, 1, 3} {
		h, _, err := modifiedGreedy(g, 2, f, lbc.Vertex)
		if err != nil {
			t.Fatal(err)
		}
		if h.M() != g.M() {
			t.Errorf("f=%d: tree spanner dropped edges: %d of %d", f, h.M(), g.M())
		}
	}
}

// TestMonotoneInF: spanners for larger f should not get smaller on the same
// input — not a theorem, but a strong sanity signal of the LBC budget
// actually being exercised. We check a weaker, always-true property: the
// f=0 spanner is no larger than the f=2 spanner on dense graphs where
// redundancy exists.
func TestFaultBudgetAddsRedundancy(t *testing.T) {
	g := gen.Complete(12)
	sizes := make(map[int]int)
	for _, f := range []int{0, 1, 2} {
		h, _, err := modifiedGreedy(g, 2, f, lbc.Vertex)
		if err != nil {
			t.Fatal(err)
		}
		sizes[f] = h.M()
	}
	if !(sizes[0] < sizes[1] && sizes[1] < sizes[2]) {
		t.Errorf("sizes on K12 for f=0,1,2 = %v; expected strictly increasing", sizes)
	}
}

// TestSizeBoundShape: Theorem 8 with a generous constant. On K_n with k=2,
// f=1 the bound is 2·n^1.5; the measured size must stay within a small
// constant of it.
func TestSizeBoundShape(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	g, err := gen.GNP(rng, 120, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []int{1, 2} {
		h, _, err := modifiedGreedy(g, 2, f, lbc.Vertex)
		if err != nil {
			t.Fatal(err)
		}
		bound := SizeBound(g.N(), 2, f)
		if float64(h.M()) > 3*bound {
			t.Errorf("f=%d: size %d exceeds 3x the Theorem 8 bound %.0f", f, h.M(), bound)
		}
		if h.M() >= g.M() {
			t.Errorf("f=%d: spanner did not sparsify: %d of %d edges", f, h.M(), g.M())
		}
	}
}

// TestSizeGolden pins |H| on one seeded G(96, 0.25) per (k, f, mode) and
// checks the Theorem 8 size claims on the measured sizes, one subtest each:
// every size is within TestSizeBoundShape's 3x of SizeBound, doubling f less
// than doubles the size (the f^(1-1/k) growth), and edge faults never cost
// more edges than vertex faults.
func TestSizeGolden(t *testing.T) {
	g, err := gen.GNP(rand.New(rand.NewSource(11)), 96, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		k, f int
		mode lbc.Mode
	}
	want := map[key]int{
		{2, 1, lbc.Vertex}: 355, {2, 2, lbc.Vertex}: 436, {2, 4, lbc.Vertex}: 589,
		{3, 1, lbc.Vertex}: 193, {3, 2, lbc.Vertex}: 270, {3, 4, lbc.Vertex}: 428,
		{2, 1, lbc.Edge}: 355, {2, 2, lbc.Edge}: 436, {2, 4, lbc.Edge}: 589,
		{3, 1, lbc.Edge}: 186, {3, 2, lbc.Edge}: 269, {3, 4, lbc.Edge}: 427,
	}
	got := make(map[key]int, len(want))
	for c, size := range want {
		h, _, err := modifiedGreedy(g, c.k, c.f, c.mode)
		if err != nil {
			t.Fatal(err)
		}
		if got[c] = h.M(); got[c] != size {
			t.Errorf("%+v: |H| = %d, want %d", c, got[c], size)
		}
	}
	t.Run("within_size_bound", func(t *testing.T) {
		for c, size := range got {
			if bound := SizeBound(g.N(), c.k, c.f); float64(size) > 3*bound {
				t.Errorf("%+v: |H| = %d exceeds 3x the Theorem 8 bound %.0f", c, size, bound)
			}
		}
	})
	t.Run("sublinear_in_f", func(t *testing.T) {
		for c, size := range got {
			if double, ok := got[key{c.k, 2 * c.f, c.mode}]; ok && double >= 2*size {
				t.Errorf("%+v: |H| grows from %d to %d when f doubles", c, size, double)
			}
		}
	})
	t.Run("edge_faults_no_larger", func(t *testing.T) {
		for c, size := range got {
			if vft := got[key{c.k, c.f, lbc.Vertex}]; c.mode == lbc.Edge && size > vft {
				t.Errorf("%+v: EFT |H| = %d exceeds VFT |H| = %d", c, size, vft)
			}
		}
	})
}

// TestStretchUnderRandomFaultsGolden is Lemma 3 + Theorem 10 measured: on
// one seeded weighted geometric graph, the worst per-edge stretch over six
// random vertex fault sets of size 2 is pinned per k and stays within 2k-1.
func TestStretchUnderRandomFaultsGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g, _, err := gen.Geometric(rng, 96, 0.15, true)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[int]float64{2: 1.7775, 3: 1.6713} {
		h, _, err := modifiedGreedy(g, k, 2, lbc.Vertex)
		if err != nil {
			t.Fatal(err)
		}
		faults := rand.New(rand.NewSource(int64(k)))
		worst := 0.0
		for trial := 0; trial < 6; trial++ {
			ratios, err := verify.EdgeStretches(g, h, []int{faults.Intn(g.N()), faults.Intn(g.N())}, lbc.Vertex)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range ratios {
				worst = math.Max(worst, r)
			}
		}
		if math.Abs(worst-want) > 1e-4 {
			t.Errorf("k=%d: max stretch %.6f, want %.4f", k, worst, want)
		}
		if worst > float64(Stretch(k)) {
			t.Errorf("k=%d: max stretch %.6f exceeds 2k-1 = %d", k, worst, Stretch(k))
		}
	}
}

func TestSizeBoundValues(t *testing.T) {
	if got := SizeBound(0, 2, 1); got != 0 {
		t.Errorf("SizeBound(0,2,1) = %v", got)
	}
	if got := SizeBound(100, 0, 1); got != 0 {
		t.Errorf("SizeBound(100,0,1) = %v", got)
	}
	approxEq := func(got, want float64) bool {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-6*want
	}
	// f=0: n^(1+1/k) = 100^1.5 = 1000.
	if got := SizeBound(100, 2, 0); !approxEq(got, 1000) {
		t.Errorf("SizeBound(100,2,0) = %v, want ~1000", got)
	}
	// k=2, f=4: 2 * 4^0.5 * 100^1.5 = 2*2*1000 = 4000.
	if got := SizeBound(100, 2, 4); !approxEq(got, 4000) {
		t.Errorf("SizeBound(100,2,4) = %v, want ~4000", got)
	}
}

// TestModifiedVsExactSize: the paper's headline comparison (Theorem 2).
// The modified greedy may add more edges than the size-optimal exponential
// greedy, but by Theorem 8 at most an O(k) factor more in aggregate. On tiny
// instances we assert a generous factor and validity of both.
func TestModifiedVsExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 5; trial++ {
		g, err := gen.GNP(rng, 12, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		exact, _, err := ExactGreedy(g, 2, 1, lbc.Vertex)
		if err != nil {
			t.Fatal(err)
		}
		approx, _, err := modifiedGreedy(g, 2, 1, lbc.Vertex)
		if err != nil {
			t.Fatal(err)
		}
		if float64(approx.M()) > 3*float64(exact.M())+3 {
			t.Errorf("trial %d: modified %d edges vs exact %d — gap far above O(k)=2 expectation",
				trial, approx.M(), exact.M())
		}
	}
}

// TestModifiedVsExactGolden pins the Theorem 2 trade-off on one seeded
// G(16, 0.4): per (k, f), the exact and the modified greedy sizes, the
// modified greedy at most k times the exact, and both outputs exhaustively
// valid f-VFT (2k-1)-spanners.
func TestModifiedVsExactGolden(t *testing.T) {
	g, err := gen.GNP(rand.New(rand.NewSource(3)), 16, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ k, f, exact, modified int }{
		{2, 1, 31, 31}, {2, 2, 36, 36}, {3, 1, 26, 26}, {3, 2, 32, 34},
	} {
		exact, _, err := ExactGreedy(g, want.k, want.f, lbc.Vertex)
		if err != nil {
			t.Fatal(err)
		}
		modified, _, err := modifiedGreedy(g, want.k, want.f, lbc.Vertex)
		if err != nil {
			t.Fatal(err)
		}
		if exact.M() != want.exact || modified.M() != want.modified {
			t.Errorf("k=%d f=%d: |exact| = %d, |modified| = %d, want %d, %d",
				want.k, want.f, exact.M(), modified.M(), want.exact, want.modified)
		}
		if modified.M() > want.k*exact.M() {
			t.Errorf("k=%d f=%d: |modified| = %d exceeds k x |exact| = %d", want.k, want.f, modified.M(), want.k*exact.M())
		}
		for name, h := range map[string]*graph.Graph{"exact": exact, "modified": modified} {
			rep, err := verify.Exhaustive(g, h, float64(Stretch(want.k)), want.f, lbc.Vertex)
			if err != nil || !rep.OK {
				t.Errorf("k=%d f=%d: %s greedy output invalid: %v %v", want.k, want.f, name, rep.Violation, err)
			}
		}
	}
}

func TestDoesNotMutateInput(t *testing.T) {
	g := gen.Complete(8)
	before := g.M()
	if _, _, err := modifiedGreedy(g, 2, 1, lbc.Vertex); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExactGreedy(g, 2, 1, lbc.Vertex); err != nil {
		t.Fatal(err)
	}
	if g.M() != before {
		t.Error("construction mutated the input graph")
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.New(0)
	h, stats, err := modifiedGreedy(empty, 2, 1, lbc.Vertex)
	if err != nil || h.N() != 0 || stats.EdgesAdded != 0 {
		t.Errorf("empty graph: %v %+v %v", h, stats, err)
	}
	single := graph.New(1)
	if h, _, err = modifiedGreedy(single, 2, 1, lbc.Vertex); err != nil || h.M() != 0 {
		t.Errorf("single vertex: %v %v", h, err)
	}
	pair := graph.New(2)
	pair.MustAddEdge(0, 1)
	h, _, err = modifiedGreedy(pair, 2, 1, lbc.Vertex)
	if err != nil || h.M() != 1 {
		t.Errorf("single edge must be kept: %v %v", h, err)
	}
	h, _, err = ExactGreedy(pair, 2, 1, lbc.Edge)
	if err != nil || h.M() != 1 {
		t.Errorf("exact greedy single edge: %v %v", h, err)
	}
}
