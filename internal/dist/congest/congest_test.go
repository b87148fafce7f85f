package congest

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ftspanner/internal/dk11"
	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/verify"
)

func gnp(t *testing.T, n int, p float64, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.GNPConnected(rand.New(rand.NewSource(seed)), n, p, 50)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// expectedRounds is the data-independent schedule length for stretch
// parameter k: sum_{i=1}^{k-1} (i+1) broadcast/exchange/notify rounds plus
// the final and drain rounds.
func expectedRounds(k int) int {
	total := 2
	for i := 1; i < k; i++ {
		total += i + 1
	}
	return total
}

func TestBaswanaSenStretchAndSchedule(t *testing.T) {
	g := gnp(t, 100, 0.08, 1)
	rng := rand.New(rand.NewSource(2))
	weighted, err := gen.UniformWeights(rng, g, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for name, wg := range map[string]*graph.Graph{"unweighted": g, "weighted": weighted} {
		for k := 1; k <= 4; k++ {
			h, res, err := BaswanaSen(wg, k, int64(10+k))
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if res.LogicalRounds != expectedRounds(k) {
				t.Errorf("%s k=%d: %d logical rounds, want %d", name, k, res.LogicalRounds, expectedRounds(k))
			}
			// Theorem 14: every message fits the O(log n) bandwidth, so
			// congestion scheduling charges nothing extra.
			if res.ChargedRounds != res.LogicalRounds {
				t.Errorf("%s k=%d: charged %d != logical %d", name, k, res.ChargedRounds, res.LogicalRounds)
			}
			if !h.IsSubgraphOf(wg) {
				t.Errorf("%s k=%d: spanner not a subgraph", name, k)
			}
			// The (2k-1)-stretch guarantee holds on every run (f = 0 checks
			// the plain spanner property).
			rep, err := verify.Sampled(wg, h, float64(2*k-1), 0, lbc.Vertex, rng, 1)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if !rep.OK {
				t.Errorf("%s k=%d: stretch violated: %v", name, k, rep.Violation)
			}
		}
	}
}

func TestBaswanaSenKeepsEveryEdgeAtK1(t *testing.T) {
	g := gnp(t, 40, 0.1, 3)
	h, _, err := BaswanaSen(g, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != g.M() {
		t.Errorf("stretch-1 spanner has %d of %d edges", h.M(), g.M())
	}
}

func TestBaswanaSenDeterministicInSeed(t *testing.T) {
	g := gnp(t, 100, 0.08, 1)
	h1, r1, err := BaswanaSen(g, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	h2, r2, err := BaswanaSen(g, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h1.Edges(), h2.Edges()) {
		t.Error("same seed produced different spanners")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same seed produced different accounting: %+v vs %+v", r1, r2)
	}
	h3, _, err := BaswanaSen(g, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(h1.Edges(), h3.Edges()) {
		t.Error("different seeds produced identical spanners (suspicious)")
	}
}

func TestFTSpannerValidityAndCongestionBound(t *testing.T) {
	g := gnp(t, 64, 0.15, 5)
	rng := rand.New(rand.NewSource(6))
	for _, f := range []int{1, 2} {
		iters := DefaultIterations(g.N(), f)
		h, res, err := FTSpanner(g, 2, f, iters, int64(20+f))
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if !h.IsSubgraphOf(g) {
			t.Fatalf("f=%d: spanner not a subgraph", f)
		}
		rep, err := verify.Sampled(g, h, 3, f, lbc.Vertex, rng, 40)
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if !rep.OK {
			t.Errorf("f=%d: sampled verification failed: %v", f, rep.Violation)
		}
		// Theorem 15's point: multiplexing all iterations through one
		// schedule must not cost more than running them back to back.
		serialized := iters * (res.LogicalRounds - 1)
		if res.ChargedRounds > serialized {
			t.Errorf("f=%d: charged %d rounds exceeds serialized bound %d", f, res.ChargedRounds, serialized)
		}
		if res.ChargedRounds < res.LogicalRounds {
			t.Errorf("f=%d: charged %d below logical %d", f, res.ChargedRounds, res.LogicalRounds)
		}
		if res.LogicalRounds != expectedRounds(2) {
			t.Errorf("f=%d: %d logical rounds, want %d", f, res.LogicalRounds, expectedRounds(2))
		}
	}
}

// TestBaswanaSenGolden pins Theorem 14 on one seeded G(64, 0.25) and a
// weighted copy: per k, |H| within k*n^(1+1/k), the O(k^2) schedule with
// charged == logical rounds, and the (2k-1) stretch.
func TestBaswanaSenGolden(t *testing.T) {
	g := gnp(t, 64, 0.25, 10)
	weighted, err := gen.UniformWeights(rand.New(rand.NewSource(11)), g, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for _, want := range []struct {
		name  string
		g     *graph.Graph
		k     int
		edges int
	}{
		{"unweighted", g, 2, 427}, {"unweighted", g, 3, 316},
		{"weighted", weighted, 2, 440}, {"weighted", weighted, 3, 366},
	} {
		h, res, err := BaswanaSen(want.g, want.k, int64(want.k))
		if err != nil {
			t.Fatal(err)
		}
		if h.M() != want.edges {
			t.Errorf("%s k=%d: |H| = %d, want %d", want.name, want.k, h.M(), want.edges)
		}
		if bound := float64(want.k) * math.Pow(64, 1+1/float64(want.k)); float64(h.M()) > bound {
			t.Errorf("%s k=%d: |H| = %d exceeds k*n^(1+1/k) = %.0f", want.name, want.k, h.M(), bound)
		}
		if res.LogicalRounds != expectedRounds(want.k) || res.ChargedRounds != res.LogicalRounds {
			t.Errorf("%s k=%d: logical %d, charged %d, want both %d",
				want.name, want.k, res.LogicalRounds, res.ChargedRounds, expectedRounds(want.k))
		}
		rep, err := verify.Sampled(want.g, h, float64(2*want.k-1), 0, lbc.Vertex, rng, 1)
		if err != nil || !rep.OK {
			t.Errorf("%s k=%d: stretch violated: %v %v", want.name, want.k, rep.Violation, err)
		}
	}
}

// TestFTSpannerRoundsGolden pins Theorem 15 on one seeded G(64, 0.2): per f,
// the charged rounds and |H| (at n = 64 the DK11 union keeps every edge),
// with charged rounds below serializing the DK11 iterations and the spanner
// valid under sampled fault sets.
func TestFTSpannerRoundsGolden(t *testing.T) {
	g := gnp(t, 64, 0.2, 13)
	rng := rand.New(rand.NewSource(14))
	for _, want := range []struct{ f, charged, edges int }{
		{1, 51, 430},
		{2, 35, 430},
	} {
		iters := DefaultIterations(g.N(), want.f)
		h, res, err := FTSpanner(g, 2, want.f, iters, int64(want.f))
		if err != nil {
			t.Fatal(err)
		}
		if res.ChargedRounds != want.charged || h.M() != want.edges {
			t.Errorf("f=%d: charged %d rounds, |H| = %d, want %d, %d", want.f, res.ChargedRounds, h.M(), want.charged, want.edges)
		}
		if serialized := iters * (res.LogicalRounds - 1); res.ChargedRounds >= serialized {
			t.Errorf("f=%d: charged %d rounds, not below serialized %d", want.f, res.ChargedRounds, serialized)
		}
		rep, err := verify.Sampled(g, h, 3, want.f, lbc.Vertex, rng, 40)
		if err != nil || !rep.OK {
			t.Errorf("f=%d: sampled verification failed: %v %v", want.f, rep.Violation, err)
		}
	}
}

func TestFTSpannerDeterministicInSeed(t *testing.T) {
	g := gnp(t, 64, 0.15, 5)
	h1, r1, err := FTSpanner(g, 2, 2, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	h2, r2, err := FTSpanner(g, 2, 2, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h1.Edges(), h2.Edges()) {
		t.Error("same seed produced different spanners")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same seed produced different accounting: %+v vs %+v", r1, r2)
	}
}

func TestDefaultIterationsMatchesDK11(t *testing.T) {
	for _, n := range []int{16, 128, 1024} {
		for _, f := range []int{1, 2, 4} {
			if got, want := DefaultIterations(n, f), dk11.DefaultIterations(n, f); got != want {
				t.Errorf("DefaultIterations(%d, %d) = %d, want %d", n, f, got, want)
			}
		}
	}
}

func TestRejectsBadInputs(t *testing.T) {
	g := gnp(t, 16, 0.3, 8)
	if _, _, err := BaswanaSen(nil, 2, 1); err == nil {
		t.Error("BaswanaSen: nil graph not rejected")
	}
	if _, _, err := BaswanaSen(g, 0, 1); err == nil {
		t.Error("BaswanaSen: k = 0 not rejected")
	}
	if _, _, err := FTSpanner(nil, 2, 1, 1, 1); err == nil {
		t.Error("FTSpanner: nil graph not rejected")
	}
	if _, _, err := FTSpanner(g, 0, 1, 1, 1); err == nil {
		t.Error("FTSpanner: k = 0 not rejected")
	}
	if _, _, err := FTSpanner(g, 2, 0, 1, 1); err == nil {
		t.Error("FTSpanner: f = 0 not rejected")
	}
	if _, _, err := FTSpanner(g, 2, 1, -1, 1); err == nil {
		t.Error("FTSpanner: negative iterations not rejected")
	}
}
