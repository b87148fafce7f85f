package local

import (
	"math/rand"
	"reflect"
	"testing"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/verify"
)

func torus(t *testing.T, r, c int) *graph.Graph {
	t.Helper()
	g, err := gen.Torus(r, c)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFTSpannerDeterministicInSeed(t *testing.T) {
	g := torus(t, 10, 10)
	a, err := FTSpanner(g, Options{K: 2, F: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FTSpanner(g, Options{K: 2, F: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Spanner.Edges(), b.Spanner.Edges()) {
		t.Error("same seed produced different spanners")
	}
	if a.Rounds != b.Rounds || a.DecompRounds != b.DecompRounds ||
		a.MaxClusterDiameter != b.MaxClusterDiameter || a.Clusters != b.Clusters {
		t.Errorf("same seed produced different accounting: %+v vs %+v", a, b)
	}
}

func TestFTSpannerRoundAccounting(t *testing.T) {
	g := torus(t, 10, 10)
	res, err := FTSpanner(g, Options{K: 2, F: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := res.DecompRounds + 2*res.MaxClusterDiameter + 2; res.Rounds != want {
		t.Errorf("Rounds = %d, want decomp %d + 2*diam %d + 2 = %d",
			res.Rounds, res.DecompRounds, res.MaxClusterDiameter, want)
	}
	if res.Clusters < len(res.Decomp.Centers) {
		t.Errorf("%d clusters across %d partitions", res.Clusters, len(res.Decomp.Centers))
	}
	if !res.Spanner.IsSubgraphOf(g) {
		t.Error("spanner is not a subgraph of the input")
	}
}

// TestFTSpannerValidity checks the construction's defining property: because
// every edge is covered by some cluster and each cluster carries an f-VFT
// spanner of its induced subgraph, the union is a valid f-VFT (2k-1)-spanner
// (deterministically, not just whp).
func TestFTSpannerValidity(t *testing.T) {
	// Exhaustive check over all fault sets on a small instance.
	small := torus(t, 4, 4)
	res, err := FTSpanner(small, Options{K: 2, F: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Exhaustive(small, res.Spanner, 3, 1, lbc.Vertex)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("exhaustive verification failed: %v", rep.Violation)
	}

	// Sampled check on larger instances, including a weighted one.
	rng := rand.New(rand.NewSource(9))
	gnp, err := gen.GNPConnected(rng, 120, 0.06, 50)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := gen.UniformWeights(rng, torus(t, 8, 8), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		g *graph.Graph
		f int
	}{
		"gnp f=2":      {gnp, 2},
		"weighted f=1": {weighted, 1},
	} {
		res, err := FTSpanner(tc.g, Options{K: 2, F: tc.f, Seed: 17})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := verify.Sampled(tc.g, res.Spanner, 3, tc.f, lbc.Vertex, rng, 50)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.OK {
			t.Errorf("%s: sampled verification failed: %v", name, rep.Violation)
		}
	}
}

// TestFTSpannerGolden pins Theorem 12 on one seeded connected G(96, 0.15):
// per f, the total and decomposition rounds, the largest cluster diameter
// and |H|, with the spanner valid under sampled fault sets.
func TestFTSpannerGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g, err := gen.GNPConnected(rng, 96, 0.15, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ f, rounds, decomp, diam, edges int }{
		{1, 11, 3, 3, 355},
		{2, 11, 3, 3, 450},
	} {
		res, err := FTSpanner(g, Options{K: 2, F: want.f, Seed: int64(want.f)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != want.rounds || res.DecompRounds != want.decomp ||
			res.MaxClusterDiameter != want.diam || res.Spanner.M() != want.edges {
			t.Errorf("f=%d: rounds=%d decomp=%d diam=%d |H|=%d, want %d %d %d %d", want.f, res.Rounds,
				res.DecompRounds, res.MaxClusterDiameter, res.Spanner.M(), want.rounds, want.decomp, want.diam, want.edges)
		}
		rep, err := verify.Sampled(g, res.Spanner, 3, want.f, lbc.Vertex, rng, 40)
		if err != nil || !rep.OK {
			t.Errorf("f=%d: sampled verification failed: %v %v", want.f, rep.Violation, err)
		}
	}
}

func TestFTSpannerRejectsBadInputs(t *testing.T) {
	g := torus(t, 4, 4)
	if _, err := FTSpanner(nil, Options{K: 2, F: 1}); err == nil {
		t.Error("nil graph not rejected")
	}
	if _, err := FTSpanner(g, Options{K: 0, F: 1}); err == nil {
		t.Error("K = 0 not rejected")
	}
	if _, err := FTSpanner(g, Options{K: 2, F: -1}); err == nil {
		t.Error("negative F not rejected")
	}
}
