package decomp

import (
	"math/rand"
	"reflect"
	"testing"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
)

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	torus, err := gen.Torus(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	gnp, err := gen.GNPConnected(rng, 150, 0.05, 50)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"torus": torus, "gnp": gnp}
}

func TestPaddedFullCoverage(t *testing.T) {
	for name, g := range testGraphs(t) {
		d, err := Padded(g, 0, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := d.CoveredEdges(g); got != g.M() {
			t.Errorf("%s: auto mode covered %d/%d edges", name, got, g.M())
		}
		if len(d.Centers) == 0 || d.Rounds < 1 {
			t.Errorf("%s: degenerate decomposition: %d partitions, %d rounds", name, len(d.Centers), d.Rounds)
		}
	}
}

// TestPaddedBetaSweepGolden pins Theorem 11 on a 16x16 torus across the
// shift rate: per beta, the partition count, rounds, single-partition
// coverage and largest cluster diameter, with every edge covered.
func TestPaddedBetaSweepGolden(t *testing.T) {
	g, err := gen.Torus(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		beta                          float64
		partitions, rounds, one, diam int
	}{
		{0.15, 3, 16, 472, 16},
		{0.3, 5, 12, 397, 20},
		{0.6, 8, 9, 309, 16},
	} {
		one, err := Padded(g, want.beta, 1, 21)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Padded(g, want.beta, 0, 22)
		if err != nil {
			t.Fatal(err)
		}
		diam, err := full.MaxClusterHopDiameter(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Centers) != want.partitions || full.Rounds != want.rounds ||
			one.CoveredEdges(g) != want.one || diam != want.diam {
			t.Errorf("beta=%v: partitions=%d rounds=%d one-partition coverage=%d diam=%d, want %d %d %d %d",
				want.beta, len(full.Centers), full.Rounds, one.CoveredEdges(g), diam,
				want.partitions, want.rounds, want.one, want.diam)
		}
		if got := full.CoveredEdges(g); got != g.M() {
			t.Errorf("beta=%v: covered %d/%d edges", want.beta, got, g.M())
		}
	}
}

func TestPaddedPartitionInvariants(t *testing.T) {
	for name, g := range testGraphs(t) {
		d, err := Padded(g, 0.3, 3, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(d.Centers) != 3 || len(d.Assign) != 3 {
			t.Fatalf("%s: requested 3 partitions, got %d/%d", name, len(d.Centers), len(d.Assign))
		}
		for p := range d.Assign {
			// Every vertex is assigned, and to a vertex that is a center.
			isCenter := make(map[int]bool)
			for _, c := range d.Centers[p] {
				isCenter[c] = true
				if d.Assign[p][c] != c {
					t.Errorf("%s p%d: center %d assigned to %d", name, p, c, d.Assign[p][c])
				}
			}
			for v, c := range d.Assign[p] {
				if !isCenter[c] {
					t.Errorf("%s p%d: vertex %d assigned to non-center %d", name, p, v, c)
				}
			}
			// Members partition the vertex set.
			seen := 0
			for _, members := range d.Members(p) {
				seen += len(members)
			}
			if seen != g.N() {
				t.Errorf("%s p%d: members cover %d of %d vertices", name, p, seen, g.N())
			}
		}
		// Clusters must be connected (checked inside MaxClusterHopDiameter).
		if _, err := d.MaxClusterHopDiameter(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPaddedDeterministicInSeed(t *testing.T) {
	g := testGraphs(t)["gnp"]
	a, err := Padded(g, 0.3, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Padded(g, 0.3, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different decompositions")
	}
	c, err := Padded(g, 0.3, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Assign, c.Assign) {
		t.Error("different seeds produced identical assignments")
	}
}

func TestPaddedBetaTradeoff(t *testing.T) {
	// Smaller beta means larger shifts, hence fewer clusters and higher
	// single-partition coverage.
	g := testGraphs(t)["torus"]
	low, err := Padded(g, 0.1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	high, err := Padded(g, 0.9, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lc, hc := len(low.Centers[0]), len(high.Centers[0]); lc >= hc {
		t.Errorf("cluster counts: beta 0.1 gave %d, beta 0.9 gave %d; want fewer at low beta", lc, hc)
	}
	if lo, hi := low.CoveredEdges(g), high.CoveredEdges(g); lo <= hi {
		t.Errorf("coverage: beta 0.1 covered %d, beta 0.9 covered %d; want more at low beta", lo, hi)
	}
}

func TestPaddedRejectsBadInputs(t *testing.T) {
	g := graph.New(3)
	if _, err := Padded(nil, 0.3, 1, 1); err == nil {
		t.Error("nil graph not rejected")
	}
	if _, err := Padded(g, -1, 1, 1); err == nil {
		t.Error("negative beta not rejected")
	}
	if _, err := Padded(g, 0.3, -1, 1); err == nil {
		t.Error("negative partition count not rejected")
	}
}

func TestPaddedEdgelessGraph(t *testing.T) {
	d, err := Padded(graph.New(5), 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every vertex is its own cluster and there is nothing to cover.
	if len(d.Centers) != 1 || len(d.Centers[0]) != 5 {
		t.Fatalf("unexpected decomposition of edgeless graph: %+v", d.Centers)
	}
}
