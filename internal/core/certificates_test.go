package core

import (
	"math/rand"
	"testing"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/verify"
)

// certifiedBuild is the traced vertex-fault build projected onto its added
// edges: one Lemma 6 cut certificate F_e (Cut) per spanner edge (HEdgeID).
func certifiedBuild(g graph.View, k, f int) (*graph.Graph, []EdgeDecision, Stats, error) {
	h, decisions, stats, err := Build(g, Params{K: k, F: f, Mode: lbc.Vertex, Trace: true})
	if err != nil {
		return nil, nil, stats, err
	}
	var certs []EdgeDecision
	for _, d := range decisions {
		if d.Added {
			certs = append(certs, d)
		}
	}
	return h, certs, stats, nil
}

func TestCertificatesMatchSpanner(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	g, err := gen.GNP(rng, 20, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	h, certs, stats, err := certifiedBuild(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(certs) != h.M() {
		t.Fatalf("%d certificates for %d spanner edges", len(certs), h.M())
	}
	// The certified construction is exactly the untraced one.
	want, wantStats, err := modifiedGreedy(g, 2, 1, lbc.Vertex)
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsSubgraphOf(want) || !want.IsSubgraphOf(h) {
		t.Error("certified construction differs from the untraced build")
	}
	if stats.BFSPasses != wantStats.BFSPasses {
		t.Errorf("stats differ: %d vs %d BFS passes", stats.BFSPasses, wantStats.BFSPasses)
	}
	// Each certificate respects the Theorem 4 size bound and avoids the
	// edge's endpoints.
	for _, c := range certs {
		e := h.Edge(c.HEdgeID)
		if len(c.Cut) > 1*Stretch(2) {
			t.Errorf("certificate for edge %d has %d vertices > f(2k-1) = 3", c.HEdgeID, len(c.Cut))
		}
		for _, x := range c.Cut {
			if x == e.U || x == e.V {
				t.Errorf("certificate for edge {%d,%d} contains endpoint %d", e.U, e.V, x)
			}
		}
	}
}

// TestLemma6BlockingSet is the direct audit of Lemma 6: the certificates
// assemble into a (2k)-blocking set of the output spanner of size at most
// (2k-1)·f·|E(H)|.
func TestLemma6BlockingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 6; trial++ {
		g, err := gen.GNP(rng, 18, 0.45)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{2, 3} {
			for _, f := range []int{1, 2} {
				h, certs, _, err := certifiedBuild(g, k, f)
				if err != nil {
					t.Fatal(err)
				}
				var pairs []verify.BlockingPair
				for _, c := range certs {
					for _, x := range c.Cut {
						pairs = append(pairs, verify.BlockingPair{V: x, EdgeID: c.HEdgeID})
					}
				}
				if maxSize := Stretch(k) * f * h.M(); len(pairs) > maxSize {
					t.Errorf("trial %d k=%d f=%d: |B| = %d exceeds (2k-1)f|E(H)| = %d",
						trial, k, f, len(pairs), maxSize)
				}
				ok, witness, err := verify.CheckBlockingSet(h, pairs, 2*k)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Errorf("trial %d k=%d f=%d: certificates do not form a %d-blocking set; uncovered cycle %v",
						trial, k, f, 2*k, witness)
				}
			}
		}
	}
}

// TestLemma6Weighted: the same audit on weighted inputs (Algorithm 4).
func TestLemma6BlockingSetWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	base, err := gen.GNP(rng, 16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.UniformWeights(rng, base, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	h, certs, _, err := certifiedBuild(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []verify.BlockingPair
	for _, c := range certs {
		for _, x := range c.Cut {
			pairs = append(pairs, verify.BlockingPair{V: x, EdgeID: c.HEdgeID})
		}
	}
	ok, witness, err := verify.CheckBlockingSet(h, pairs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("weighted certificates miss cycle %v", witness)
	}
}

func TestCertificatesValidation(t *testing.T) {
	if _, _, _, err := certifiedBuild(nil, 2, 1); err == nil {
		t.Error("nil graph accepted")
	}
	if _, _, _, err := certifiedBuild(gen.Complete(4), 0, 1); err == nil {
		t.Error("k = 0 accepted")
	}
}
