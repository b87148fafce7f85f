package core

import (
	"math/rand"
	"testing"

	"ftspanner/internal/gen"
	"ftspanner/internal/lbc"
)

// TestModifiedGreedyTracedMatchesPlain pins that tracing changes nothing:
// the spanner is byte-identical to the untraced build, and the trace is
// internally consistent (every added edge carries a cut and its spanner ID,
// every skipped edge carries a non-empty witness of live spanner edges).
func TestModifiedGreedyTracedMatchesPlain(t *testing.T) {
	for _, mode := range []lbc.Mode{lbc.Vertex, lbc.Edge} {
		for _, weighted := range []bool{false, true} {
			rng := rand.New(rand.NewSource(8))
			g, err := gen.GNP(rng, 40, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if weighted {
				g, err = gen.UniformWeights(rng, g, 1, 4)
				if err != nil {
					t.Fatal(err)
				}
			}
			const k, f = 2, 2
			plain, none, pStats, err := Build(g, Params{K: k, F: f, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if none != nil {
				t.Fatalf("untraced build returned %d decisions", len(none))
			}
			traced, decisions, tStats, err := Build(g, Params{K: k, F: f, Mode: mode, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !plain.IsSubgraphOf(traced) || !traced.IsSubgraphOf(plain) {
				t.Fatalf("mode %v weighted %v: traced spanner differs from plain", mode, weighted)
			}
			if pStats.BFSPasses != tStats.BFSPasses || pStats.EdgesAdded != tStats.EdgesAdded {
				t.Errorf("stats diverged: %+v vs %+v", pStats, tStats)
			}
			if len(decisions) != g.M() {
				t.Fatalf("%d decisions for %d edges", len(decisions), g.M())
			}
			added := 0
			tMax := Stretch(k)
			for _, dec := range decisions {
				if dec.Added {
					added++
					if dec.HEdgeID < 0 || !traced.EdgeAlive(dec.HEdgeID) {
						t.Fatalf("added edge %d has bad spanner ID %d", dec.GEdgeID, dec.HEdgeID)
					}
					if dec.Witness != nil {
						t.Fatalf("added edge %d carries a witness", dec.GEdgeID)
					}
					if len(dec.Cut) > f*tMax {
						t.Fatalf("cut of size %d exceeds alpha*t = %d", len(dec.Cut), f*tMax)
					}
				} else {
					if dec.HEdgeID != -1 || dec.Cut != nil {
						t.Fatalf("skipped edge %d carries add-side fields: %+v", dec.GEdgeID, dec)
					}
					if len(dec.Witness) == 0 {
						t.Fatalf("skipped edge %d has no coverage witness", dec.GEdgeID)
					}
					for _, hid := range dec.Witness {
						if !traced.EdgeAlive(hid) {
							t.Fatalf("witness of edge %d lists dead spanner edge %d", dec.GEdgeID, hid)
						}
					}
				}
			}
			if added != traced.M() {
				t.Errorf("trace says %d added, spanner has %d", added, traced.M())
			}
		}
	}
}
