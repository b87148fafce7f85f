package dynamic_test

import (
	"math/rand"
	"testing"

	"ftspanner/internal/dynamic"
	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
)

// sameSpanner compares two maintained graphs edge-for-edge over the full
// edge-ID space (both live sets and the dead slots RemoveEdge leaves).
func sameSpanner(t *testing.T, label string, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() || a.EdgeIDLimit() != b.EdgeIDLimit() {
		t.Fatalf("%s: shape diverged: (%d,%d,%d) vs (%d,%d,%d)",
			label, a.N(), a.M(), a.EdgeIDLimit(), b.N(), b.M(), b.EdgeIDLimit())
	}
	for id := 0; id < a.EdgeIDLimit(); id++ {
		if a.EdgeAlive(id) != b.EdgeAlive(id) {
			t.Fatalf("%s: edge %d liveness diverged", label, id)
		}
		if a.EdgeAlive(id) && a.Edge(id) != b.Edge(id) {
			t.Fatalf("%s: edge %d diverged: %+v vs %+v", label, id, a.Edge(id), b.Edge(id))
		}
	}
}

// TestDynamicBuildParallelismRebuildsBatched is the layering regression
// test: a Maintainer with BuildParallelism > 1 must route its full builds —
// the initial one and every staleness-budget rebuild — through the batched
// rounds (visible as Stats.BuildRounds > 0), while maintaining state
// byte-identical to a BuildParallelism: 1 twin fed the same batches. The
// tiny staleness budget turns every witness-invalidating deletion batch
// into a forced rebuild.
func TestDynamicBuildParallelismRebuildsBatched(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, err := gen.GNPConnected(rng, 40, 0.2, 50)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dynamic.Config{K: 2, F: 1, StalenessBudget: 1e-9}

	cfg.BuildParallelism = 1
	seq, err := dynamic.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BuildParallelism = 4
	par, err := dynamic.New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if st := seq.Stats(); st.BuildParallelism != 1 || st.BuildRounds != 0 {
		t.Fatalf("sequential maintainer: want BuildParallelism=1 BuildRounds=0, got %+v", st)
	}
	if st := par.Stats(); st.BuildParallelism != 4 || st.BuildRounds == 0 {
		t.Fatalf("parallel maintainer: initial build must be batched, got %+v", st)
	}
	if got := par.Config().BuildParallelism; got != 4 {
		t.Fatalf("Config().BuildParallelism = %d, want 4", got)
	}
	sameSpanner(t, "initial", seq.Spanner(), par.Spanner())

	// Feed both maintainers identical batches: delete a few live edges
	// (including spanner edges, to break witnesses), insert fresh pairs.
	batchRng := rand.New(rand.NewSource(32))
	for round := 0; round < 4; round++ {
		var b dynamic.Batch
		ids := seq.Graph().EdgeIDs()
		for i := 0; i < 3; i++ {
			e := seq.Graph().Edge(ids[batchRng.Intn(len(ids))])
			dup := false
			for _, d := range b.Delete {
				if (d.U == e.U && d.V == e.V) || (d.U == e.V && d.V == e.U) {
					dup = true
				}
			}
			if !dup {
				b.Delete = append(b.Delete, dynamic.Update{U: e.U, V: e.V})
			}
		}
		for len(b.Insert) < 2 {
			u, v := batchRng.Intn(g.N()), batchRng.Intn(g.N())
			if u == v || seq.Graph().HasEdge(u, v) {
				continue
			}
			dup := false
			for _, ins := range b.Insert {
				if (ins.U == u && ins.V == v) || (ins.U == v && ins.V == u) {
					dup = true
				}
			}
			if !dup {
				b.Insert = append(b.Insert, dynamic.Update{U: u, V: v})
			}
		}
		if _, err := seq.ApplyBatch(b); err != nil {
			t.Fatalf("round %d: sequential: %v", round, err)
		}
		if _, err := par.ApplyBatch(b); err != nil {
			t.Fatalf("round %d: parallel: %v", round, err)
		}
		sameSpanner(t, "graph", seq.Graph(), par.Graph())
		sameSpanner(t, "spanner", seq.Spanner(), par.Spanner())
	}

	stSeq, stPar := seq.Stats(), par.Stats()
	if stPar.RebuildBatches == 0 {
		t.Fatalf("tiny staleness budget produced no rebuilds: %+v", stPar)
	}
	// Every batched full build runs at least one round.
	if stPar.BuildRounds < stPar.FullBuilds || stPar.BuildRedecided < 0 {
		t.Fatalf("batched rebuilds reported too few speculation rounds: %+v", stPar)
	}
	// The engines are byte-identical, so every effort counter must agree —
	// except the ones that describe the engine itself: the worker count and
	// the batched engine's round/conflict accounting (sequential builds have
	// no speculation rounds).
	stSeq.BuildParallelism, stPar.BuildParallelism = 0, 0
	stSeq.BuildRounds, stPar.BuildRounds = 0, 0
	stSeq.BuildRedecided, stPar.BuildRedecided = 0, 0
	if stSeq != stPar {
		t.Fatalf("maintenance trajectories diverged:\nseq %+v\npar %+v", stSeq, stPar)
	}
}
