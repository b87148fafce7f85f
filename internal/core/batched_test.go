package core

import (
	"math/rand"
	"reflect"
	"testing"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/sp"
)

// smallRounds forces the batched builder through many tiny rounds with
// adaptation active, so the pins exercise the speculate/conflict/re-decide
// machinery rather than degenerating to one round per build. Restores the
// production tuning on cleanup.
func smallRounds(t *testing.T) {
	t.Helper()
	saved := batchTuning
	batchTuning.initialRound = 24
	batchTuning.minRound = 8
	batchTuning.maxRound = 64
	t.Cleanup(func() { batchTuning = saved })
}

// batchedPinGraphs is the satellite-task matrix: GNP, geometric, lattice,
// power-law, each weighted and unweighted.
func batchedPinGraphs(t *testing.T, rng *rand.Rand) map[string]*graph.Graph {
	t.Helper()
	graphs := make(map[string]*graph.Graph)
	gnp, err := gen.GNP(rng, 60, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	graphs["gnp"] = gnp
	geoU, _, err := gen.Geometric(rng, 70, 0.25, false)
	if err != nil {
		t.Fatal(err)
	}
	graphs["geometric"] = geoU
	geoW, _, err := gen.Geometric(rng, 70, 0.25, true)
	if err != nil {
		t.Fatal(err)
	}
	graphs["geometric_w"] = geoW
	lat, err := gen.Lattice(rng, 8, 8, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	graphs["lattice"] = lat
	latW, err := gen.Lattice(rng, 8, 8, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	graphs["lattice_w"] = latW
	pl, err := gen.PowerLaw(rng, 70, 6, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	graphs["powerlaw"] = pl
	for _, name := range []string{"gnp", "powerlaw"} {
		w, err := gen.UniformWeights(rng, graphs[name], 1, 9)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name+"_w"] = w
	}
	return graphs
}

// TestModifiedGreedyBatchedIdentical is the byte-identical pin: for every
// graph class × fault mode × worker count, the batched builder must return
// exactly the sequential spanner — same edges, same IDs, same weights —
// with matching EdgesConsidered / EdgesAdded / BFSPasses. Run under -race
// this also exercises the speculation phase's data-race freedom.
func TestModifiedGreedyBatchedIdentical(t *testing.T) {
	smallRounds(t)
	rng := rand.New(rand.NewSource(108))
	k, f := 2, 1
	for name, g := range batchedPinGraphs(t, rng) {
		for _, mode := range []lbc.Mode{lbc.Vertex, lbc.Edge} {
			want, wantStats, err := modifiedGreedy(g, k, f, mode)
			if err != nil {
				t.Fatalf("%s/%v: sequential: %v", name, mode, err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				got, _, gotStats, err := Build(g, Params{K: k, F: f, Mode: mode, Searchers: sp.NewSearchers(workers, 0, 0)})
				if err != nil {
					t.Fatalf("%s/%v/w=%d: batched: %v", name, mode, workers, err)
				}
				sameGraph(t, want, got)
				if gotStats.EdgesConsidered != wantStats.EdgesConsidered ||
					gotStats.EdgesAdded != wantStats.EdgesAdded ||
					gotStats.BFSPasses != wantStats.BFSPasses {
					t.Fatalf("%s/%v/w=%d: stats diverge: got %+v want %+v",
						name, mode, workers, gotStats, wantStats)
				}
				if workers == 1 && (gotStats.Rounds != 0 || gotStats.Redecided != 0) {
					t.Fatalf("%s/%v: workers=1 must take the sequential path, got %+v",
						name, mode, gotStats)
				}
			}
		}
	}
}

// TestModifiedGreedyBatchedIdenticalOnCSR pins the batched builder at its
// production round tuning on a CSR snapshot of a weighted lattice with
// shortcuts: at every worker count it runs at least one round and returns
// the sequential spanner edge for edge.
func TestModifiedGreedyBatchedIdenticalOnCSR(t *testing.T) {
	g, err := gen.Lattice(rand.New(rand.NewSource(112)), 40, 40, 80, true)
	if err != nil {
		t.Fatal(err)
	}
	csr := graph.BuildCSR(g)
	want, _, err := modifiedGreedy(csr, 2, 1, lbc.Vertex)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		ss := sp.NewSearchers(workers, csr.N(), csr.EdgeIDLimit())
		got, _, stats, err := Build(csr, Params{K: 2, F: 1, Mode: lbc.Vertex, Searchers: ss})
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, want, got)
		if stats.Rounds < 1 {
			t.Errorf("w=%d: batched build reported %d rounds", workers, stats.Rounds)
		}
	}
}

// TestModifiedGreedyBatchedDeterministic pins that the round schedule itself
// — not just the output — is a function of the input alone: Rounds and
// Redecided must agree for every worker count > 1.
func TestModifiedGreedyBatchedDeterministic(t *testing.T) {
	smallRounds(t)
	rng := rand.New(rand.NewSource(109))
	g, err := gen.Lattice(rng, 12, 12, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	var base *Stats
	for _, workers := range []int{2, 4, 8} {
		_, _, stats, err := Build(g, Params{K: 2, F: 1, Mode: lbc.Vertex, Searchers: sp.NewSearchers(workers, 0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds < 2 {
			t.Fatalf("w=%d: want multiple rounds under small tuning, got %d", workers, stats.Rounds)
		}
		if base == nil {
			base = &stats
			continue
		}
		if stats.Rounds != base.Rounds || stats.Redecided != base.Redecided {
			t.Fatalf("w=%d: schedule diverged: got rounds=%d redecided=%d, want rounds=%d redecided=%d",
				workers, stats.Rounds, stats.Redecided, base.Rounds, base.Redecided)
		}
	}
}

// TestModifiedGreedyBatchedTracedEquivalence: the batched traced build must
// reproduce the sequential trace decision-for-decision — IDs, certificates,
// witnesses, and pass counts — so the dynamic maintainer can seed its
// tables from either engine interchangeably.
func TestModifiedGreedyBatchedTracedEquivalence(t *testing.T) {
	smallRounds(t)
	rng := rand.New(rand.NewSource(110))
	g, err := gen.Lattice(rng, 9, 9, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []lbc.Mode{lbc.Vertex, lbc.Edge} {
		wantH, wantDecs, wantStats, err := Build(g, Params{K: 2, F: 1, Mode: mode, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			ss := sp.NewSearchers(workers, g.N(), g.EdgeIDLimit())
			gotH, gotDecs, gotStats, err := Build(g, Params{K: 2, F: 1, Mode: mode, Searchers: ss, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			sameGraph(t, wantH, gotH)
			if !reflect.DeepEqual(wantDecs, gotDecs) {
				t.Fatalf("%v/w=%d: decision traces differ", mode, workers)
			}
			if gotStats.BFSPasses != wantStats.BFSPasses {
				t.Fatalf("%v/w=%d: BFSPasses %d, want %d", mode, workers, gotStats.BFSPasses, wantStats.BFSPasses)
			}
		}
	}
}

// TestModifiedGreedyBatchedRoundReuse pins that the round machinery reuses
// the per-worker searchers and arenas instead of reallocating per round: a
// build forced through ~40 rounds may not allocate meaningfully more than
// the same build in a single round (the only sizable difference is the spec
// slice, which FAVORS the many-round config).
func TestModifiedGreedyBatchedRoundReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	g, err := gen.GNP(rng, 120, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{K: 2, F: 1, Mode: lbc.Vertex, Searchers: sp.NewSearchers(4, g.N(), g.EdgeIDLimit())}
	saved := batchTuning
	t.Cleanup(func() { batchTuning = saved })
	measure := func(initial, minR, maxR int) float64 {
		batchTuning.initialRound = initial
		batchTuning.minRound = minR
		batchTuning.maxRound = maxR
		build := func() {
			if _, _, _, err := Build(g, p); err != nil {
				t.Fatal(err)
			}
		}
		build() // warm the set and the expanded-log buffers
		return testing.AllocsPerRun(3, build)
	}
	one := measure(1<<20, 1<<20, 1<<20)
	many := measure(16, 16, 16)
	// Per-build fixed cost (builder, channels, goroutines, spanner) is paid
	// by both configs; ~40 extra rounds may only add barrier-level noise.
	if many > one+32 {
		t.Fatalf("many-round build allocates %.0f/op vs single-round %.0f/op: rounds are reallocating", many, one)
	}
}
