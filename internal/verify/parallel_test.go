package verify

import (
	"math/rand"
	"reflect"
	"testing"

	"ftspanner/internal/core"
	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
)

// badSpanner returns a (g, h) pair where h is provably NOT a 1-fault-
// tolerant 3-spanner: a 6-cycle's spanner missing one edge disconnects the
// endpoints once any other vertex on the remaining path fails.
func badSpanner(t *testing.T) (*graph.Graph, *graph.Graph) {
	t.Helper()
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	h := g.EmptyLike()
	for id := 1; id < g.M(); id++ {
		e := g.Edge(id)
		h.MustAddEdgeW(e.U, e.V, e.W)
	}
	return g, h
}

// TestExhaustiveParallelEquivalence: on valid spanners the parallel report
// must be bit-identical to the sequential one (same OK and identical
// counters — every fault set is fully checked exactly once either way).
func TestExhaustiveParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 4; trial++ {
		g, err := gen.GNP(rng, 16, 0.35)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []lbc.Mode{lbc.Vertex, lbc.Edge} {
			h, _, _, err := core.Build(g, core.Params{K: 2, F: 2, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Exhaustive(g, h, 3, 2, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !want.OK {
				t.Fatalf("trial %d %v: spanner unexpectedly invalid: %v", trial, mode, want.Violation)
			}
			for _, workers := range []int{2, 5} {
				got, err := ExhaustiveParallel(g, h, 3, 2, mode, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %v workers=%d: report %+v, want %+v", trial, mode, workers, got, want)
				}
			}
		}
	}
}

// TestExhaustiveParallelFirstViolation: on an invalid spanner every worker
// count must report the exact violation the sequential scan finds first —
// the deterministic-merge guarantee.
func TestExhaustiveParallelFirstViolation(t *testing.T) {
	g, h := badSpanner(t)
	for _, mode := range []lbc.Mode{lbc.Vertex, lbc.Edge} {
		want, err := Exhaustive(g, h, 3, 1, mode)
		if err != nil {
			t.Fatal(err)
		}
		if want.OK {
			t.Fatalf("%v: bad spanner passed sequential verification", mode)
		}
		for _, workers := range []int{2, 4, 9} {
			got, err := ExhaustiveParallel(g, h, 3, 1, mode, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got.OK {
				t.Fatalf("%v workers=%d: bad spanner passed", mode, workers)
			}
			if !reflect.DeepEqual(got.Violation, want.Violation) {
				t.Fatalf("%v workers=%d: violation %+v, want %+v", mode, workers, got.Violation, want.Violation)
			}
		}
	}
}

// TestSampledParallelEquivalence: the i-th trial set is drawn identically
// for every worker count, so OK runs match bit-for-bit and violating runs
// agree on the first violation.
func TestSampledParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g, err := gen.GNP(rng, 40, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	h, _, _, err := core.Build(g, core.Params{K: 2, F: 2, Mode: lbc.Vertex})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 25
	want, err := Sampled(g, h, 3, 2, lbc.Vertex, rand.New(rand.NewSource(7)), trials)
	if err != nil {
		t.Fatal(err)
	}
	if !want.OK {
		t.Fatalf("spanner unexpectedly invalid: %v", want.Violation)
	}
	for _, workers := range []int{2, 4} {
		got, err := SampledParallel(g, h, 3, 2, lbc.Vertex, rand.New(rand.NewSource(7)), trials, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: report %+v, want %+v", workers, got, want)
		}
	}

	// Violating case: same first violation for every worker count.
	gBad, hBad := badSpanner(t)
	wantBad, err := Sampled(gBad, hBad, 3, 1, lbc.Vertex, rand.New(rand.NewSource(8)), trials)
	if err != nil {
		t.Fatal(err)
	}
	if wantBad.OK {
		t.Fatal("bad spanner passed sampled verification")
	}
	for _, workers := range []int{2, 4} {
		got, err := SampledParallel(gBad, hBad, 3, 1, lbc.Vertex, rand.New(rand.NewSource(8)), trials, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.OK || !reflect.DeepEqual(got.Violation, wantBad.Violation) {
			t.Fatalf("workers=%d: violation %+v, want %+v", workers, got.Violation, wantBad.Violation)
		}
	}
}

// BenchmarkExhaustiveP1 / P4 measure the parallel verification speedup;
// TestExhaustiveParallelEquivalence pins that both report the same result.
func benchmarkExhaustive(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(93))
	g, err := gen.GNP(rng, 28, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	h, _, _, err := core.Build(g, core.Params{K: 2, F: 2, Mode: lbc.Vertex})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := ExhaustiveParallel(g, h, 3, 2, lbc.Vertex, workers)
		if err != nil || !rep.OK {
			b.Fatalf("verification failed: %v %v", rep.Violation, err)
		}
	}
}

func BenchmarkExhaustiveP1(b *testing.B) { benchmarkExhaustive(b, 1) }
func BenchmarkExhaustiveP4(b *testing.B) { benchmarkExhaustive(b, 4) }
