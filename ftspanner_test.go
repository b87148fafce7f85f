package ftspanner

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestEndToEndUnweighted is the full public-API pipeline: generate, build,
// verify, round-trip through the text format.
func TestEndToEndUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := RandomConnectedGraph(rng, 40, 0.25, 50)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 2, F: 1}
	h, stats, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EdgesAdded != h.M() || stats.EdgesConsidered != g.M() {
		t.Errorf("stats inconsistent: %+v", stats)
	}
	rep, err := Verify(g, h, float64(opts.Stretch()), 1, VertexFaults)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("spanner invalid: %v", rep.Violation)
	}

	var buf bytes.Buffer
	if err := WriteGraph(&buf, h); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.IsSubgraphOf(h) || !h.IsSubgraphOf(back) {
		t.Error("text round trip changed the spanner")
	}
}

func TestEndToEndWeightedEdgeFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, _, err := GeometricGraph(rng, 30, 0.35, true)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := Build(g, Options{K: 2, F: 1, Mode: EdgeFaults})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(g, h, 3, 1, EdgeFaults)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("weighted EFT spanner invalid: %v", rep.Violation)
	}
}

func TestDefaultModeIsVertexFaults(t *testing.T) {
	g := CompleteGraph(8)
	h1, _, err := Build(g, Options{K: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := Build(g, Options{K: 2, F: 1, Mode: VertexFaults})
	if err != nil {
		t.Fatal(err)
	}
	if !h1.IsSubgraphOf(h2) || !h2.IsSubgraphOf(h1) {
		t.Error("zero-value mode differs from explicit VertexFaults")
	}
}

// TestZeroModeNormalizedEverywhere is the regression test for the API
// inconsistency where the zero FaultMode was accepted by Build (treated as
// VertexFaults) but rejected with "invalid fault mode" when passed directly
// to Verify, VerifySampled, or MaxStretch. Every top-level entry point must
// normalize the zero value the same way.
func TestZeroModeNormalizedEverywhere(t *testing.T) {
	g := CompleteGraph(8)
	h, _, err := Build(g, Options{K: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	var zero FaultMode // the documented "zero value means VertexFaults"

	rep, err := Verify(g, h, 3, 1, zero)
	if err != nil {
		t.Fatalf("Verify rejected the zero FaultMode: %v", err)
	}
	want, err := Verify(g, h, 3, 1, VertexFaults)
	if err != nil || rep.OK != want.OK || rep.FaultSetsChecked != want.FaultSetsChecked {
		t.Errorf("Verify zero-mode report %+v differs from VertexFaults %+v (err %v)", rep, want, err)
	}

	if _, err := VerifyParallel(g, h, 3, 1, zero, 2); err != nil {
		t.Errorf("VerifyParallel rejected the zero FaultMode: %v", err)
	}
	if _, err := VerifySampled(g, h, 3, 1, zero, rand.New(rand.NewSource(1)), 5); err != nil {
		t.Errorf("VerifySampled rejected the zero FaultMode: %v", err)
	}
	if _, err := VerifySampledParallel(g, h, 3, 1, zero, rand.New(rand.NewSource(1)), 5, 2); err != nil {
		t.Errorf("VerifySampledParallel rejected the zero FaultMode: %v", err)
	}

	got, err := MaxStretch(g, h, []int{0}, zero)
	if err != nil {
		t.Fatalf("MaxStretch rejected the zero FaultMode: %v", err)
	}
	wantStretch, err := MaxStretch(g, h, []int{0}, VertexFaults)
	if err != nil || got != wantStretch {
		t.Errorf("MaxStretch zero-mode = %v, VertexFaults = %v (err %v)", got, wantStretch, err)
	}
}

// TestBuildWithSearcherReuse: the public reuse pattern — one Searcher
// across many Build calls — must produce the same spanners as Build.
func TestBuildWithSearcherReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewSearcher(0, 0)
	for trial := 0; trial < 3; trial++ {
		g, err := RandomGraph(rng, 24, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := Build(g, Options{K: 2, F: 1})
		if err != nil {
			t.Fatal(err)
		}
		// BuildWith is the sequential loop on s whatever BuildParallelism
		// says: the same spanner as Build, and no speculation rounds.
		got, stats, err := BuildWith(s, g, Options{K: 2, F: 1, BuildParallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !got.IsSubgraphOf(want) || !want.IsSubgraphOf(got) {
			t.Fatalf("trial %d: BuildWith differs from Build", trial)
		}
		if stats.Rounds != 0 {
			t.Fatalf("trial %d: BuildWith ran %d batched rounds, want the sequential loop", trial, stats.Rounds)
		}
	}
}

// TestParallelismKnobEquivalence: BuildExact output is identical for every
// Options.Parallelism value.
func TestParallelismKnobEquivalence(t *testing.T) {
	g := CompleteGraph(9)
	want, _, err := BuildExact(g, Options{K: 2, F: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2, 4} {
		got, _, err := BuildExact(g, Options{K: 2, F: 1, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if !got.IsSubgraphOf(want) || !want.IsSubgraphOf(got) {
			t.Errorf("Parallelism=%d: spanner differs from sequential", p)
		}
	}
}

// TestBuildParallelismKnobEquivalence: Build routes through the batched
// engine when BuildParallelism resolves past one worker, and the spanner
// and stats it returns are byte-identical to the sequential build.
func TestBuildParallelismKnobEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := RandomConnectedGraph(rng, 48, 0.2, 50)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := Build(g, Options{K: 2, F: 1, BuildParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2, 4} {
		got, stats, err := Build(g, Options{K: 2, F: 1, BuildParallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if !got.IsSubgraphOf(want) || !want.IsSubgraphOf(got) {
			t.Errorf("BuildParallelism=%d: spanner differs from sequential", p)
		}
		if stats.EdgesAdded != wantStats.EdgesAdded ||
			stats.EdgesConsidered != wantStats.EdgesConsidered ||
			stats.BFSPasses != wantStats.BFSPasses {
			t.Errorf("BuildParallelism=%d: stats diverged: %+v vs %+v", p, stats, wantStats)
		}
	}
}

func TestBuildExactSmall(t *testing.T) {
	g := CompleteGraph(10)
	exact, _, err := BuildExact(g, Options{K: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	approx, _, err := Build(g, Options{K: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	if exact.M() > approx.M() {
		t.Logf("note: exact %d > approx %d edges on K10 (possible; bound is aggregate)", exact.M(), approx.M())
	}
	rep, err := Verify(g, exact, 3, 1, VertexFaults)
	if err != nil || !rep.OK {
		t.Fatalf("exact spanner invalid: %v %v", rep.Violation, err)
	}
}

func TestBaselinesPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := CompleteGraph(24)
	greedy, err := GreedySpanner(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := BaswanaSenSpanner(rng, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := DK11Spanner(rng, g, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*Graph{"greedy": greedy, "baswana-sen": bs, "dk11": dk} {
		if !h.IsSubgraphOf(g) {
			t.Errorf("%s: not a subgraph", name)
		}
		rep, err := Verify(g, h, 3, 0, VertexFaults)
		if err != nil || !rep.OK {
			t.Errorf("%s: not a 3-spanner: %v %v", name, rep.Violation, err)
		}
	}
}

func TestDistributedPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := RandomConnectedGraph(rng, 20, 0.4, 50)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := BuildLOCAL(g, Options{K: 2, F: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(g, lres.Spanner, 3, 1, VertexFaults)
	if err != nil || !rep.OK {
		t.Errorf("LOCAL spanner invalid: %v %v", rep.Violation, err)
	}
	if lres.Rounds <= 0 {
		t.Error("LOCAL rounds not reported")
	}

	h, dres, err := BuildCONGEST(g, Options{K: 2, F: 1}, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(g, h, 3, 1, VertexFaults)
	if err != nil || !rep.OK {
		t.Errorf("CONGEST spanner invalid: %v %v", rep.Violation, err)
	}
	if dres.ChargedRounds < dres.LogicalRounds {
		t.Error("CONGEST accounting inconsistent")
	}

	if _, err := BuildLOCAL(g, Options{K: 2, F: 1, Mode: EdgeFaults}, 1); err == nil {
		t.Error("LOCAL with edge faults accepted")
	}
	if _, _, err := BuildCONGEST(g, Options{K: 2, F: 1, Mode: EdgeFaults}, 1, 1); err == nil {
		t.Error("CONGEST with edge faults accepted")
	}

	bsH, bsRes, err := BaswanaSenCONGEST(g, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(g, bsH, 3, 0, VertexFaults)
	if err != nil || !rep.OK {
		t.Errorf("CONGEST Baswana-Sen invalid: %v %v", rep.Violation, err)
	}
	if bsRes.ChargedRounds != bsRes.LogicalRounds {
		t.Error("Baswana-Sen exceeded CONGEST bandwidth")
	}
}

func TestMaxStretchPublic(t *testing.T) {
	g := CompleteGraph(10)
	h, _, err := Build(g, Options{K: 2, F: 2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := MaxStretch(g, h, []int{0, 1}, VertexFaults)
	if err != nil {
		t.Fatal(err)
	}
	if s > 3 {
		t.Errorf("stretch %v exceeds guarantee 3 under 2 faults", s)
	}
}

// TestPropertyRandomGraphsAlwaysValid is the testing/quick property test at
// the heart of the library: for random (seed, shape) draws, Build's output
// always verifies as an f-fault-tolerant (2k-1)-spanner under sampled fault
// sets, in all four (weighted) × (mode) combinations.
func TestPropertyRandomGraphsAlwaysValid(t *testing.T) {
	property := func(seed int64, nRaw, kRaw, fRaw uint8, weighted, edgeMode bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + int(nRaw%25) // 8..32
		k := 2 + int(kRaw%2)  // 2..3
		f := 1 + int(fRaw%2)  // 1..2
		g, err := RandomGraph(rng, n, 0.35)
		if err != nil {
			return false
		}
		if weighted {
			if g, err = UniformWeights(rng, g, 1, 9); err != nil {
				return false
			}
		}
		mode := VertexFaults
		if edgeMode {
			mode = EdgeFaults
		}
		h, _, err := Build(g, Options{K: k, F: f, Mode: mode})
		if err != nil {
			return false
		}
		rep, err := VerifySampled(g, h, float64(2*k-1), f, mode, rng, 30)
		if err != nil {
			return false
		}
		if !rep.OK {
			t.Logf("violation: n=%d k=%d f=%d weighted=%v mode=%v: %v",
				n, k, f, weighted, mode, rep.Violation)
		}
		return rep.OK
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertySpannerNeverLargerThanInput: trivial but fundamental: Build
// output is always a subgraph with no more edges, and contains every bridge
// edge (tree edges must survive any spanner construction).
func TestPropertySpannerSubgraph(t *testing.T) {
	property := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + int(nRaw%40)
		g, err := RandomGraph(rng, n, 0.2)
		if err != nil {
			return false
		}
		h, _, err := Build(g, Options{K: 2, F: 1})
		if err != nil {
			return false
		}
		return h.IsSubgraphOf(g) && h.M() <= g.M()
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
