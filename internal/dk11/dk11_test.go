package dk11

import (
	"errors"
	"math/rand"
	"testing"

	"ftspanner/internal/core"
	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/spanner"
	"ftspanner/internal/verify"
)

func greedyBase(k int) BaseAlg {
	return func(_ *rand.Rand, g *graph.Graph) (*graph.Graph, error) {
		return spanner.Greedy(g, k)
	}
}

func bsBase(k int) BaseAlg {
	return func(rng *rand.Rand, g *graph.Graph) (*graph.Graph, error) {
		return spanner.BaswanaSen(rng, g, k)
	}
}

func TestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := gen.Complete(5)
	if _, err := Construct(rng, nil, 1, 1, greedyBase(2)); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Construct(rng, g, 0, 1, greedyBase(2)); err == nil {
		t.Error("f = 0 accepted")
	}
	if _, err := Construct(rng, g, 1, 0, greedyBase(2)); err == nil {
		t.Error("0 iterations accepted")
	}
	if _, err := Construct(rng, g, 1, 1, nil); err == nil {
		t.Error("nil base accepted")
	}
}

func TestBaseErrorPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	wantErr := errors.New("boom")
	bad := func(*rand.Rand, *graph.Graph) (*graph.Graph, error) { return nil, wantErr }
	if _, err := Construct(rng, gen.Complete(5), 1, 2, bad); !errors.Is(err, wantErr) {
		t.Errorf("base error not propagated: %v", err)
	}
	wrongN := func(*rand.Rand, *graph.Graph) (*graph.Graph, error) { return graph.New(1), nil }
	if _, err := Construct(rng, gen.Complete(5), 1, 1, wrongN); err == nil {
		t.Error("base changing vertex count accepted")
	}
}

func TestDefaultIterations(t *testing.T) {
	if got := DefaultIterations(512, 2); got < 8 {
		t.Errorf("DefaultIterations(512,2) = %d, want >= f^3 = 8", got)
	}
	// Degenerate inputs are clamped, not rejected.
	if got := DefaultIterations(1, 0); got < 1 {
		t.Errorf("DefaultIterations(1,0) = %d, want >= 1", got)
	}
	if a, b := DefaultIterations(100, 2), DefaultIterations(100, 4); b <= a {
		t.Errorf("iterations not increasing in f: %d vs %d", a, b)
	}
}

// TestParticipationProb: the paper's 1/f for f >= 2; the f = 1 degeneracy
// (p = 1 would never exclude the faulty vertex) is replaced by 2/3.
func TestParticipationProb(t *testing.T) {
	if got := ParticipationProb(1); got != 2.0/3.0 {
		t.Errorf("ParticipationProb(1) = %v, want 2/3", got)
	}
	if got := ParticipationProb(2); got != 0.5 {
		t.Errorf("ParticipationProb(2) = %v, want 1/2", got)
	}
	if got := ParticipationProb(8); got != 0.125 {
		t.Errorf("ParticipationProb(8) = %v, want 1/8", got)
	}
}

// TestF1FaultTolerance: the f = 1 fix actually delivers fault tolerance —
// the exact degeneracy the paper's stated probability would miss.
func TestF1FaultTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	g, err := gen.GNP(rng, 14, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Construct(rng, g, 1, 4*DefaultIterations(g.N(), 1), greedyBase(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Exhaustive(g, h, 3, 1, lbc.Vertex)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("DK11 f=1 output not 1-VFT: %v", rep.Violation)
	}
}

// TestFaultTolerance: the Theorem 13 guarantee, exhaustively verified on a
// small instance with boosted iterations (whp guarantee; the seed is fixed).
func TestFaultTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	g, err := gen.GNP(rng, 16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	iters := 4 * DefaultIterations(g.N(), 2)
	h, err := Construct(rng, g, 2, iters, greedyBase(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Exhaustive(g, h, 3, 2, lbc.Vertex)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("DK11 output not 2-VFT with boosted iterations: %v", rep.Violation)
	}
}

// TestFaultToleranceWithBaswanaSen: the exact composition used by the
// paper's CONGEST algorithm (Theorem 15), centralized.
func TestFaultToleranceWithBaswanaSen(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	g, err := gen.GNP(rng, 16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	iters := 4 * DefaultIterations(g.N(), 2)
	h, err := Construct(rng, g, 2, iters, bsBase(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Exhaustive(g, h, 3, 2, lbc.Vertex)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("DK11+BaswanaSen not 2-VFT: %v", rep.Violation)
	}
}

// TestModifiedGreedySparserThanDK11 pins the Theorem 13 vs Theorem 2 size
// comparison on one seeded G(96, 0.25) at k = 2: per f, the modified greedy
// and DK11 (canonical iterations over the classic greedy) sizes, with the
// modified greedy strictly sparser at every f.
func TestModifiedGreedySparserThanDK11(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	g, err := gen.GNP(rng, 96, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// A slice, not a map: the DK11 runs share rng, so the order is part of
	// the instance.
	for _, want := range []struct{ f, greedy, dk11 int }{
		{1, 367, 1044},
		{2, 453, 1029},
		{4, 597, 1102},
	} {
		h, _, _, err := core.Build(g, core.Params{K: 2, F: want.f, Mode: lbc.Vertex})
		if err != nil {
			t.Fatal(err)
		}
		dk, err := Construct(rng, g, want.f, DefaultIterations(g.N(), want.f), greedyBase(2))
		if err != nil {
			t.Fatal(err)
		}
		if h.M() != want.greedy || dk.M() != want.dk11 {
			t.Errorf("f=%d: |greedy| = %d, |dk11| = %d, want %d, %d", want.f, h.M(), dk.M(), want.greedy, want.dk11)
		}
		if h.M() >= dk.M() {
			t.Errorf("f=%d: modified greedy %d edges, DK11 %d: greedy not sparser", want.f, h.M(), dk.M())
		}
	}
}

// TestWeighted: the reduction preserves weights through induced subgraphs.
func TestWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	base, err := gen.GNP(rng, 14, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.UniformWeights(rng, base, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Construct(rng, g, 2, 4*DefaultIterations(g.N(), 2), greedyBase(2))
	if err != nil {
		t.Fatal(err)
	}
	if !h.IsSubgraphOf(g) {
		t.Fatal("DK11 output not a subgraph (weights must match)")
	}
	rep, err := verify.Exhaustive(g, h, 3, 2, lbc.Vertex)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("weighted DK11 not 2-VFT: %v", rep.Violation)
	}
}
