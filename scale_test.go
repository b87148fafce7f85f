package ftspanner_test

import (
	"math"
	"math/rand"
	"testing"

	"ftspanner/internal/dynamic"
	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/oracle"
	"ftspanner/internal/sp"
	"ftspanner/internal/verify"
)

// The TestScale* tier exercises the n = 10⁵ pipeline end to end — build,
// churn, serve, verify — at a size where accidental quadratic behavior or a
// data race under concurrent serving actually shows up. It is skipped in
// -short mode; CI runs it under -race.

const (
	scaleSide = 316 // 316² = 99 856 vertices
	scaleN    = scaleSide * scaleSide
)

func buildScaleLattice(t *testing.T) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	g, err := gen.Lattice(rng, scaleSide, scaleSide, scaleN/20, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// scaleLocalPair returns a pair at grid offset at most 5 in each axis, so
// the graph distance is at most 20 and the stretch-3 spanner distance at
// most 60 — within the MaxDistance cap the serving loop uses.
func scaleLocalPair(rng *rand.Rand) (int, int) {
	row, col := rng.Intn(scaleSide-5), rng.Intn(scaleSide-5)
	return row*scaleSide + col, (row+rng.Intn(6))*scaleSide + col + rng.Intn(6)
}

// TestScaleChurnAndServe builds the 10⁵-vertex spanner, churns it through 4
// batches, then serves 1000 radius-capped queries and verifies every
// answer against the snapshot with CheckServedAnswer.
func TestScaleChurnAndServe(t *testing.T) {
	if testing.Short() {
		t.Skip("large-graph tier skipped in -short mode")
	}
	g := buildScaleLattice(t)
	o, err := oracle.New(g, oracle.Config{K: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(43))
	for batch := 0; batch < 4; batch++ {
		var b dynamic.Batch
		for len(b.Insert) < 8 {
			u, v := rng.Intn(scaleN), rng.Intn(scaleN)
			if u != v && !g.HasEdge(u, v) {
				b.Insert = append(b.Insert, dynamic.Update{U: u, V: v, W: 1 + rng.Float64()})
			}
		}
		ids := g.EdgeIDs()
		for i := 0; i < 8; i++ {
			e := g.Edge(ids[rng.Intn(len(ids))])
			b.Delete = append(b.Delete, dynamic.Update{U: e.U, V: e.V})
		}
		if err := o.Apply(b); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		g, _, _ = o.Snapshot()
	}
	if got := o.Epoch(); got != 5 {
		t.Fatalf("epoch %d after 4 batches, want 5", got)
	}

	_, snapH, _ := o.Snapshot()
	checker := sp.NewSearcher(snapH.N(), snapH.EdgeIDLimit())
	served, reachable := 0, 0
	for served < 1000 {
		u, v := scaleLocalPair(rng)
		var faults []int
		if served%3 == 0 {
			faults = []int{rng.Intn(scaleN)}
		}
		res, err := o.Query(u, v, oracle.QueryOptions{FaultVertices: faults, MaxDistance: 60})
		if err != nil {
			t.Fatal(err)
		}
		served++
		if math.IsInf(res.Distance, 1) {
			continue // beyond the cap (or disconnected by the fault)
		}
		reachable++
		if err := verifyServed(checker, snapH, u, v, faults, res); err != nil {
			t.Fatalf("query %d d(%d,%d) faults %v: %v", served, u, v, faults, err)
		}
	}
	if reachable < 800 {
		t.Fatalf("only %d/1000 capped queries reachable; local-pair workload broken", reachable)
	}
}

// verifyServed is CheckServedAnswer with a reused searcher: allocating a
// fresh n=10⁵ searcher per answer would dominate the tier's runtime.
func verifyServed(s *sp.Searcher, h graph.View, u, v int, faults []int, res oracle.QueryResult) error {
	s.ResetBlocked()
	for _, f := range faults {
		s.BlockVertex(f)
	}
	want := s.Dist(h, u, v)
	s.ResetBlocked()
	if want != res.Distance {
		// Full CheckServedAnswer allocates its own searcher but reports
		// precise discrepancies; only pay for it on the failure path — or
		// when spot-checking below.
		return verify.CheckServedAnswer(h, servedAnswer(u, v, faults, res))
	}
	// Distances agree; run the path checks through the real verifier on a
	// 1-in-50 sample (it allocates, so not on every answer).
	if (u+v)%50 == 0 {
		return verify.CheckServedAnswer(h, servedAnswer(u, v, faults, res))
	}
	return nil
}

func servedAnswer(u, v int, faults []int, res oracle.QueryResult) verify.ServedAnswer {
	return verify.ServedAnswer{
		U: u, V: v, Dist: res.Distance, Path: res.Path, FaultVertices: faults,
	}
}

// TestScaleWarmQueryAllocs pins the warm CSR query path at zero
// allocations per operation at n = 10⁵: the serving hot path must not
// regress into per-query garbage at exactly the size where GC pressure
// would hurt.
func TestScaleWarmQueryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("large-graph tier skipped in -short mode")
	}
	g := buildScaleLattice(t)
	csr := graph.BuildCSR(g)
	s := sp.NewSearcher(csr.N(), csr.EdgeIDLimit())
	rng := rand.New(rand.NewSource(44))
	u, v := scaleLocalPair(rng)
	s.DistWithin(csr, u, v, 60) // warm the scratch
	if allocs := testing.AllocsPerRun(10, func() { s.DistWithin(csr, u, v, 60) }); allocs > 0 {
		t.Errorf("DistWithin: %v allocs/op on the warm CSR path, want 0", allocs)
	}
}
