package sp

import (
	"math"
	"math/rand"
	"testing"

	"ftspanner/internal/graph"
)

// Weights in these tests are dyadic rationals (k/16), so path-weight sums
// are exact in float64 regardless of association order. That lets the
// equivalence checks demand strict == between search variants that add the
// same weights in different orders.
func dyadicWeight(rng *rand.Rand, allowZero bool) float64 {
	k := rng.Intn(64)
	if k == 0 && !allowZero {
		k = 16
	}
	return float64(k) / 16
}

type variantClass struct {
	name  string
	build func(seed int64) *graph.Graph
}

func variantClasses() []variantClass {
	return []variantClass{
		{"gnp-weighted", func(seed int64) *graph.Graph {
			rng := rand.New(rand.NewSource(seed))
			n := 40 + rng.Intn(30)
			g := graph.NewWeighted(n)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rng.Float64() < 3.0/float64(n) {
						g.MustAddEdgeW(u, v, dyadicWeight(rng, false))
					}
				}
			}
			return g
		}},
		{"gnp-unweighted", func(seed int64) *graph.Graph {
			rng := rand.New(rand.NewSource(seed))
			n := 40 + rng.Intn(30)
			g := graph.New(n)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rng.Float64() < 3.0/float64(n) {
						g.MustAddEdge(u, v)
					}
				}
			}
			return g
		}},
		{"zero-weights-freelist", func(seed int64) *graph.Graph {
			rng := rand.New(rand.NewSource(seed))
			n := 30 + rng.Intn(20)
			g := graph.NewWeighted(n)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rng.Float64() < 4.0/float64(n) {
						g.MustAddEdgeW(u, v, dyadicWeight(rng, true))
					}
				}
			}
			ids := g.EdgeIDs()
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			for _, id := range ids[:len(ids)/4] {
				if err := g.RemoveEdge(id); err != nil {
					panic(err)
				}
			}
			return g
		}},
		{"grid-weighted", func(seed int64) *graph.Graph {
			rng := rand.New(rand.NewSource(seed))
			rows, cols := 7, 9
			g := graph.NewWeighted(rows * cols)
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					u := r*cols + c
					if c+1 < cols {
						g.MustAddEdgeW(u, u+1, dyadicWeight(rng, false))
					}
					if r+1 < rows {
						g.MustAddEdgeW(u, u+cols, dyadicWeight(rng, false))
					}
				}
			}
			return g
		}},
	}
}

// randomFaults blocks a small random fault set on s and mirrors it in a
// Blocked mask for the package-level reference implementation.
func randomFaults(rng *rand.Rand, g *graph.Graph, s *Searcher) Blocked {
	s.ResetBlocked()
	mask := Blocked{V: make([]bool, g.N()), E: make([]bool, g.EdgeIDLimit())}
	for i := rng.Intn(3); i > 0; i-- {
		f := rng.Intn(g.N())
		s.BlockVertex(f)
		mask.V[f] = true
	}
	if g.EdgeIDLimit() > 0 {
		for i := rng.Intn(4); i > 0; i-- {
			id := rng.Intn(g.EdgeIDLimit())
			if !g.EdgeAlive(id) {
				continue
			}
			s.BlockEdge(id)
			mask.E[id] = true
		}
	}
	return mask
}

// checkVariantPath validates a path claimed to realize dist under the mask.
func checkVariantPath(t *testing.T, g graph.View, mask Blocked, u, v int, dist float64, pv, pe []int) {
	t.Helper()
	if len(pv) == 0 || pv[0] != u || pv[len(pv)-1] != v {
		t.Fatalf("path %v does not run %d..%d", pv, u, v)
	}
	if len(pe) != len(pv)-1 {
		t.Fatalf("path %v has %d edges, want %d", pv, len(pe), len(pv)-1)
	}
	var sum float64
	for i, id := range pe {
		e := g.Edge(id)
		if !g.EdgeAlive(id) {
			t.Fatalf("path edge %d is dead", id)
		}
		if mask.Edge(id) {
			t.Fatalf("path uses blocked edge %d", id)
		}
		a, b := pv[i], pv[i+1]
		if !(e.U == a && e.V == b) && !(e.U == b && e.V == a) {
			t.Fatalf("path edge %d = %v does not connect %d-%d", id, e, a, b)
		}
		if !g.Weighted() {
			sum++
		} else {
			sum += e.W
		}
	}
	for _, x := range pv {
		if mask.Vertex(x) {
			t.Fatalf("path visits blocked vertex %d", x)
		}
	}
	if sum != dist {
		t.Fatalf("path weighs %v, claimed dist %v", sum, dist)
	}
}

// TestSearchVariantEquivalence runs 500 random (u, v, faults) triples per
// graph class and demands that the bounded-radius variants agree exactly
// with the reference full search, on both the slice-backed graph and its
// CSR snapshot. Radius cases include the target exactly at the
// bound, just inside it, and unreachable pairs.
func TestSearchVariantEquivalence(t *testing.T) {
	for _, class := range variantClasses() {
		t.Run(class.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(911))
			g := class.build(202)
			csr := graph.BuildCSR(g)
			views := []struct {
				name string
				v    graph.View
			}{{"slice", g}, {"csr", csr}}
			s := NewSearcher(g.N(), g.EdgeIDLimit())
			for trial := 0; trial < 500; trial++ {
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				mask := randomFaults(rng, g, s)
				// Reference: the independent package-level implementation on
				// the slice representation.
				want := Dist(g, u, v, mask)
				if !g.Weighted() {
					if hd := HopDist(g, u, v, mask); hd == Unreachable {
						want = Inf
					} else {
						want = float64(hd)
					}
				}
				for _, view := range views {
					if got := s.Dist(view.v, u, v); got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
						t.Fatalf("trial %d %s: Dist(%d,%d) = %v, want %v", trial, view.name, u, v, got, want)
					}
					// Bounded: far beyond, exactly at, just inside, and a
					// random radius.
					if got := s.DistWithin(view.v, u, v, math.Inf(1)); got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
						t.Fatalf("trial %d %s: DistWithin(+Inf) = %v, want %v", trial, view.name, got, want)
					}
					if !math.IsInf(want, 1) {
						if got := s.DistWithin(view.v, u, v, want); got != want {
							t.Fatalf("trial %d %s: DistWithin(target exactly at bound %v) = %v", trial, view.name, want, got)
						}
						gotD, pv, pe := s.DistPathWithin(view.v, u, v, want)
						if gotD != want {
							t.Fatalf("trial %d %s: DistPathWithin(%v) = %v", trial, view.name, want, gotD)
						}
						checkVariantPath(t, view.v, mask, u, v, gotD, pv, pe)
						if want > 0 {
							if got := s.DistWithin(view.v, u, v, want-1.0/32); !math.IsInf(got, 1) {
								t.Fatalf("trial %d %s: DistWithin(just under %v) = %v, want +Inf", trial, view.name, want, got)
							}
						}
					}
					r := float64(rng.Intn(200)) / 16
					got := s.DistWithin(view.v, u, v, r)
					if want <= r {
						if got != want {
							t.Fatalf("trial %d %s: DistWithin(%v) = %v, want %v", trial, view.name, r, got, want)
						}
					} else if !math.IsInf(got, 1) {
						t.Fatalf("trial %d %s: DistWithin(%v) = %v, want +Inf (true dist %v)", trial, view.name, r, got, want)
					}
				}
			}
		})
	}
}

// TestVariantEdgeCases pins the corner semantics shared by all variants.
func TestVariantEdgeCases(t *testing.T) {
	g := graph.NewWeighted(5)
	g.MustAddEdgeW(0, 1, 0)
	g.MustAddEdgeW(1, 2, 0)
	g.MustAddEdgeW(2, 3, 1.5)
	// vertex 4 isolated
	s := NewSearcher(g.N(), g.EdgeIDLimit())
	for _, view := range []graph.View{g, graph.BuildCSR(g)} {
		if d := s.Dist(view, 0, 2); d != 0 {
			t.Fatalf("zero-weight chain: Dist = %v, want 0", d)
		}
		if d := s.DistWithin(view, 0, 2, 0); d != 0 {
			t.Fatalf("zero-weight chain within radius 0: %v, want 0", d)
		}
		if d, pv, pe := s.DistPathWithin(view, 0, 4, math.Inf(1)); !math.IsInf(d, 1) || pv != nil || pe != nil {
			t.Fatalf("unreachable: DistPathWithin = %v %v %v", d, pv, pe)
		}
		if d := s.DistWithin(view, 0, 3, 1.5); d != 1.5 {
			t.Fatalf("target exactly at radius: %v, want 1.5", d)
		}
		if d := s.DistWithin(view, 0, 3, 1.4375); !math.IsInf(d, 1) {
			t.Fatalf("target just past radius: %v, want +Inf", d)
		}
		if d := s.DistWithin(view, 0, 0, -1); !math.IsInf(d, 1) {
			t.Fatalf("negative radius self-query: %v, want +Inf", d)
		}
		if d := s.DistWithin(view, 0, 1, math.NaN()); !math.IsInf(d, 1) {
			t.Fatalf("NaN radius: %v, want +Inf", d)
		}
		if d, pv, _ := s.DistPathWithin(view, 3, 3, 0); d != 0 || len(pv) != 1 || pv[0] != 3 {
			t.Fatalf("self pair: %v %v", d, pv)
		}
		s.ResetBlocked()
		s.BlockVertex(0)
		if d := s.DistWithin(view, 0, 1, 4); !math.IsInf(d, 1) {
			t.Fatalf("blocked source: DistWithin = %v, want +Inf", d)
		}
		if d := s.DistWithin(view, 1, 0, 4); !math.IsInf(d, 1) {
			t.Fatalf("blocked target: DistWithin = %v, want +Inf", d)
		}
		s.ResetBlocked()
	}
}

// TestVariantAllocs pins the zero-allocation guarantee of the warm CSR
// query path for every variant.
func TestVariantAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	g := graph.NewWeighted(n)
	for u := 1; u < n; u++ {
		g.MustAddEdgeW(rng.Intn(u), u, dyadicWeight(rng, false))
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdgeW(u, v, dyadicWeight(rng, false))
		}
	}
	var csr graph.View = graph.BuildCSR(g)
	s := NewSearcher(g.N(), g.EdgeIDLimit())
	for name, fn := range map[string]func(){
		"Dist":           func() { s.Dist(csr, 1, n-2) },
		"DistWithin":     func() { s.DistWithin(csr, 1, n-2, 4) },
		"DistPathWithin": func() { s.DistPathWithin(csr, 1, n-2, 8) },
	} {
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Errorf("%s allocates %v per warm run, want 0", name, allocs)
		}
	}
}
