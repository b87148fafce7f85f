package sp

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
)

// randomBlocked draws a random fault mask and returns it both as a Blocked
// (for the package-level functions) and as the vertex/edge ID lists to
// install in a Searcher.
func randomBlocked(rng *rand.Rand, g *graph.Graph) (Blocked, []int, []int) {
	var vs, es []int
	vMask := make([]bool, g.N())
	eMask := make([]bool, g.M())
	for v := 0; v < g.N(); v++ {
		if rng.Float64() < 0.15 {
			vMask[v] = true
			vs = append(vs, v)
		}
	}
	for id := 0; id < g.M(); id++ {
		if rng.Float64() < 0.1 {
			eMask[id] = true
			es = append(es, id)
		}
	}
	return Blocked{V: vMask, E: eMask}, vs, es
}

func installMask(s *Searcher, vs, es []int) {
	s.ResetBlocked()
	for _, v := range vs {
		s.BlockVertex(v)
	}
	for _, e := range es {
		s.BlockEdge(e)
	}
}

// TestSearcherMatchesBFS cross-checks the Searcher's BFS distances against
// the package-level BFSBounded under random fault masks, including the
// reuse of one Searcher across many queries.
func TestSearcherMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	s := NewSearcher(0, 0) // deliberately undersized: Grow must handle it
	for trial := 0; trial < 40; trial++ {
		g, err := gen.GNP(rng, 24, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		blocked, vs, es := randomBlocked(rng, g)
		src := rng.Intn(g.N())
		maxHops := 1 + rng.Intn(5)
		want := BFSBounded(g, src, maxHops, blocked)
		installMask(s, vs, es)
		s.BFSBounded(g, src, maxHops)
		for v := 0; v < g.N(); v++ {
			if got := s.HopDistTo(v); got != want.Dist[v] {
				t.Fatalf("trial %d: dist[%d] = %d, want %d (src=%d maxHops=%d)",
					trial, v, got, want.Dist[v], src, maxHops)
			}
		}
	}
}

// TestSearcherMatchesDijkstra cross-checks weighted distances.
func TestSearcherMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	s := NewSearcher(4, 4)
	for trial := 0; trial < 40; trial++ {
		base, err := gen.GNP(rng, 20, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gen.UniformWeights(rng, base, 1, 10)
		if err != nil {
			t.Fatal(err)
		}
		blocked, vs, es := randomBlocked(rng, g)
		src := rng.Intn(g.N())
		want := Dijkstra(g, src, blocked)
		installMask(s, vs, es)
		s.Dijkstra(g, src)
		for v := 0; v < g.N(); v++ {
			if got := s.WeightTo(v); got != want.Dist[v] {
				t.Fatalf("trial %d: wdist[%d] = %v, want %v", trial, v, got, want.Dist[v])
			}
		}
		// And the point-to-point Dist agrees with the package-level one.
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		installMask(s, vs, es)
		if got, want := s.Dist(g, u, v), Dist(g, u, v, blocked); got != want {
			t.Fatalf("trial %d: Dist(%d,%d) = %v, want %v", trial, u, v, got, want)
		}
	}
}

// maskOf returns the Blocked form of the vertex and edge ID lists.
func maskOf(g graph.View, vs, es []int) Blocked {
	return Blocked{V: BlockVertices(g, vs...).V, E: BlockEdges(g, es...).E}
}

// checkPathWithin runs the Searcher's two-ended PathWithin under the mask
// (vs, es) and requires the one-sided package PathWithin's answer byte for
// byte: the same ok, the same vertices, the same edge IDs. It also checks
// that a found path is a valid u-v path within the bound avoiding the mask.
func checkPathWithin(t *testing.T, s *Searcher, g graph.View, u, v, maxHops int, vs, es []int) bool {
	t.Helper()
	blocked := maskOf(g, vs, es)
	wantV, wantE, wantOK := PathWithin(g, u, v, maxHops, blocked)
	installMask(s, vs, es)
	pv, pe, ok := s.PathWithin(g, u, v, maxHops)
	if ok != wantOK || !slices.Equal(pv, wantV) || !slices.Equal(pe, wantE) {
		t.Fatalf("u=%d v=%d maxHops=%d blockedV=%v blockedE=%v: got %v %v %v, want %v %v %v",
			u, v, maxHops, vs, es, pv, pe, ok, wantV, wantE, wantOK)
	}
	if !ok {
		return false
	}
	if pv[0] != u || pv[len(pv)-1] != v || len(pe) != len(pv)-1 || len(pe) > maxHops {
		t.Fatalf("malformed path %v / %v (u=%d v=%d maxHops=%d)", pv, pe, u, v, maxHops)
	}
	for i, id := range pe {
		e := g.Edge(id)
		if !(e.U == pv[i] && e.V == pv[i+1]) && !(e.V == pv[i] && e.U == pv[i+1]) {
			t.Fatalf("edge %d does not connect %d-%d", id, pv[i], pv[i+1])
		}
		if blocked.Edge(id) {
			t.Fatalf("path uses blocked edge %d", id)
		}
	}
	for _, x := range pv {
		if blocked.Vertex(x) {
			t.Fatalf("path visits blocked vertex %d", x)
		}
	}
	return true
}

// TestSearcherPathWithin pins the two-ended search to the one-sided BFS
// reference (package PathWithin) byte for byte — ok, vertices and edge IDs —
// on GNP, power-law and lattice graphs, every hop bound 1..7, random vertex
// and edge masks, and the corner cases the meeting logic must get right.
func TestSearcherPathWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	s := NewSearcher(8, 8) // deliberately undersized: Grow must handle it
	families := []struct {
		name string
		make func() (*graph.Graph, error)
	}{
		{"gnp", func() (*graph.Graph, error) { return gen.GNP(rng, 40, 0.08) }},
		{"powerlaw", func() (*graph.Graph, error) { return gen.PowerLaw(rng, 60, 4, 2.3) }},
		{"lattice", func() (*graph.Graph, error) { return gen.Lattice(rng, 7, 8, 6, false) }},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			trials, found := 0, 0
			for round := 0; round < 30; round++ {
				g, err := fam.make()
				if err != nil {
					t.Fatal(err)
				}
				for q := 0; q < 25; q++ {
					var vs, es []int
					if q%3 != 0 { // a third of the queries run unmasked
						_, vs, es = randomBlocked(rng, g)
					}
					u, v := rng.Intn(g.N()), rng.Intn(g.N())
					if checkPathWithin(t, s, g, u, v, 1+rng.Intn(7), vs, es) {
						found++
					}
					trials++
				}
			}
			// Both outcomes must be well represented or the pin is vacuous.
			if found < trials/4 || found > trials*3/4 {
				t.Fatalf("%d of %d queries found a path; want a mix", found, trials)
			}
		})
	}

	t.Run("corner_cases", func(t *testing.T) {
		g, err := gen.GNP(rng, 30, 0.12)
		if err != nil {
			t.Fatal(err)
		}
		// Distances from vertex 0 give pairs at every exact distance d.
		dist := BFS(g, 0, Blocked{}).Dist
		for v, d := range dist {
			if d < 1 || d > 7 {
				continue
			}
			if !checkPathWithin(t, s, g, 0, v, d, nil, nil) { // d = t exactly
				t.Fatalf("no path 0-%d at its distance %d", v, d)
			}
			if checkPathWithin(t, s, g, 0, v, d-1, nil, nil) { // t = d-1
				t.Fatalf("path 0-%d within %d hops, below its distance", v, d-1)
			}
			checkPathWithin(t, s, g, v, 0, d, nil, nil)
		}
		for _, id := range g.EdgeIDs()[:10] { // a direct u-v edge
			e := g.Edge(id)
			for maxHops := 1; maxHops <= 3; maxHops++ {
				checkPathWithin(t, s, g, e.U, e.V, maxHops, nil, nil)
				checkPathWithin(t, s, g, e.U, e.V, maxHops, nil, []int{id})
			}
		}
		for maxHops := 1; maxHops <= 7; maxHops++ { // u or v blocked
			checkPathWithin(t, s, g, 0, 1, maxHops, []int{0}, nil)
			checkPathWithin(t, s, g, 0, 1, maxHops, []int{1}, nil)
			checkPathWithin(t, s, g, 3, 3, maxHops, []int{3}, nil)
			checkPathWithin(t, s, g, 3, 3, maxHops, nil, nil)
		}
		checkPathWithin(t, s, g, 0, 1, 0, nil, nil) // no hop budget

		// Disconnected terminals: two paths, terminals on different sides,
		// one component far smaller than the other.
		two := graph.New(12)
		for i := 0; i+1 < 3; i++ {
			two.MustAddEdge(i, i+1)
		}
		for i := 3; i+1 < 12; i++ {
			two.MustAddEdge(i, i+1)
		}
		for maxHops := 1; maxHops <= 7; maxHops++ {
			checkPathWithin(t, s, two, 0, 11, maxHops, nil, nil)
			checkPathWithin(t, s, two, 11, 0, maxHops, nil, nil)
			checkPathWithin(t, s, two, 4, 2, maxHops, nil, nil)
		}
	})

	// The v side labels on the shared search epoch, so a 32-bit wraparound
	// must clear seenB too. On the path 0-1-...-19, the first search (epoch
	// 2) grows only v's side and leaves v-side labels on 12..19. After the
	// wrap and one throwaway search the epoch is 2 again, and a stale label
	// on 14 or 16 would fake a meeting one hop from u = 15.
	t.Run("epoch_wraparound", func(t *testing.T) {
		line := gen.Path(20)
		w := NewSearcher(0, 0)
		checkPathWithin(t, w, line, 5, 19, 7, nil, nil)
		w.epoch = math.MaxUint32
		checkPathWithin(t, w, line, 0, 1, 0, nil, nil)
		if !checkPathWithin(t, w, line, 15, 8, 7, nil, nil) {
			t.Fatal("no path 15-8 within its distance 7")
		}
	})
}

// TestPathWithinLogIsReadSet pins the premise of the batched builder's
// conflict test (core/batched.go) for the pruned two-ended log: adding edges
// with neither endpoint in a PathWithin's expanded log leaves the answer and
// the log unchanged. New edges are aimed at the search's edge — a neighbour
// of a scanned vertex that was not itself scanned — where a wrong log would
// show.
func TestPathWithinLogIsReadSet(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	s := NewSearcher(0, 0)
	checked := 0
	for trial := 0; trial < 600; trial++ {
		var g *graph.Graph
		var err error
		if trial%2 == 0 {
			g, err = gen.GNP(rng, 50, 0.06)
		} else {
			g, err = gen.PowerLaw(rng, 60, 3, 2.3)
		}
		if err != nil {
			t.Fatal(err)
		}
		var vs, es []int
		if trial%3 != 0 {
			_, vs, es = randomBlocked(rng, g)
		}
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		maxHops := 1 + rng.Intn(7)
		run := func() (pv, pe, log []int, ok bool) {
			installMask(s, vs, es)
			s.StartExpandedLog()
			pv, pe, ok = s.PathWithin(g, u, v, maxHops)
			log = slices.Clone(s.StopExpandedLog())
			return slices.Clone(pv), slices.Clone(pe), log, ok
		}
		pv, pe, log, ok := run()
		if len(log) == 0 {
			continue
		}
		inLog := make([]bool, g.N())
		for _, x := range log {
			inLog[x] = true
		}
		added := 0
		for tries := 0; tries < 100 && added < 4; tries++ {
			row := g.Adj(log[rng.Intn(len(log))])
			if len(row) == 0 {
				continue
			}
			x, y := row[rng.Intn(len(row))].To, rng.Intn(g.N())
			if x == y || inLog[x] || inLog[y] {
				continue
			}
			if _, dup := g.EdgeBetween(x, y); dup {
				continue
			}
			g.MustAddEdge(x, y)
			added++
		}
		if added == 0 {
			continue
		}
		checked++
		pv2, pe2, log2, ok2 := run()
		if ok2 != ok || !slices.Equal(pv2, pv) || !slices.Equal(pe2, pe) || !slices.Equal(log2, log) {
			t.Fatalf("trial %d (u=%d v=%d maxHops=%d): adding %d edges outside the log changed the search: %v %v %v log %v -> %v %v %v log %v",
				trial, u, v, maxHops, added, pv, pe, ok, log, pv2, pe2, ok2, log2)
		}
	}
	if checked < 300 {
		t.Fatalf("only %d trials added an edge; the check is too weak", checked)
	}
}

// TestSearcherBlockedReset: after ResetBlocked the mask is empty again, and
// stale stamps from a previous epoch never leak.
func TestSearcherBlockedReset(t *testing.T) {
	g := gen.Complete(5)
	s := NewSearcher(g.N(), g.M())
	s.BlockVertex(2)
	s.BlockEdge(0)
	if !s.VertexBlocked(2) || !s.EdgeBlocked(0) {
		t.Fatal("block did not take")
	}
	s.ResetBlocked()
	for v := 0; v < g.N(); v++ {
		if s.VertexBlocked(v) {
			t.Fatalf("vertex %d still blocked after reset", v)
		}
	}
	for id := 0; id < g.M(); id++ {
		if s.EdgeBlocked(id) {
			t.Fatalf("edge %d still blocked after reset", id)
		}
	}
	// Distances unaffected by an old mask.
	if d := s.Dist(g, 0, 1); d != 1 {
		t.Fatalf("Dist = %v, want 1", d)
	}
}

// TestSearcherZeroAllocs pins the warm-searcher query paths at zero heap
// allocations — the property the whole tentpole exists for.
func TestSearcherZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	g, err := gen.GNP(rng, 64, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	base, err := gen.GNP(rng, 64, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gen.UniformWeights(rng, base, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(g.N(), g.M())
	cases := []struct {
		name string
		fn   func()
	}{
		{"BFSBounded", func() { s.BFSBounded(g, 0, 4) }},
		{"PathWithin", func() { s.PathWithin(g, 0, 1, 5) }},
		{"DistUnweighted", func() { s.Dist(g, 0, 1) }},
		{"Dijkstra", func() { s.Dijkstra(w, 0) }},
		{"DistWeighted", func() { s.Dist(w, 0, 1) }},
		{"BlockAndReset", func() { s.ResetBlocked(); s.BlockVertex(3); s.BlockEdge(2) }},
	}
	for _, tc := range cases {
		tc.fn() // warm
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on a warm searcher, want 0", tc.name, allocs)
		}
	}
}

// TestSearcherGrowPreservesMask: growing the scratch (e.g. when a bigger
// graph arrives) keeps previously blocked IDs blocked.
func TestSearcherGrowPreservesMask(t *testing.T) {
	s := NewSearcher(4, 2)
	s.BlockVertex(1)
	s.BlockEdge(0)
	s.Grow(100, 50)
	if !s.VertexBlocked(1) || !s.EdgeBlocked(0) {
		t.Error("Grow dropped blocked IDs")
	}
	if s.VertexBlocked(99) || s.EdgeBlocked(49) {
		t.Error("Grow introduced spurious blocks")
	}
}

// TestNewSearchersReuse pins the contract the batched builder depends on:
// one distinct Searcher per worker, each preallocated to the hint.
func TestNewSearchersReuse(t *testing.T) {
	ss := NewSearchers(4, 16, 32)
	if len(ss) != 4 {
		t.Fatalf("len = %d, want 4", len(ss))
	}
	for i, s := range ss {
		for j := 0; j < i; j++ {
			if ss[j] == s {
				t.Fatalf("workers %d and %d share a Searcher", j, i)
			}
		}
		if len(s.dist) < 16 || len(s.blockE) < 32 {
			t.Fatalf("worker %d: scratch (%d, %d) below the (16, 32) hint", i, len(s.dist), len(s.blockE))
		}
	}
}

func TestNewSearchersDefaultWorkers(t *testing.T) {
	for _, req := range []int{0, -3} {
		if got := len(NewSearchers(req, 0, 0)); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("len(NewSearchers(%d)) = %d, want GOMAXPROCS %d", req, got, runtime.GOMAXPROCS(0))
		}
	}
}

// TestSearcherStopOn: a closed stop channel cuts a large Dijkstra and a
// large BFS short — every vertex reads unreached — while the two-ended
// PathWithin of the LBC passes ignores it, and StopOn(nil) restores exact
// results on the same searcher.
func TestSearcherStopOn(t *testing.T) {
	g, err := gen.Grid(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	w, err := gen.UniformWeights(rand.New(rand.NewSource(9)), g, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	far := g.N() - 1
	ref := NewSearcher(0, 0)
	wantPath, _, _ := ref.PathWithin(g, 0, far, math.MaxInt)
	wantPath = slices.Clone(wantPath)

	s := NewSearcher(0, 0)
	closed := make(chan struct{})
	close(closed)
	s.StopOn(closed)
	if d := s.Dist(g, 0, far); !math.IsInf(d, 1) {
		t.Errorf("stopped BFS Dist = %v, want +Inf", d)
	}
	s.BFSBounded(g, 0, math.MaxInt)
	if d := s.HopDistTo(far); d != Unreachable {
		t.Errorf("stopped BFSBounded reached the far corner at %d hops", d)
	}
	if d, pv, _ := s.DistPath(w, 0, far); !math.IsInf(d, 1) || pv != nil {
		t.Errorf("stopped Dijkstra DistPath = %v, %v, want +Inf, nil", d, pv)
	}
	s.Dijkstra(w, 0)
	for v := 0; v < w.N(); v++ {
		if !math.IsInf(s.WeightTo(v), 1) {
			t.Fatalf("stopped Dijkstra left vertex %d labeled %v", v, s.WeightTo(v))
		}
	}
	if got, _, ok := s.PathWithin(g, 0, far, math.MaxInt); !ok || !slices.Equal(got, wantPath) {
		t.Errorf("PathWithin under a closed stop = %v, %v, want %v", got, ok, wantPath)
	}

	s.StopOn(nil)
	if got, want := s.Dist(g, 0, far), Dist(g, 0, far, Blocked{}); got != want {
		t.Errorf("BFS Dist after StopOn(nil) = %v, want %v", got, want)
	}
	if got, want := s.Dist(w, 0, far), Dist(w, 0, far, Blocked{}); got != want {
		t.Errorf("Dijkstra Dist after StopOn(nil) = %v, want %v", got, want)
	}
}
