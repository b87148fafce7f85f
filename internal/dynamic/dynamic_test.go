package dynamic_test

import (
	"math/rand"
	"testing"

	"ftspanner/internal/core"
	"ftspanner/internal/dynamic"
	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/verify"
)

// edgeKey normalizes an endpoint pair for the mirror edge set tests keep.
func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// churner drives a Maintainer with random batches while mirroring the edge
// set, so tests can cross-check the maintained graph and spanner after
// every batch.
type churner struct {
	t    *testing.T
	rng  *rand.Rand
	m    *dynamic.Maintainer
	cfg  dynamic.Config
	live map[[2]int]float64
	n    int
	wmax float64 // > 0 means weighted inserts draw from (0, wmax]

	lastDelta dynamic.Delta // from the most recent batch
}

func newChurnerFull(t *testing.T, g *graph.Graph, cfg dynamic.Config, seed int64, wmax float64) *churner {
	t.Helper()
	m, err := dynamic.New(g, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if cfg.Mode == 0 {
		cfg.Mode = lbc.Vertex
	}
	live := make(map[[2]int]float64)
	for _, e := range g.Edges() {
		live[edgeKey(e.U, e.V)] = e.W
	}
	return &churner{t: t, rng: rand.New(rand.NewSource(seed)), m: m, cfg: cfg, live: live, n: g.N(), wmax: wmax}
}

// batch builds and applies one random batch of dels deletions and ins
// insertions (best effort: fewer if the graph runs out of edges or pairs).
func (c *churner) batch(dels, ins int) dynamic.Batch {
	c.t.Helper()
	var b dynamic.Batch
	for _, key := range c.pickLive(dels) {
		b.Delete = append(b.Delete, dynamic.Update{U: key[0], V: key[1]})
		delete(c.live, key)
	}
	for len(b.Insert) < ins {
		u, v := c.rng.Intn(c.n), c.rng.Intn(c.n)
		if u == v {
			continue
		}
		key := edgeKey(u, v)
		if _, ok := c.live[key]; ok {
			continue
		}
		w := 1.0
		if c.wmax > 0 {
			w = c.rng.Float64() * c.wmax
		}
		b.Insert = append(b.Insert, dynamic.Update{U: key[0], V: key[1], W: w})
		c.live[key] = w
	}
	d, err := c.m.ApplyBatch(b)
	if err != nil {
		c.t.Fatalf("ApplyBatch: %v", err)
	}
	c.lastDelta = d
	return b
}

// pickLive selects up to count distinct live edges, deterministically in
// rng order.
func (c *churner) pickLive(count int) [][2]int {
	keys := make([][2]int, 0, len(c.live))
	for key := range c.live {
		keys = append(keys, key)
	}
	// Map iteration order is random; sort for rng determinism.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	c.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if count > len(keys) {
		count = len(keys)
	}
	return keys[:count]
}

func less(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// checkState verifies the full correctness gate: the maintained graph
// matches the mirror, the spanner is a subgraph, and both the maintained
// and a from-scratch spanner pass verification against the current graph.
func (c *churner) checkState(trials int) {
	c.t.Helper()
	g, h := c.m.Graph(), c.m.Spanner()
	if g.M() != len(c.live) {
		c.t.Fatalf("maintained graph has %d edges, mirror has %d", g.M(), len(c.live))
	}
	for key, w := range c.live {
		id, ok := g.EdgeBetween(key[0], key[1])
		if !ok || g.Weight(id) != w {
			c.t.Fatalf("maintained graph lost edge {%d,%d} w=%v", key[0], key[1], w)
		}
	}
	if !h.IsSubgraphOf(g) {
		c.t.Fatalf("maintained spanner is not a subgraph of the maintained graph")
	}
	t := float64(2*c.cfg.K - 1)
	rng := rand.New(rand.NewSource(99))
	rep, err := verify.Sampled(g, h, t, c.cfg.F, c.cfg.Mode, rng, trials)
	if err != nil {
		c.t.Fatalf("verify maintained: %v", err)
	}
	if !rep.OK {
		c.t.Fatalf("maintained spanner violates the property: %v", rep.Violation)
	}
	// The from-scratch build on the same graph must pass too (gate sanity).
	fresh, _, _, err := core.Build(g, core.Params{K: c.cfg.K, F: c.cfg.F, Mode: c.cfg.Mode})
	if err != nil {
		c.t.Fatalf("from-scratch build: %v", err)
	}
	rng = rand.New(rand.NewSource(99))
	rep, err = verify.Sampled(g, fresh, t, c.cfg.F, c.cfg.Mode, rng, trials)
	if err != nil {
		c.t.Fatalf("verify fresh: %v", err)
	}
	if !rep.OK {
		c.t.Fatalf("from-scratch spanner violates the property: %v", rep.Violation)
	}
}

type churnCase struct {
	name string
	cfg  dynamic.Config
	wmax float64
	make func(rng *rand.Rand) *graph.Graph
}

func TestDynamicChurnStaysValid(t *testing.T) {
	cases := []churnCase{
		{
			name: "gnp_unweighted_vertex",
			cfg:  dynamic.Config{K: 2, F: 2, Mode: lbc.Vertex},
			make: func(rng *rand.Rand) *graph.Graph {
				g, err := gen.GNP(rng, 48, 0.18)
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
		},
		{
			name: "gnp_unweighted_edge",
			cfg:  dynamic.Config{K: 2, F: 2, Mode: lbc.Edge},
			make: func(rng *rand.Rand) *graph.Graph {
				g, err := gen.GNP(rng, 40, 0.2)
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
		},
		{
			name: "geometric_weighted_vertex",
			cfg:  dynamic.Config{K: 3, F: 1, Mode: lbc.Vertex},
			wmax: 1,
			make: func(rng *rand.Rand) *graph.Graph {
				g, _, err := gen.Geometric(rng, 48, 0.35, true)
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			g := tc.make(rng)
			c := newChurnerFull(t, g, tc.cfg, 11, tc.wmax)
			c.checkState(40)
			for i := 0; i < 8; i++ {
				c.batch(3, 3)
				c.checkState(40)
			}
			st := c.m.Stats()
			if st.Batches != 8 {
				t.Errorf("Batches = %d, want 8", st.Batches)
			}
			if st.Inserted == 0 || st.Deleted == 0 {
				t.Errorf("churn did not exercise both inserts and deletes: %+v", st)
			}
		})
	}
}

// TestDynamicChurnDeterministic pins that the same schedule produces a
// byte-identical maintained spanner — the property the CI churn-determinism
// step re-runs with -count=2.
func TestDynamicChurnDeterministic(t *testing.T) {
	run := func() (*graph.Graph, dynamic.Stats) {
		rng := rand.New(rand.NewSource(3))
		g, err := gen.GNP(rng, 40, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		c := newChurnerFull(t, g, dynamic.Config{K: 2, F: 1}, 5, 0)
		for i := 0; i < 6; i++ {
			c.batch(2, 2)
		}
		return c.m.Spanner(), c.m.Stats()
	}
	h1, st1 := run()
	h2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats diverged between identical runs:\n%+v\n%+v", st1, st2)
	}
	e1, e2 := h1.Edges(), h2.Edges()
	if len(e1) != len(e2) {
		t.Fatalf("spanner sizes diverged: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("spanner edge %d diverged: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}

// TestDynamicDeleteSpannerEdgeRepairs deletes a spanner edge directly and
// checks the repair path re-covers the broken witnesses (exhaustive
// verification on a small instance).
func TestDynamicDeleteSpannerEdgeRepairs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, err := gen.GNPConnected(rng, 18, 0.35, 50)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dynamic.New(g, dynamic.Config{K: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Delete spanner edges one batch at a time until a few repairs ran.
	for round := 0; round < 6; round++ {
		h := m.Spanner()
		var pick *graph.Edge
		for _, e := range h.Edges() {
			e := e
			pick = &e
			break
		}
		if pick == nil {
			t.Fatal("spanner ran out of edges")
		}
		if _, err := m.ApplyBatch(dynamic.Batch{Delete: []dynamic.Update{{U: pick.U, V: pick.V}}}); err != nil {
			t.Fatalf("delete batch: %v", err)
		}
		rep, err := verify.Exhaustive(m.Graph(), m.Spanner(), 3, 1, lbc.Vertex)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatalf("round %d: %v", round, rep.Violation)
		}
	}
	st := m.Stats()
	if st.DeletedFromH != 6 {
		t.Errorf("DeletedFromH = %d, want 6", st.DeletedFromH)
	}
	if st.RepairBatches+st.RebuildBatches == 0 && st.Invalidated > 0 {
		t.Errorf("invalidations without repair or rebuild: %+v", st)
	}
}

// TestDynamicStalenessBudgetFallback pins both sides of the budget: a tiny
// budget forces rebuilds, a huge one forces repairs, and both stay valid.
func TestDynamicStalenessBudgetFallback(t *testing.T) {
	build := func(budget float64) dynamic.Stats {
		rng := rand.New(rand.NewSource(13))
		g, err := gen.GNPConnected(rng, 30, 0.25, 50)
		if err != nil {
			t.Fatal(err)
		}
		c := newChurnerFull(t, g, dynamic.Config{K: 2, F: 1, StalenessBudget: budget}, 17, 0)
		for i := 0; i < 6; i++ {
			c.batch(3, 1)
			c.checkState(30)
		}
		return c.m.Stats()
	}
	tiny := build(1e-9)
	if tiny.RebuildBatches == 0 || tiny.RepairBatches != 0 {
		t.Errorf("tiny budget: want rebuilds only, got %+v", tiny)
	}
	huge := build(10)
	if huge.RebuildBatches != 0 {
		t.Errorf("huge budget: want no rebuilds, got %+v", huge)
	}
	if huge.Invalidated > 0 && huge.RepairBatches == 0 {
		t.Errorf("huge budget: invalidations but no repair batches: %+v", huge)
	}
}

// TestDynamicBatchValidation checks that invalid batches are rejected
// before any mutation.
func TestDynamicBatchValidation(t *testing.T) {
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	m, err := dynamic.New(g, dynamic.Config{K: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := []dynamic.Batch{
		{Delete: []dynamic.Update{{U: 0, V: 4}}},                                         // missing edge
		{Delete: []dynamic.Update{{U: 0, V: 1}, {U: 1, V: 0}}},                           // duplicate delete
		{Insert: []dynamic.Update{{U: 0, V: 0}}},                                         // self-loop
		{Insert: []dynamic.Update{{U: 0, V: 1}}},                                         // existing edge
		{Insert: []dynamic.Update{{U: 0, V: 4}, {U: 4, V: 0}}},                           // duplicate insert
		{Insert: []dynamic.Update{{U: 0, V: 9}}},                                         // out of range
		{Insert: []dynamic.Update{{U: 0, V: 4, W: 2}}},                                   // bad weight (unweighted)
		{Delete: []dynamic.Update{{U: 2, V: 3}}, Insert: []dynamic.Update{{U: 0, V: 0}}}, // one bad op poisons all
	}
	for i, b := range bad {
		if _, err := m.ApplyBatch(b); err == nil {
			t.Errorf("batch %d: expected error", i)
		}
	}
	if got := m.Stats().Batches; got != 0 {
		t.Errorf("rejected batches were counted: Batches = %d", got)
	}
	if m.Graph().M() != 3 {
		t.Errorf("rejected batch mutated the graph: M = %d", m.Graph().M())
	}
	// Delete-then-reinsert of the same pair in one batch is legal.
	ok := dynamic.Batch{
		Delete: []dynamic.Update{{U: 0, V: 1}},
		Insert: []dynamic.Update{{U: 0, V: 1}},
	}
	if _, err := m.ApplyBatch(ok); err != nil {
		t.Errorf("delete+reinsert batch: %v", err)
	}
}

// TestDynamicCallerGraphUntouched pins the clone contract of New.
func TestDynamicCallerGraphUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := gen.GNP(rng, 20, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	before := g.M()
	m, err := dynamic.New(g, dynamic.Config{K: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edges()[0]
	if _, err := m.ApplyBatch(dynamic.Batch{Delete: []dynamic.Update{{U: e.U, V: e.V}}}); err != nil {
		t.Fatal(err)
	}
	if g.M() != before {
		t.Errorf("ApplyBatch mutated the caller's graph: %d -> %d edges", before, g.M())
	}
}
