package oracle

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ftspanner/internal/dynamic"
	"ftspanner/internal/gen"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/sp"
	"ftspanner/internal/verify"
)

func mustGNP(t *testing.T, seed int64, n int, deg float64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := gen.GNP(rng, n, deg/float64(n-1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// Sequential sanity: every answer matches a direct shortest-path run on the
// spanner, and respects the stretch bound against the faulted graph.
func TestQueryMatchesDirectSearch(t *testing.T) {
	g := mustGNP(t, 11, 60, 8)
	o, err := New(g, Config{K: 2, F: 2})
	if err != nil {
		t.Fatal(err)
	}
	snapG, snapH, _ := o.Snapshot()
	sg := sp.NewSearcher(snapG.N(), snapG.EdgeIDLimit())
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		u, v := rng.Intn(60), rng.Intn(60)
		var faults []int
		for i := 0; i < rng.Intn(3); i++ {
			faults = append(faults, rng.Intn(60))
		}
		res, err := o.Query(u, v, QueryOptions{FaultVertices: faults})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckServedAnswer(snapH, verify.ServedAnswer{
			U: u, V: v, Dist: res.Distance, Path: res.Path, FaultVertices: faults,
		}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Stretch guarantee versus the faulted source graph.
		sg.ResetBlocked()
		for _, f := range faults {
			sg.BlockVertex(f)
		}
		dg := sg.Dist(snapG, u, v)
		if math.IsInf(dg, 1) {
			continue
		}
		if res.Distance > float64(o.Stretch())*dg {
			t.Fatalf("trial %d: served %v exceeds %d x d_G=%v", trial, res.Distance, o.Stretch(), dg)
		}
	}
}

// The cache must hit on repeats, treat fault-set order and duplicates as
// one key, and miss after an Apply bumps the epoch.
func TestCacheEpochSemantics(t *testing.T) {
	g := mustGNP(t, 21, 40, 8)
	o, err := New(g, Config{K: 2, F: 3})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := o.Query(1, 30, QueryOptions{FaultVertices: []int{5, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first query hit the cache")
	}
	r2, err := o.Query(1, 30, QueryOptions{FaultVertices: []int{9, 5, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("permuted+duplicated fault set did not hit the canonical cache key")
	}
	if r2.Distance != r1.Distance || r2.Epoch != r1.Epoch {
		t.Fatalf("cached answer diverged: %+v vs %+v", r2, r1)
	}
	// NoCache recomputes and does not disturb the cache.
	r3, err := o.Query(1, 30, QueryOptions{FaultVertices: []int{5, 9}, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit {
		t.Fatal("NoCache query reported a cache hit")
	}
	// Churn touching a queried endpoint's partition invalidates the entry:
	// the epoch bumps, the next query misses, then re-caches.
	x := -1
	for cand := 0; cand < 40; cand++ {
		if cand != 1 && !g.HasEdge(1, cand) {
			x = cand
			break
		}
	}
	if x < 0 {
		t.Fatal("no insertion candidate adjacent-free of vertex 1")
	}
	if err := o.Apply(dynamic.Batch{Insert: []dynamic.Update{{U: 1, V: x}}}); err != nil {
		t.Fatal(err)
	}
	r4, err := o.Query(1, 30, QueryOptions{FaultVertices: []int{5, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if r4.CacheHit {
		t.Fatal("query after Apply touching its shard still hit the stale cache")
	}
	if r4.Epoch != r1.Epoch+1 {
		t.Fatalf("epoch %d after one Apply, want %d", r4.Epoch, r1.Epoch+1)
	}
	st := o.Stats()
	if st.CacheHits != 1 || st.Queries != 4 || st.Batches != 1 {
		t.Fatalf("stats %+v: want 1 hit, 4 queries, 1 batch", st)
	}
	// The NoCache query never consulted the cache: only the two real
	// misses count, and HitRate is hits over consulted, not over queries.
	if st.CacheMisses != 2 {
		t.Fatalf("stats %+v: want 2 misses (NoCache must not count)", st)
	}
	if want := 1.0 / 3.0; st.HitRate != want {
		t.Fatalf("hit rate %v, want %v (hits / consulted)", st.HitRate, want)
	}
}

// The edge-mode twin of the permuted+duplicated check above: fault edges
// given reversed, permuted or more than once are one canonical cache key and
// one answer.
func TestCacheKeyCanonicalEdgeFaults(t *testing.T) {
	g := mustGNP(t, 21, 40, 8)
	o, err := New(g, Config{K: 2, F: 3, Mode: lbc.Edge})
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.Adj(1)[0].To, g.Adj(1)[1].To
	c := g.Adj(30)[0].To
	faults := [][2]int{{1, a}, {1, b}, {30, c}}
	shuffled := [][2]int{{c, 30}, {1, a}, {b, 1}, {a, 1}, {30, c}}
	k1, err := o.canonFaults(QueryOptions{FaultEdges: faults})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := o.canonFaults(QueryOptions{FaultEdges: shuffled})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("canonical keys differ: %x vs %x", k1, k2)
	}
	r1, err := o.Query(1, 30, QueryOptions{FaultEdges: faults})
	if err != nil {
		t.Fatal(err)
	}
	if r1.CacheHit {
		t.Fatal("first query hit the cache")
	}
	r2, err := o.Query(1, 30, QueryOptions{FaultEdges: shuffled})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("reversed+permuted+duplicated fault edges did not hit the canonical cache key")
	}
	if r2.Distance != r1.Distance || r2.Epoch != r1.Epoch || !slices.Equal(r2.Path, r1.Path) {
		t.Fatalf("cached answer diverged: %+v vs %+v", r2, r1)
	}
	r3, err := o.Query(1, 30, QueryOptions{FaultEdges: shuffled, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if r3.CacheHit || r3.Distance != r1.Distance {
		t.Fatalf("recomputed answer %+v, cached %+v", r3, r1)
	}
}

// Capacity eviction prefers stale victims: after a shard invalidation a
// full shard must shed its dead entries before any fresh one. Staleness is
// epoch-range based — shard minEpoch or the retention window.
func TestCacheEvictionPrefersStale(t *testing.T) {
	const n = 128                       // partition(u) = u/2: vertices 0 and 1 share shard 0
	c := newResultCache(cacheShards, n) // 1 entry per shard
	k0 := cacheKey{u: 0, v: 64}
	k1 := cacheKey{u: 1, v: 64}
	k2 := cacheKey{u: 0, v: 65}
	c.put(k0, cacheEntry{epoch: 1, dist: 10}, 8)
	// A batch touches vertex 0's partition: k0 goes stale in place.
	c.invalidateVertices([]int{0}, 2)
	c.put(k1, cacheEntry{epoch: 2, dist: 20}, 8) // evicts the stale k0
	if _, ok := c.get(k1, 2, 8); !ok {
		t.Fatal("fresh entry missing after stale eviction")
	}
	if _, ok := c.get(k0, 2, 8); ok {
		t.Fatal("stale entry survived eviction of a full shard")
	}
	c.put(k2, cacheEntry{epoch: 2, dist: 30}, 8) // no stale victim: falls back
	if _, ok := c.get(k2, 2, 8); !ok {
		t.Fatal("entry not stored after fallback eviction")
	}
	if c.len() > 1 {
		t.Fatalf("shard holds %d entries, budget 1", c.len())
	}

	// The retention window is the other staleness source: an entry whose
	// producing snapshot has been retired is dead even in an untouched
	// shard (SnapshotAt could no longer re-verify it).
	c2 := newResultCache(cacheShards, n)
	c2.put(k0, cacheEntry{epoch: 1, dist: 10}, 4)
	if _, ok := c2.get(k0, 4, 4); !ok {
		t.Fatal("in-window entry missed")
	}
	if _, ok := c2.get(k0, 5, 4); ok {
		t.Fatal("entry outlived the retention window")
	}
}

func TestQueryValidation(t *testing.T) {
	g := mustGNP(t, 31, 20, 6)
	o, err := New(g, Config{K: 2, F: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		u, v int
		opts QueryOptions
	}{
		{"u out of range", -1, 3, QueryOptions{}},
		{"v out of range", 0, 20, QueryOptions{}},
		{"too many faults", 0, 3, QueryOptions{FaultVertices: []int{4, 5}}},
		{"fault out of range", 0, 3, QueryOptions{FaultVertices: []int{25}}},
		{"edge faults on vertex oracle", 0, 3, QueryOptions{FaultEdges: [][2]int{{1, 2}}}},
	}
	for _, tc := range cases {
		if _, err := o.Query(tc.u, tc.v, tc.opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Duplicates collapse before the budget check.
	if _, err := o.Query(0, 3, QueryOptions{FaultVertices: []int{4, 4}}); err != nil {
		t.Errorf("duplicated single fault rejected: %v", err)
	}
	// Querying a failed endpoint is answered (+Inf), not an error.
	res, err := o.Query(4, 3, QueryOptions{FaultVertices: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Distance, 1) || res.Path != nil {
		t.Fatalf("failed-endpoint query returned %+v, want +Inf and no path", res)
	}
}

// Edge-fault oracles take endpoint pairs, tolerate absent pairs, and detour
// around the failed edge.
func TestEdgeFaultQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g, _, err := gen.Geometric(rng, 48, 0.3, true)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(g, Config{K: 2, F: 2, Mode: lbc.Edge})
	if err != nil {
		t.Fatal(err)
	}
	_, snapH, _ := o.Snapshot()
	he := snapH.Edges()[0]
	res, err := o.Query(he.U, he.V, QueryOptions{FaultEdges: [][2]int{{he.V, he.U}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckServedAnswer(snapH, verify.ServedAnswer{
		U: he.U, V: he.V, Dist: res.Distance, Path: res.Path,
		FaultEdges: [][2]int{{he.U, he.V}},
	}); err != nil {
		t.Fatal(err)
	}
	// A pair that is not an edge anywhere is a no-op, not an error.
	if _, err := o.Query(0, 1, QueryOptions{FaultEdges: [][2]int{{0, 47}}}); err != nil {
		t.Fatalf("absent fault pair rejected: %v", err)
	}
	if _, err := o.Query(0, 1, QueryOptions{FaultVertices: []int{3}}); err == nil {
		t.Error("vertex faults accepted by an edge-fault oracle")
	}
}

// A cache hit on the fault-free hot path must not allocate: this is what
// keeps hot-pair serving at memory-bandwidth speed under load.
func TestHotCacheHitZeroAllocs(t *testing.T) {
	g := mustGNP(t, 51, 80, 8)
	o, err := New(g, Config{K: 2, F: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Query(2, 70, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := o.Query(2, 70, QueryOptions{}); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hot cache hit allocates %.1f times per query, want 0", allocs)
	}
}

// The epoch-consistency hammer: >= 8 concurrent clients query through a
// full churn schedule under -race, and every sampled answer is re-verified
// against the exact snapshot its Epoch names (recovered via SnapshotAt —
// retention covers the whole schedule) — the distance/path against that
// epoch's spanner, and the stretch bound against its faulted graph. There
// is no skip path: an answer naming an unrecoverable epoch, or mixing
// state from two epochs, fails the test.
func TestEpochConsistencyHammer(t *testing.T) {
	for _, tc := range []struct {
		name     string
		weighted bool
		mode     lbc.Mode
	}{
		{"vertex_unweighted", false, lbc.Vertex},
		{"edge_weighted", true, lbc.Edge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				n       = 72
				clients = 8
				batches = 16
			)
			rng := rand.New(rand.NewSource(61))
			var g *graph.Graph
			var err error
			if tc.weighted {
				g, _, err = gen.Geometric(rng, n, 0.26, true)
			} else {
				g, err = gen.GNP(rng, n, 8/float64(n-1))
			}
			if err != nil {
				t.Fatal(err)
			}
			// Retain every epoch of the schedule so each answer — however
			// stale its cache entry — can be re-verified at its own epoch.
			o, err := New(g, Config{K: 2, F: 2, Mode: tc.mode, SnapshotRetain: batches + 2})
			if err != nil {
				t.Fatal(err)
			}

			// Precompute a valid churn schedule against an evolving clone.
			cur := g.Clone()
			var schedule []dynamic.Batch
			for b := 0; b < batches; b++ {
				var batch dynamic.Batch
				for d := 0; d < 2 && cur.M() > 0; d++ {
					edges := cur.Edges()
					e := edges[rng.Intn(len(edges))]
					batch.Delete = append(batch.Delete, dynamic.Update{U: e.U, V: e.V})
					if _, err := cur.RemoveEdgeBetween(e.U, e.V); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 2; {
					u, v := rng.Intn(n), rng.Intn(n)
					if u == v || cur.HasEdge(u, v) {
						continue
					}
					w := 1.0
					if cur.Weighted() {
						w = rng.Float64() + 0.1
					}
					batch.Insert = append(batch.Insert, dynamic.Update{U: u, V: v, W: w})
					cur.MustAddEdgeW(u, v, w)
					i++
				}
				schedule = append(schedule, batch)
			}

			var (
				done     atomic.Bool
				verified atomic.Int64
				wg       sync.WaitGroup
			)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					crng := rand.New(rand.NewSource(int64(1000 + c)))
					sg := sp.NewSearcher(n, g.EdgeIDLimit())
					iter := 0
					for !done.Load() || iter < 40 {
						iter++
						u, v := crng.Intn(n), crng.Intn(n)
						opts := QueryOptions{}
						var fv []int
						var fe [][2]int
						if crng.Intn(2) == 0 {
							if tc.mode == lbc.Vertex {
								for i := 0; i < 1+crng.Intn(2); i++ {
									fv = append(fv, crng.Intn(n))
								}
								opts.FaultVertices = fv
							} else {
								for i := 0; i < 1+crng.Intn(2); i++ {
									a, b := crng.Intn(n), crng.Intn(n)
									if a == b {
										continue
									}
									fe = append(fe, [2]int{a, b})
								}
								opts.FaultEdges = fe
							}
						}
						res, err := o.Query(u, v, opts)
						if err != nil {
							t.Error(err)
							return
						}
						if iter%4 != 0 {
							continue // verify a sample, not every answer
						}
						snapG, snapH, ok := o.SnapshotAt(res.Epoch)
						if !ok {
							t.Errorf("answer named epoch %d but no retained snapshot matches it", res.Epoch)
							return
						}
						if err := verify.CheckServedAnswer(snapH, verify.ServedAnswer{
							U: u, V: v, Dist: res.Distance, Path: res.Path,
							FaultVertices: fv, FaultEdges: fe,
						}); err != nil {
							t.Errorf("epoch %d: %v", res.Epoch, err)
							return
						}
						// Stretch against the faulted graph of the same epoch.
						sg.ResetBlocked()
						for _, f := range fv {
							sg.BlockVertex(f)
						}
						for _, p := range fe {
							if id, ok := snapG.EdgeBetween(p[0], p[1]); ok {
								sg.BlockEdge(id)
							}
						}
						dg := sg.Dist(snapG, u, v)
						if math.IsInf(dg, 1) {
							verified.Add(1)
							continue
						}
						if res.Distance > float64(o.Stretch())*dg*(1+1e-12) {
							t.Errorf("epoch %d: served d=%v for {%d,%d} exceeds %d x d_G=%v (faults v=%v e=%v)",
								res.Epoch, res.Distance, u, v, o.Stretch(), dg, fv, fe)
							return
						}
						verified.Add(1)
					}
				}(c)
			}

			for _, b := range schedule {
				if err := o.Apply(b); err != nil {
					t.Error(err)
					break
				}
			}
			done.Store(true)
			wg.Wait()

			if v := verified.Load(); v < int64(clients) {
				t.Fatalf("only %d answers verified — stress test did not exercise serving", v)
			}
			st := o.Stats()
			if st.Epoch != uint64(batches)+1 {
				t.Fatalf("final epoch %d, want %d", st.Epoch, batches+1)
			}
			if st.Queries == 0 || st.CacheMisses == 0 {
				t.Fatalf("implausible stats after stress: %+v", st)
			}
		})
	}
}

// Cache capacity is respected: the cache never exceeds its entry budget.
func TestCacheCapacityBound(t *testing.T) {
	g := mustGNP(t, 71, 64, 8)
	o, err := New(g, Config{K: 2, F: 1, CacheCapacity: cacheShards}) // 1 entry per shard
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 2000; i++ {
		u, v := rng.Intn(64), rng.Intn(64)
		if u == v {
			continue
		}
		if _, err := o.Query(u, v, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if size := o.Stats().CacheSize; size > cacheShards {
		t.Fatalf("cache grew to %d entries, budget %d", size, cacheShards)
	}
	// Negative capacity disables caching entirely.
	o2, err := New(g, Config{K: 2, F: 1, CacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	o2.Query(0, 1, QueryOptions{})
	r, _ := o2.Query(0, 1, QueryOptions{})
	if r.CacheHit || o2.Stats().CacheSize != 0 {
		t.Fatal("disabled cache still serving hits")
	}
}
