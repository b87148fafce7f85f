package main

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math"

	"ftspanner"
)

// Answer checking. The harness keeps its own copy of the served graph G (the
// mirror: the generated graph plus every batch the server acknowledged) and
// judges replies against it with its own shortest-path search, so that
// failed operations mean something independent of the code under test.

// finder is the harness-side Dijkstra (unit weights on unweighted graphs).
// It is deliberately not sp.Searcher: it is the reference the served
// distances are compared against.
type finder struct {
	dist   []float64
	parent []int
	stamp  []uint32
	epoch  uint32
	pq     distHeap
}

type distItem struct {
	v int
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

func newFinder(n int) *finder {
	return &finder{dist: make([]float64, n), parent: make([]int, n), stamp: make([]uint32, n)}
}

func containsInt(s []int, x int) bool {
	for _, y := range s {
		if y == x {
			return true
		}
	}
	return false
}

func containsPair(s [][2]int, a, b int) bool {
	for _, p := range s {
		if (p[0] == a && p[1] == b) || (p[0] == b && p[1] == a) {
			return true
		}
	}
	return false
}

// shortest returns d_{G∖F}(u,v) and a realizing path, searching no further
// than radius; beyond it (or when v is cut off) the distance is +Inf.
func (f *finder) shortest(g *ftspanner.Graph, u, v int, radius float64, faultV []int, faultE [][2]int) (float64, []int) {
	if containsInt(faultV, u) || containsInt(faultV, v) {
		return math.Inf(1), nil
	}
	f.epoch++
	f.pq = f.pq[:0]
	f.dist[u], f.parent[u], f.stamp[u] = 0, -1, f.epoch
	heap.Push(&f.pq, distItem{u, 0})
	for f.pq.Len() > 0 {
		it := heap.Pop(&f.pq).(distItem)
		if it.d > f.dist[it.v] {
			continue
		}
		if it.v == v {
			var path []int
			for x := v; x != -1; x = f.parent[x] {
				path = append(path, x)
			}
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return it.d, path
		}
		for _, he := range g.Adj(it.v) {
			if containsInt(faultV, he.To) || containsPair(faultE, it.v, he.To) {
				continue
			}
			d := it.d + g.Edge(he.ID).W
			if d > radius {
				continue
			}
			if f.stamp[he.To] != f.epoch || d < f.dist[he.To] {
				f.dist[he.To], f.parent[he.To], f.stamp[he.To] = d, it.v, f.epoch
				heap.Push(&f.pq, distItem{he.To, d})
			}
		}
	}
	return math.Inf(1), nil
}

// queryReply is the part of a /query reply the harness reads.
type queryReply struct {
	U         int     `json:"u"`
	V         int     `json:"v"`
	Reachable bool    `json:"reachable"`
	Distance  float64 `json:"distance"`
	Path      []int   `json:"path"`
	Epoch     uint64  `json:"epoch"`
	CacheHit  bool    `json:"cache_hit"`
	ServerNs  int64   `json:"server_ns"`
}

// checkReply is the check every wire reply gets: right endpoints, a path
// from u to v, and no failed element on it. It holds for cached answers of
// older epochs too, which is why it does not look at the mirror.
func checkReply(q *query, r *queryReply, n int) error {
	if r.U != q.u || r.V != q.v {
		return fmt.Errorf("reply for {%d,%d}, asked {%d,%d}", r.U, r.V, q.u, q.v)
	}
	if !r.Reachable {
		if len(r.Path) != 0 || r.Distance != -1 {
			return fmt.Errorf("unreachable reply carries distance %v and %d path vertices", r.Distance, len(r.Path))
		}
		return nil
	}
	if len(r.Path) == 0 || r.Path[0] != q.u || r.Path[len(r.Path)-1] != q.v {
		return fmt.Errorf("path does not run from %d to %d", q.u, q.v)
	}
	if q.maxDist > 0 && r.Distance > q.maxDist {
		return fmt.Errorf("distance %v beyond max_distance %v", r.Distance, q.maxDist)
	}
	for i, x := range r.Path {
		if x < 0 || x >= n {
			return fmt.Errorf("path vertex %d out of range", x)
		}
		if containsInt(q.faultV, x) {
			return fmt.Errorf("path visits failed vertex %d", x)
		}
		if i > 0 && containsPair(q.faultE, r.Path[i-1], x) {
			return fmt.Errorf("path crosses failed edge {%d,%d}", r.Path[i-1], x)
		}
	}
	return nil
}

// checkAgainstMirror is the verify-phase check of an uncached reply at the
// head epoch: every hop is an edge of G, the weights sum to the distance,
// and the distance is within stretch of d_{G∖F}(u,v).
func checkAgainstMirror(g *ftspanner.Graph, f *finder, q *query, r *queryReply, stretch float64) error {
	if err := checkReply(q, r, g.N()); err != nil {
		return err
	}
	if !r.Reachable {
		// Served d_{H∖F} > cap (or infinite), so the guarantee demands
		// d_{G∖F} > cap/stretch (or infinite).
		radius := math.Inf(1)
		if q.maxDist > 0 {
			radius = q.maxDist / stretch
		}
		if d, _ := f.shortest(g, q.u, q.v, radius, q.faultV, q.faultE); !math.IsInf(d, 1) {
			return fmt.Errorf("reported unreachable but d_G\\F = %v", d)
		}
		return nil
	}
	sum := 0.0
	for i := 1; i < len(r.Path); i++ {
		id, ok := g.EdgeBetween(r.Path[i-1], r.Path[i])
		if !ok {
			return fmt.Errorf("hop {%d,%d} is not an edge of G", r.Path[i-1], r.Path[i])
		}
		sum += g.Edge(id).W
	}
	if math.Abs(sum-r.Distance) > 1e-9*math.Max(1, sum) {
		return fmt.Errorf("path weighs %v, reply says %v", sum, r.Distance)
	}
	// H ⊆ G, so d_{G∖F} <= the served distance: that radius is enough.
	d, _ := f.shortest(g, q.u, q.v, r.Distance, q.faultV, q.faultE)
	if r.Distance > stretch*d*(1+1e-9) {
		return fmt.Errorf("distance %v exceeds %v x d_G\\F = %v", r.Distance, stretch, d)
	}
	return nil
}

// edgeTableHash fingerprints a graph as its edge table (ID, u, v, weight bits of
// every live edge): two builds are byte-identical iff the hashes agree.
func edgeTableHash(g *ftspanner.Graph) uint64 {
	h := fnv.New64a()
	var buf [32]byte
	put := func(off int, x uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(x >> (8 * i))
		}
	}
	for _, id := range g.EdgeIDs() {
		e := g.Edge(id)
		put(0, uint64(id))
		put(8, uint64(e.U))
		put(16, uint64(e.V))
		put(24, math.Float64bits(e.W))
		h.Write(buf[:])
	}
	return h.Sum64()
}
