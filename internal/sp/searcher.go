package sp

import (
	"runtime"

	"ftspanner/internal/graph"
)

// Workers normalizes a Parallelism-style knob for the worker pools that
// give each goroutine its own Searcher: values <= 0 select GOMAXPROCS.
// Every layer (core, verify, bench) shares this one definition so the knob
// cannot drift between them.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// NewSearchers returns one Searcher per worker (workers <= 0 selects
// GOMAXPROCS, like Workers), each preallocated for graphs with up to n
// vertices and m edges; pass 0, 0 to size lazily on first use. Worker i
// uses element i. Callers that keep the slice across rounds and builds grow
// the scratch once and reuse it, which is what core.Build's batched rounds
// and the dynamic maintainer's rebuilds rely on.
func NewSearchers(workers, n, m int) []*Searcher {
	searchers := make([]*Searcher, Workers(workers))
	for i := range searchers {
		searchers[i] = NewSearcher(n, m)
	}
	return searchers
}

// Searcher is a reusable shortest-path engine: it owns all the scratch a
// BFS or Dijkstra run needs (distance and parent arrays, a ring-buffer
// queue, a binary heap, path buffers) plus a fault mask with O(1) epoch
// clearing, so repeated queries perform zero allocations once the buffers
// are warm. This is the engine behind the paper's hot loop: the modified
// greedy issues one lbc.Decide per input edge, and each Decide issues up to
// alpha+1 hop-bounded BFS passes — with a Searcher none of them allocate.
//
// A Searcher is sized lazily: every query grows the scratch to the graph it
// is given, so one Searcher can serve a growing spanner H and its source
// graph G interchangeably. Grow preallocates up front to avoid even the
// amortized growth cost.
//
// Validity of results: the distance accessors (HopDistTo, WeightTo) and the
// slices returned by PathWithin refer to the most recent search and remain
// valid only until the next call on the same Searcher.
//
// A Searcher is NOT safe for concurrent use; give each goroutine its own
// (see verify.ExhaustiveParallel and core.ExactGreedyParallel for the
// pattern, and NewSearchers for the helper). Distinct Searchers MAY run
// concurrently against the same graph.View as long as nothing mutates the
// view: every search reads the graph through View accessors only and keeps
// all mutable state (scratch, masks, logs) on the Searcher itself.
type Searcher struct {
	// Per-vertex search scratch. dist/wdist/parent entries are valid only
	// when the matching seen stamp equals the current epoch, so clearing
	// between searches is a single counter increment.
	dist    []int
	wdist   []float64
	parentV []int
	parentE []int
	seen    []uint32
	done    []uint32 // Dijkstra finalization stamps
	epoch   uint32

	queue []int      // BFS ring buffer, at most one entry per vertex
	heap  []heapItem // Dijkstra priority queue (lazy deletion)

	// v-side scratch of PathWithin's two-ended hop search, grown lazily by
	// growHop so Searchers that never run it pay nothing. seenB shares the
	// search epoch.
	seenB  []uint32
	distB  []int
	queueB []int

	// Fault mask: vertex u (edge id) is blocked iff the stamp equals
	// blockEpoch, so ResetBlocked is O(1).
	blockV     []uint32
	blockE     []uint32
	blockEpoch uint32

	// Path buffers backing PathWithin results.
	pathV []int
	pathE []int

	// Scratch is a spare integer buffer for callers that accumulate IDs
	// alongside a search (lbc.DecideWith builds its cut certificate here).
	// Like the path buffers, its contents are valid until the next use.
	Scratch []int

	// Aux is a second spare buffer with the same contract as Scratch, for
	// callers that accumulate two ID streams at once (lbc.DecideWith builds
	// its path-edge witness here while the cut grows in Scratch).
	Aux []int

	// Expanded-vertex log (see StartExpandedLog): when enabled, every hop
	// search records the vertices whose adjacency rows it scanned.
	logExpanded bool
	expanded    []int

	// stop, when closed, aborts the one-ended searches (see StopOn).
	stop <-chan struct{}
}

// stopPoll is how many heap pops (Dijkstra) or dequeues (BFS) pass between
// two polls of the stop channel: rare enough to cost nothing measurable,
// frequent enough that a stop lands within microseconds.
const stopPoll = 1024

type heapItem struct {
	v int
	d float64
}

// NewSearcher returns a Searcher preallocated for graphs with up to n
// vertices and m edges. It still grows on demand beyond these hints.
func NewSearcher(n, m int) *Searcher {
	s := &Searcher{epoch: 1, blockEpoch: 1}
	s.Grow(n, m)
	return s
}

// Grow ensures the scratch can serve a graph with n vertices and m edges
// without further allocation. It preserves the current fault mask.
func (s *Searcher) Grow(n, m int) {
	if n > len(s.dist) {
		s.dist = growInts(s.dist, n)
		s.wdist = growFloats(s.wdist, n)
		s.parentV = growInts(s.parentV, n)
		s.parentE = growInts(s.parentE, n)
		s.seen = growStamps(s.seen, n)
		s.done = growStamps(s.done, n)
		s.blockV = growStamps(s.blockV, n)
		if cap(s.queue) < n {
			s.queue = make([]int, 0, n)
		}
		if cap(s.pathV) < n {
			s.pathV = make([]int, 0, n)
		}
		if cap(s.pathE) < n {
			s.pathE = make([]int, 0, n)
		}
		if cap(s.heap) < n {
			s.heap = make([]heapItem, 0, n)
		}
	}
	if m > len(s.blockE) {
		s.blockE = growStamps(s.blockE, m)
	}
}

// growInts, growFloats and growStamps return a grown to length n, keeping
// its contents, or a itself when it is already long enough.
func growInts(a []int, n int) []int {
	if n <= len(a) {
		return a
	}
	b := make([]int, n)
	copy(b, a)
	return b
}

func growFloats(a []float64, n int) []float64 {
	if n <= len(a) {
		return a
	}
	b := make([]float64, n)
	copy(b, a)
	return b
}

func growStamps(a []uint32, n int) []uint32 {
	if n <= len(a) {
		return a
	}
	b := make([]uint32, n)
	copy(b, a)
	return b
}

// bumpSearch starts a new search epoch, logically clearing every per-vertex
// result in O(1). On the (rare) 32-bit wraparound the stamps are zeroed for
// real so a stale stamp can never collide with a fresh epoch.
func (s *Searcher) bumpSearch() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.seen)
		clear(s.done)
		clear(s.seenB)
		s.epoch = 1
	}
}

// ResetBlocked clears the fault mask in O(1).
func (s *Searcher) ResetBlocked() {
	s.blockEpoch++
	if s.blockEpoch == 0 {
		clear(s.blockV)
		clear(s.blockE)
		s.blockEpoch = 1
	}
}

// BlockVertex marks vertex u as failed until the next ResetBlocked.
func (s *Searcher) BlockVertex(u int) {
	if u >= len(s.blockV) {
		s.Grow(u+1, 0)
	}
	s.blockV[u] = s.blockEpoch
}

// BlockEdge marks edge id as failed until the next ResetBlocked.
func (s *Searcher) BlockEdge(id int) {
	if id >= len(s.blockE) {
		s.Grow(0, id+1)
	}
	s.blockE[id] = s.blockEpoch
}

// VertexBlocked reports whether vertex u is currently blocked.
func (s *Searcher) VertexBlocked(u int) bool { return s.blockV[u] == s.blockEpoch }

// EdgeBlocked reports whether edge id is currently blocked.
func (s *Searcher) EdgeBlocked(id int) bool { return s.blockE[id] == s.blockEpoch }

// StartExpandedLog begins recording the read set of subsequent hop-based
// searches: every vertex whose adjacency row a search scans — on either side
// of PathWithin's two-ended search, and nothing it pruned — is appended to
// an internal log, accumulated across searches until StopExpandedLog. The
// log is what makes speculative parallel execution auditable: a hop search
// on a view is a pure function of the adjacency rows it scanned, so if none
// of those rows changed, re-running the search yields byte-identical results
// — the conflict test of core.Build's batched rounds. Entries may repeat
// within and across passes; consumers treat the log as a set.
//
// Only the hop searches record — PathWithin (the LBC decide path) and the
// BFS family; Dijkstra does not.
// Logging performs no allocation once the buffer is warm (it is sized to
// the vertex count on first use).
func (s *Searcher) StartExpandedLog() {
	if cap(s.expanded) < len(s.dist) {
		s.expanded = make([]int, 0, len(s.dist))
	}
	s.expanded = s.expanded[:0]
	s.logExpanded = true
}

// StopExpandedLog ends recording and returns the accumulated log. The slice
// aliases the Searcher's internal buffer: valid until the next
// StartExpandedLog, copy to retain.
func (s *Searcher) StopExpandedLog() []int {
	s.logExpanded = false
	return s.expanded
}

// StopOn makes the one-ended searches — Dijkstra and BFS, and so Dist,
// DistPath and their Within forms — poll stop every stopPoll heap pops or
// dequeues and abandon the search once it is closed. An abandoned search
// reports every vertex unreached, so its caller must consult the stop's
// source (a context's Err, say) before trusting an unreachable answer.
// nil, the default, never stops. The two-ended PathWithin behind every LBC
// pass never polls, so a build cannot be cut short.
func (s *Searcher) StopOn(stop <-chan struct{}) { s.stop = stop }

// stopped reports whether the stop channel is closed.
func (s *Searcher) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// BFSBounded computes hop distances from src in g minus the Searcher's
// fault mask, truncated at maxHops exactly like the package-level
// BFSBounded: vertices farther than maxHops stay Unreachable. Read results
// with HopDistTo.
func (s *Searcher) BFSBounded(g graph.View, src, maxHops int) {
	s.Grow(g.N(), g.EdgeIDLimit())
	s.bfs(g, src, maxHops, -1)
}

// bfs runs a hop-bounded BFS; if target >= 0 it stops as soon as the target
// is labeled (its distance and parents are final at that point).
func (s *Searcher) bfs(g graph.View, src, maxHops, target int) {
	s.bumpSearch()
	if s.VertexBlocked(src) {
		return
	}
	e := s.epoch
	s.seen[src] = e
	s.dist[src] = 0
	s.parentV[src] = -1
	s.parentE[src] = -1
	q := s.queue[:0]
	q = append(q, src)
	for head := 0; head < len(q); head++ {
		if head&(stopPoll-1) == stopPoll-1 && s.stopped() {
			s.bumpSearch() // report every vertex unreached
			break
		}
		u := q[head]
		du := s.dist[u]
		if du >= maxHops {
			continue
		}
		if s.logExpanded {
			s.expanded = append(s.expanded, u)
		}
		for _, he := range g.Adj(u) {
			if s.EdgeBlocked(he.ID) || s.VertexBlocked(he.To) || s.seen[he.To] == e {
				continue
			}
			s.seen[he.To] = e
			s.dist[he.To] = du + 1
			s.parentV[he.To] = u
			s.parentE[he.To] = he.ID
			if he.To == target {
				s.queue = q
				return
			}
			q = append(q, he.To)
		}
	}
	s.queue = q
}

// HopDistTo returns the hop distance of v computed by the last hop search
// (BFSBounded, or the BFS behind Dist on unweighted graphs), or Unreachable.
func (s *Searcher) HopDistTo(v int) int {
	if s.seen[v] != s.epoch {
		return Unreachable
	}
	return s.dist[v]
}

// PathTo reconstructs the path from the most recent search's source to v, as
// a vertex sequence and the corresponding edge IDs. It is valid after
// BFSBounded and Dijkstra (for Dijkstra, only for vertices whose distance
// is final: any vertex when the search ran to exhaustion, or the target and
// its tree ancestors when it stopped early). The slices alias the Searcher's
// path buffers: valid until the next call, copy to retain. ok is false if v
// was not reached.
func (s *Searcher) PathTo(v int) (vertices, edgeIDs []int, ok bool) {
	if v < 0 || v >= len(s.seen) || s.seen[v] != s.epoch {
		return nil, nil, false
	}
	pv := s.pathV[:0]
	pe := s.pathE[:0]
	for x := v; x != -1; x = s.parentV[x] {
		pv = append(pv, x)
		if s.parentE[x] != -1 {
			pe = append(pe, s.parentE[x])
		}
	}
	for i, j := 0, len(pv)-1; i < j; i, j = i+1, j-1 {
		pv[i], pv[j] = pv[j], pv[i]
	}
	for i, j := 0, len(pe)-1; i < j; i, j = i+1, j-1 {
		pe[i], pe[j] = pe[j], pe[i]
	}
	s.pathV, s.pathE = pv, pe
	return pv, pe, true
}

// DistPath is Dist plus the shortest path realizing it: the u-v distance in
// g minus the fault mask (weighted on weighted graphs, hop count otherwise)
// together with the path's vertex sequence and edge IDs. An unreachable pair
// returns (+Inf, nil, nil). Like PathWithin, the slices alias the Searcher's
// path buffers and are valid only until the next call.
func (s *Searcher) DistPath(g graph.View, u, v int) (dist float64, vertices, edgeIDs []int) {
	return s.DistPathWithin(g, u, v, Inf)
}

// Dijkstra computes weighted shortest-path distances from src in g minus
// the fault mask. Read results with WeightTo.
func (s *Searcher) Dijkstra(g graph.View, src int) {
	s.Grow(g.N(), g.EdgeIDLimit())
	s.dijkstra(g, src, -1, Inf)
}

// WeightTo returns the weighted distance of v computed by the last Dijkstra
// call, or +Inf if v was not reached.
func (s *Searcher) WeightTo(v int) float64 {
	if s.seen[v] != s.epoch {
		return Inf
	}
	return s.wdist[v]
}

// dijkstra runs Dijkstra from src; if target >= 0 it stops once the target
// is settled, and labels exceeding radius are pruned (a vertex exactly at
// the radius is still reached). radius = Inf disables the bound.
func (s *Searcher) dijkstra(g graph.View, src, target int, radius float64) {
	s.bumpSearch()
	s.heap = s.heap[:0]
	if s.VertexBlocked(src) {
		return
	}
	e := s.epoch
	s.seen[src] = e
	s.wdist[src] = 0
	s.parentV[src] = -1
	s.parentE[src] = -1
	s.hpush(heapItem{v: src, d: 0})
	for pops := 1; len(s.heap) > 0; pops++ {
		if pops&(stopPoll-1) == 0 && s.stopped() {
			s.bumpSearch() // report every vertex unreached
			return
		}
		it := s.hpop()
		u := it.v
		if s.done[u] == e {
			continue
		}
		s.done[u] = e
		if u == target {
			return
		}
		du := s.wdist[u]
		for _, he := range g.Adj(u) {
			if s.EdgeBlocked(he.ID) || s.VertexBlocked(he.To) || s.done[he.To] == e {
				continue
			}
			nd := du + g.Weight(he.ID)
			if nd > radius {
				continue
			}
			if s.seen[he.To] != e || nd < s.wdist[he.To] {
				s.seen[he.To] = e
				s.wdist[he.To] = nd
				s.parentV[he.To] = u
				s.parentE[he.To] = he.ID
				s.hpush(heapItem{v: he.To, d: nd})
			}
		}
	}
}

// Dist returns the shortest-path distance between u and v in g minus the
// fault mask: weighted (Dijkstra) on weighted graphs, hop count (BFS)
// otherwise, +Inf if unreachable. It agrees exactly with the package-level
// Dist on both graph kinds.
func (s *Searcher) Dist(g graph.View, u, v int) float64 {
	return s.DistWithin(g, u, v, Inf)
}

// hpush / hpop implement a plain binary min-heap on the scratch slice.
// container/heap is avoided because its interface{} boxing allocates per
// push, which would break the zero-allocation guarantee.
func (s *Searcher) hpush(it heapItem) {
	s.heap = append(s.heap, it)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].d <= s.heap[i].d {
			break
		}
		s.heap[p], s.heap[i] = s.heap[i], s.heap[p]
		i = p
	}
}

func (s *Searcher) hpop() heapItem {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	s.heap = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].d < h[small].d {
			small = l
		}
		if r < len(h) && h[r].d < h[small].d {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}
