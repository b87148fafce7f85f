package sp

import "ftspanner/internal/graph"

// PathWithin returns a u-v path with at most maxHops edges in g minus the
// fault mask, if one exists. The returned slices alias the Searcher's path
// buffers: they are valid until the next call and must be copied to be
// retained.
//
// The answer is exactly the one-sided BFS answer of the package-level
// PathWithin — the same vertices, the same edge IDs, the same ok: the parent
// chain to v of a BFS from u that dequeues in FIFO order and scans each row
// in adjacency order. LBC peels whichever path this returns, so that
// identity is what keeps every spanner byte-identical. The search that finds
// it scans far fewer rows than the one-sided BFS, because it works from both
// ends:
//
//  1. Expand full BFS levels from u (in canonical order) and from v, each
//     step taking the side with the smaller frontier. With radii a and b
//     complete and no vertex labelled by both sides, dist(u,v) > a+b; so the
//     step that first labels a vertex on both sides fixes d = dist(u,v) = a+b
//     (counting that step). Fail when a+b reaches maxHops without a meeting,
//     or when either frontier is empty.
//  2. Finish the level in progress unpruned, so both radii are complete
//     again, then continue u's BFS, expanding a vertex x at level j only if
//     it is on-path: labelled by v's side with dist_v(x) ≤ d−j. Every such j
//     is ≥ a, and v's ball is complete to radius b = d−a, so the test is
//     exact. Stop when v is labelled.
//
// Why the path is identical. Call x on-path if dist_u(x) + dist_v(x) = d.
//
//   - The BFS parent of an on-path vertex y at level j+1 is a level-j
//     neighbour x with dist_v(x) ≤ dist_v(y)+1 = d−j, so x is on-path too.
//   - An on-path vertex is enqueued while its parent's row is scanned, at its
//     adjacency position. Its place among on-path vertices therefore depends
//     only on the order of their (on-path) parents and on positions within
//     rows; pruning off-path vertices does not change it.
//   - By induction on the level, every on-path vertex gets the parent and
//     parent edge it gets in the one-sided BFS. v is on-path, so the parent
//     chain from v back to u — vertices and edge IDs — is unchanged.
//
// Off-path vertices may be labelled late, from another parent or not at all,
// but none is ever expanded: a vertex labelled above its true level fails
// the test.
//
// The expanded log (StartExpandedLog) receives every row the search scans,
// on either side; pruned vertices are not scanned and not logged. The search
// reads g only through those rows, so it is a pure function of them.
func (s *Searcher) PathWithin(g graph.View, u, v, maxHops int) (vertices, edgeIDs []int, ok bool) {
	s.Grow(g.N(), g.EdgeIDLimit())
	if u == v {
		if s.VertexBlocked(u) {
			return nil, nil, false
		}
		s.pathV = append(s.pathV[:0], u)
		return s.pathV, nil, true
	}
	s.growHop(g.N())
	if !s.twoEnded(g, u, v, maxHops) {
		return nil, nil, false
	}
	return s.PathTo(v)
}

// growHop sizes v's side of the two-ended hop search: labels share seenB
// (and so the search epoch) with bidi.go, but the Dijkstra-side arrays of
// growBidi are never allocated for it.
func (s *Searcher) growHop(n int) {
	s.seenB = growStamps(s.seenB, n)
	if n > len(s.distB) {
		s.distB = growInts(s.distB, n)
		s.queueB = make([]int, 0, n)
	}
}

// twoEnded runs PathWithin's search for u != v and reports whether u's side
// labelled v; the path is then the parent chain from v.
func (s *Searcher) twoEnded(g graph.View, u, v, maxHops int) bool {
	s.bumpSearch()
	if s.VertexBlocked(u) || s.VertexBlocked(v) {
		return false
	}
	e := s.epoch
	s.seen[u], s.dist[u], s.parentV[u], s.parentE[u] = e, 0, -1, -1
	s.seenB[v], s.distB[v] = e, 0
	s.queue = append(s.queue[:0], u)
	s.queueB = append(s.queueB[:0], v)
	// queue[ha:] and queueB[hb:] are the unexpanded vertices of each side;
	// a and b are the complete radii.
	ha, hb, a, b := 0, 0, 0, 0
	d := -1
	for d < 0 {
		if a+b >= maxHops || ha == len(s.queue) || hb == len(s.queueB) {
			return false
		}
		meet := false
		if len(s.queue)-ha <= len(s.queueB)-hb {
			for end := len(s.queue); ha < end; ha++ {
				hitV, m := s.scanU(g, s.queue[ha], v)
				if hitV {
					return true
				}
				meet = meet || m
			}
			a++
		} else {
			for end := len(s.queueB); hb < end; hb++ {
				meet = s.scanV(g, s.queueB[hb]) || meet
			}
			b++
		}
		if meet {
			d = a + b
		}
	}
	for ; ha < len(s.queue); ha++ {
		x := s.queue[ha]
		if s.seenB[x] != e || s.distB[x] > d-s.dist[x] {
			continue
		}
		if hitV, _ := s.scanU(g, x, v); hitV {
			return true
		}
	}
	return false // unreachable: the meeting certifies a u-v path of d hops
}

// scanU scans x's row for u's side, labelling unseen neighbours one level
// below x. It reports whether v was labelled (the scan stops there, as the
// one-sided BFS does) and whether any new label is also on v's side.
func (s *Searcher) scanU(g graph.View, x, v int) (hitV, meet bool) {
	if s.logExpanded {
		s.expanded = append(s.expanded, x)
	}
	e, dy := s.epoch, s.dist[x]+1
	for _, he := range g.Adj(x) {
		y := he.To
		if s.EdgeBlocked(he.ID) || s.VertexBlocked(y) || s.seen[y] == e {
			continue
		}
		s.seen[y], s.dist[y], s.parentV[y], s.parentE[y] = e, dy, x, he.ID
		if y == v {
			return true, true
		}
		meet = meet || s.seenB[y] == e
		s.queue = append(s.queue, y)
	}
	return false, meet
}

// scanV scans x's row for v's side and reports whether any new label is
// also on u's side.
func (s *Searcher) scanV(g graph.View, x int) (meet bool) {
	if s.logExpanded {
		s.expanded = append(s.expanded, x)
	}
	e, dy := s.epoch, s.distB[x]+1
	for _, he := range g.Adj(x) {
		y := he.To
		if s.EdgeBlocked(he.ID) || s.VertexBlocked(y) || s.seenB[y] == e {
			continue
		}
		s.seenB[y], s.distB[y] = e, dy
		meet = meet || s.seen[y] == e
		s.queueB = append(s.queueB, y)
	}
	return meet
}
