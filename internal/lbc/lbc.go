// Package lbc implements the Length-Bounded Cut subroutines from Section 3.1
// of the paper.
//
// A length-t-cut for terminals u, v in an unweighted graph G is a set
// F ⊆ V \ {u, v} (vertex version) or F ⊆ E (edge version) whose removal
// makes every u-v path longer than t hops. Computing a minimum length-t-cut
// is NP-hard (Baier et al.), so the paper defines the gap decision problem
// LBC(t, α):
//
//   - if some length-t-cut has size ≤ α, the algorithm must answer YES;
//   - if every length-t-cut has size > α·t, it must answer NO;
//   - in between, either answer is allowed.
//
// Decide implements the paper's Algorithm 2: up to α+1 hop-bounded BFS
// passes, each removing the internal vertices (or edges) of a found short
// path — the classic "frequency" approximation of Hitting Set. Theorem 4:
// it decides LBC(t, α) in O((m+n)·α) time. Each pass is one
// sp.Searcher.PathWithin, which searches from both terminals and scans
// about a ball of radius ⌈t/2⌉ around each instead of one of radius t
// around u, yet returns exactly the path of a BFS from u — so which path
// each pass peels, and with it every cut, witness and spanner, is the same
// as the one-sided search's.
//
// Exact implements a brute-force minimum length-bounded cut by subset
// enumeration. It exists as the test oracle TestGapGuarantee checks Decide
// against; its running time is exponential in the cut size.
package lbc

import (
	"fmt"

	"ftspanner/internal/combin"
	"ftspanner/internal/graph"
	"ftspanner/internal/sp"
)

// Mode selects whether cuts consist of vertices or edges, mirroring the
// paper's vertex-fault-tolerant and edge-fault-tolerant variants.
type Mode int

const (
	// Vertex cuts remove vertices other than the terminals.
	Vertex Mode = iota + 1
	// Edge cuts remove edges.
	Edge
)

// String returns "vertex" or "edge".
func (m Mode) String() string {
	switch m {
	case Vertex:
		return "vertex"
	case Edge:
		return "edge"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

func (m Mode) valid() bool { return m == Vertex || m == Edge }

// Result is the outcome of a Decide call.
type Result struct {
	// Yes reports the gap decision: YES means a length-t-cut of size at most
	// alpha*t was found (so a small cut may exist); NO means no cut of size
	// <= alpha exists.
	Yes bool
	// Cut is the certificate returned on YES: vertices (Mode Vertex) or edge
	// IDs (Mode Edge) whose removal leaves no u-v path of at most t hops.
	// Its size is at most alpha*t. Nil on NO.
	Cut []int
	// PathEdges lists the edge IDs of every path found across the BFS
	// passes, in discovery order. On NO it is a positive coverage witness:
	// either the alpha+1 passes found alpha+1 pairwise disjoint (internally
	// vertex-disjoint in Mode Vertex, edge-disjoint in Mode Edge) u-v paths
	// of at most t hops — so any fault set of size at most alpha kills at
	// most alpha of them and one survives — or (Mode Vertex only) the last
	// path found is the direct edge {u,v}, which no vertex fault can remove
	// at all. Either way: as long as every edge listed here remains in the
	// graph, every fault set of size at most alpha leaves a u-v path of at
	// most t hops. The witness survives edge insertions and is destroyed
	// only when one of these edges is removed — the invalidation rule the
	// dynamic maintainer (internal/dynamic) uses for batched deletions.
	//
	// Like Cut, PathEdges from DecideWith aliases searcher scratch; copy to
	// retain.
	PathEdges []int
	// Passes is the number of BFS passes performed (at most alpha+1, the
	// Theorem 4 runtime shape TestDecidePassBound pins).
	Passes int
}

// Decide runs Algorithm 2 on g with terminals u, v, hop bound t, and budget
// alpha. Weights on g are ignored: length-bounded cuts are defined on hop
// counts, which is exactly how the weighted greedy (Algorithm 4) uses this.
//
// Decide allocates its own scratch per call; the greedy's hot loop uses
// DecideWith with a long-lived sp.Searcher instead.
func Decide(g graph.View, u, v, t, alpha int, mode Mode) (Result, error) {
	res, err := DecideWith(sp.NewSearcher(g.N(), g.EdgeIDLimit()), g, u, v, t, alpha, mode)
	if err != nil {
		return res, err
	}
	// The searcher dies with this call, so the cut does not alias live
	// scratch — but copy anyway so Decide's contract stays independent of
	// DecideWith's buffer reuse.
	if res.Cut != nil {
		res.Cut = append([]int(nil), res.Cut...)
	}
	if res.PathEdges != nil {
		res.PathEdges = append([]int(nil), res.PathEdges...)
	}
	return res, nil
}

// DecideWith is Decide running entirely on the scratch of s: on a warm
// searcher it performs zero heap allocations, which is what makes the
// modified greedy's O((m+n)·alpha) per-edge cost real rather than dominated
// by allocator traffic.
//
// On YES, Result.Cut aliases the searcher's scratch (and Result.PathEdges
// its Aux buffer); both are valid only until the next use of s; callers
// that retain them must copy. The searcher's fault mask is reset on entry
// and on exit (both O(1)), so s carries no state between calls and stays
// safe for direct Dist/BFS use afterwards.
//
// Concurrency contract (audited for core.ModifiedGreedyBatched): DecideWith
// treats g strictly read-only — every mutation it performs (fault mask,
// scratch, BFS state, the optional expanded-vertex log) lands in s. Distinct
// Searchers may therefore run DecideWith concurrently against a shared
// frozen View with no synchronization; a single Searcher never may. Any
// future code on this path that wants to cache or memoize into the graph
// must not: put per-call state in the Searcher.
func DecideWith(s *sp.Searcher, g graph.View, u, v, t, alpha int, mode Mode) (Result, error) {
	s.ResetBlocked()
	return DecideWithBlocked(s, g, u, v, t, alpha, mode)
}

// DecideWithBlocked is DecideWith on the subgraph of g minus the elements
// currently blocked in s's fault mask: pre-blocked vertices and edges are
// treated as absent from g and never enter the cut or the witness. This is
// how the dynamic maintainer re-decides an edge of a weighted graph against
// the light prefix H_{≤w}: it pins every heavier spanner edge and decides on
// the rest, preserving the Theorem 10 weight-ordering argument without
// materializing the filtered subgraph (whose edge IDs would not match H's).
//
// The mask is reset before returning, pins included — callers re-pin per
// call.
func DecideWithBlocked(s *sp.Searcher, g graph.View, u, v, t, alpha int, mode Mode) (Result, error) {
	if err := validate(g, u, v, t, alpha, mode); err != nil {
		return Result{}, err
	}
	s.Grow(g.N(), g.EdgeIDLimit())
	defer s.ResetBlocked()
	cut := s.Scratch[:0]
	witness := s.Aux[:0]
	finish := func(res Result) (Result, error) {
		s.Scratch = cut
		s.Aux = witness
		if len(witness) > 0 {
			res.PathEdges = witness
		}
		return res, nil
	}
	for pass := 1; pass <= alpha+1; pass++ {
		vertices, edgeIDs, found := s.PathWithin(g, u, v, t)
		if !found {
			return finish(Result{Yes: true, Cut: cut, Passes: pass})
		}
		witness = append(witness, edgeIDs...)
		added := 0
		switch mode {
		case Vertex:
			// Add all internal vertices of the path to F.
			for _, x := range vertices[1 : len(vertices)-1] {
				s.BlockVertex(x)
				cut = append(cut, x)
				added++
			}
		case Edge:
			for _, id := range edgeIDs {
				s.BlockEdge(id)
				cut = append(cut, id)
				added++
			}
		}
		if added == 0 {
			// The pass contributed nothing to the cut: in vertex mode a
			// 1-hop u-v path has no internal vertices, and no vertex cut can
			// ever remove a direct edge. Without this short-circuit every
			// remaining pass re-finds the same path, burning all alpha+1
			// BFS passes (and inflating Passes) before answering NO.
			return finish(Result{Yes: false, Passes: pass})
		}
	}
	return finish(Result{Yes: false, Passes: alpha + 1})
}

func validate(g graph.View, u, v, t, alpha int, mode Mode) error {
	if !mode.valid() {
		return fmt.Errorf("lbc: invalid mode %v", mode)
	}
	n := g.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("lbc: terminal out of range: u=%d v=%d n=%d", u, v, n)
	}
	if u == v {
		return fmt.Errorf("lbc: terminals must differ, got u=v=%d", u)
	}
	if t < 1 {
		return fmt.Errorf("lbc: hop bound t must be >= 1, got %d", t)
	}
	if alpha < 0 {
		return fmt.Errorf("lbc: budget alpha must be >= 0, got %d", alpha)
	}
	return nil
}

// IsCut reports whether the given fault set (vertices or edge IDs, per mode)
// is a valid length-t-cut for u, v in g: after removing it, no u-v path of
// at most t hops remains. For Vertex mode, sets containing a terminal are
// rejected (a cut must avoid the terminals by definition).
func IsCut(g graph.View, u, v, t int, cut []int, mode Mode) (bool, error) {
	if err := validate(g, u, v, t, 0, mode); err != nil {
		return false, err
	}
	var blocked sp.Blocked
	switch mode {
	case Vertex:
		for _, x := range cut {
			if x == u || x == v {
				return false, nil
			}
			if x < 0 || x >= g.N() {
				return false, fmt.Errorf("lbc: cut vertex %d out of range", x)
			}
		}
		blocked = sp.BlockVertices(g, cut...)
	case Edge:
		for _, id := range cut {
			if id < 0 || id >= g.EdgeIDLimit() {
				return false, fmt.Errorf("lbc: cut edge ID %d out of range", id)
			}
		}
		blocked = sp.BlockEdges(g, cut...)
	}
	_, _, found := sp.PathWithin(g, u, v, t, blocked)
	return !found, nil
}

// Exact computes a minimum length-t-cut for u, v in g by enumerating subsets
// of increasing size up to maxSize. It returns the cut and found=true if a
// cut of size at most maxSize exists. Running time is O(C(n, maxSize)·(m+n))
// — use only on small instances (the test oracle of TestGapGuarantee).
func Exact(g graph.View, u, v, t, maxSize int, mode Mode) (cut []int, found bool, err error) {
	if err := validate(g, u, v, t, 0, mode); err != nil {
		return nil, false, err
	}
	if maxSize < 0 {
		return nil, false, fmt.Errorf("lbc: maxSize must be >= 0, got %d", maxSize)
	}

	// Candidate elements: vertices other than the terminals, or all edges.
	var candidates []int
	switch mode {
	case Vertex:
		for x := 0; x < g.N(); x++ {
			if x != u && x != v {
				candidates = append(candidates, x)
			}
		}
	case Edge:
		for id := 0; id < g.EdgeIDLimit(); id++ {
			if g.EdgeAlive(id) {
				candidates = append(candidates, id)
			}
		}
	}

	var best []int
	combin.ForEachUpTo(len(candidates), maxSize, func(idx []int) bool {
		trial := make([]int, len(idx))
		for i, c := range idx {
			trial[i] = candidates[c]
		}
		ok, cerr := IsCut(g, u, v, t, trial, mode)
		if cerr != nil {
			err = cerr
			return true
		}
		if ok {
			best = trial
			return true // sizes enumerated ascending, so first hit is minimum
		}
		return false
	})
	if err != nil {
		return nil, false, err
	}
	if best == nil {
		return nil, false, nil
	}
	return best, true, nil
}
