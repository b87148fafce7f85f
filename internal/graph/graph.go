// Package graph provides the undirected graph representation used throughout
// the fault-tolerant spanner library.
//
// Graphs are simple (no self-loops, no parallel edges), undirected, and may
// carry non-negative edge weights. Vertices are identified by dense integer
// IDs in [0, N). Edges are identified by stable integer IDs in
// [0, EdgeIDLimit()): edges are assigned IDs in insertion order, and
// RemoveEdge retires an ID into a free list (later insertions reuse it)
// instead of renumbering, so algorithms can annotate edges with side tables
// and represent fault sets as bitmasks over edge IDs that stay valid across
// removals of other edges. On a graph that has never had an edge removed,
// EdgeIDLimit() == M() and IDs are exactly the dense 0..M-1 of the classic
// representation.
//
// The representation is a classic adjacency list plus an edge list: O(1)
// amortized edge insertion, O(deg) adjacency iteration, O(n+m) clone. This is
// the shape required by the paper's algorithms, which interleave edge
// insertions into a growing spanner H with hop-bounded BFS queries on H.
package graph

import (
	"fmt"
	"math"
)

// Edge is an undirected edge {U, V} with weight W.
//
// For unweighted graphs W is fixed to 1. Endpoints are stored with U < V so
// that two edges are equal iff their normalized endpoint pairs are equal.
type Edge struct {
	U, V int
	W    float64
}

// Other returns the endpoint of e that is not x. It panics if x is not an
// endpoint of e; callers always hold an edge obtained from the graph, so a
// mismatch is a programming error rather than a runtime condition.
func (e Edge) Other(x int) int {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge {%d,%d}", x, e.U, e.V))
}

// HalfEdge is one direction of an undirected edge as seen from a vertex's
// adjacency list: the opposite endpoint and the edge's ID.
type HalfEdge struct {
	To int // opposite endpoint
	ID int // edge ID, index into the graph's edge list
}

// Graph is a simple undirected graph with optional edge weights.
//
// The zero value is an empty unweighted graph with no vertices; use New or
// NewWeighted to create a graph with a fixed vertex count.
type Graph struct {
	weighted bool
	adj      [][]HalfEdge
	edges    []Edge
	// free lists the dead slots of edges (IDs retired by RemoveEdge, in
	// retirement order). A dead slot holds Edge{U: -1, V: -1} so that alive
	// checks need no side table; AddEdgeW pops from free before growing edges.
	free []int
}

// New returns an unweighted graph on n vertices (IDs 0..n-1) and no edges.
// All edges added to it have weight 1.
func New(n int) *Graph {
	return &Graph{adj: make([][]HalfEdge, n)}
}

// NewWeighted returns a weighted graph on n vertices and no edges.
func NewWeighted(n int) *Graph {
	return &Graph{weighted: true, adj: make([][]HalfEdge, n)}
}

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weighted }

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of (live) edges.
func (g *Graph) M() int { return len(g.edges) - len(g.free) }

// EdgeIDLimit returns the exclusive upper bound of the edge-ID space: every
// live edge has an ID in [0, EdgeIDLimit()). Side tables and fault masks
// indexed by edge ID must be sized by this, not by M(), because RemoveEdge
// leaves holes: after removals, M() < EdgeIDLimit() and some IDs below the
// limit are dead (see EdgeAlive).
func (g *Graph) EdgeIDLimit() int { return len(g.edges) }

// EdgeAlive reports whether id identifies a live edge. IDs retired by
// RemoveEdge are dead until AddEdgeW reuses them.
func (g *Graph) EdgeAlive(id int) bool {
	return id >= 0 && id < len(g.edges) && g.edges[id].U >= 0
}

// EdgeIDs returns the IDs of all live edges in ascending ID order. On a
// graph without removals this is simply 0..M()-1 — the insertion order the
// unweighted greedy algorithms use.
func (g *Graph) EdgeIDs() []int {
	ids := make([]int, 0, g.M())
	for id := range g.edges {
		if g.edges[id].U >= 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for u := range g.adj {
		if d := len(g.adj[u]); d > max {
			max = d
		}
	}
	return max
}

// Adj returns the adjacency list of u. The returned slice is owned by the
// graph and must not be modified; it is shared (not copied) because adjacency
// iteration is the innermost loop of every algorithm in this module.
func (g *Graph) Adj(u int) []HalfEdge { return g.adj[u] }

// Edge returns the edge with the given ID. For a dead ID (see RemoveEdge)
// the returned Edge has U = V = -1; callers walking the raw ID space must
// check EdgeAlive first.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns a copy of the live edge list in ascending edge-ID order
// (insertion order when no edge was ever removed).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.M())
	for _, e := range g.edges {
		if e.U >= 0 {
			out = append(out, e)
		}
	}
	return out
}

// Weight returns the weight of edge id (1 for unweighted graphs).
func (g *Graph) Weight(id int) float64 { return g.edges[id].W }

// TotalWeight returns the sum of all live edge weights.
func (g *Graph) TotalWeight() float64 {
	var sum float64
	for _, e := range g.edges {
		if e.U >= 0 {
			sum += e.W
		}
	}
	return sum
}

// AddVertex appends a new isolated vertex and returns its ID.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge adds the unweighted edge {u, v} (weight 1) and returns its ID.
// See AddEdgeW for the error conditions.
func (g *Graph) AddEdge(u, v int) (int, error) {
	return g.AddEdgeW(u, v, 1)
}

// AddEdgeW adds the edge {u, v} with weight w and returns its edge ID.
//
// It returns an error if an endpoint is out of range, u == v (self-loop),
// w is negative or not finite, or the edge already exists. On unweighted
// graphs any w other than 1 is rejected.
func (g *Graph) AddEdgeW(u, v int, w float64) (int, error) {
	n := len(g.adj)
	if u < 0 || u >= n || v < 0 || v >= n {
		return 0, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
	}
	if u == v {
		return 0, fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if err := CheckWeight(g, w); err != nil {
		return 0, fmt.Errorf("%w for edge {%d,%d}", err, u, v)
	}
	if g.HasEdge(u, v) {
		return 0, fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	if u > v {
		u, v = v, u
	}
	var id int
	if nf := len(g.free); nf > 0 {
		// Reuse the most recently retired ID so the ID space stays compact.
		id = g.free[nf-1]
		g.free = g.free[:nf-1]
		g.edges[id] = Edge{U: u, V: v, W: w}
	} else {
		id = len(g.edges)
		g.edges = append(g.edges, Edge{U: u, V: v, W: w})
	}
	g.adj[u] = append(g.adj[u], HalfEdge{To: v, ID: id})
	g.adj[v] = append(g.adj[v], HalfEdge{To: u, ID: id})
	return id, nil
}

// RemoveEdge deletes the edge with the given ID. The ID is retired into a
// free list and stays dead (EdgeAlive(id) == false) until a later AddEdgeW
// reuses it; no other edge is renumbered, so side tables and fault masks
// keyed by edge ID remain valid for every surviving edge. The adjacency
// entries are removed by swap-remove, so the operation is O(deg(u)+deg(v))
// — but note it perturbs the adjacency iteration order of the endpoints.
func (g *Graph) RemoveEdge(id int) error {
	if !g.EdgeAlive(id) {
		return fmt.Errorf("graph: remove of dead edge ID %d (limit %d)", id, len(g.edges))
	}
	e := g.edges[id]
	g.removeHalf(e.U, id)
	g.removeHalf(e.V, id)
	g.edges[id] = Edge{U: -1, V: -1}
	g.free = append(g.free, id)
	return nil
}

// RemoveEdgeBetween removes the edge {u, v} and returns the ID it occupied.
func (g *Graph) RemoveEdgeBetween(u, v int) (int, error) {
	id, ok := g.EdgeBetween(u, v)
	if !ok {
		return 0, fmt.Errorf("graph: remove of missing edge {%d,%d}", u, v)
	}
	return id, g.RemoveEdge(id)
}

// removeHalf swap-removes the adjacency entry of edge id at vertex u.
func (g *Graph) removeHalf(u, id int) {
	a := g.adj[u]
	for i := range a {
		if a[i].ID == id {
			last := len(a) - 1
			a[i] = a[last]
			g.adj[u] = a[:last]
			return
		}
	}
	panic(fmt.Sprintf("graph: edge %d missing from adjacency of vertex %d", id, u))
}

// CheckWeight reports whether w would be accepted by AddEdgeW on g: weights
// must be finite and non-negative (zero is allowed — see the verify package
// for the stretch semantics of zero-weight edges), and exactly 1 on
// unweighted graphs. Callers that validate whole update batches before
// mutating (internal/dynamic) share this check with AddEdgeW.
func CheckWeight(g *Graph, w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("graph: invalid weight %v", w)
	}
	if !g.weighted && w != 1 {
		return fmt.Errorf("graph: weight %v on unweighted graph (must be 1)", w)
	}
	return nil
}

// MustAddEdge is AddEdge for construction code whose inputs are known valid
// (generators, tests). It panics on error.
func (g *Graph) MustAddEdge(u, v int) int {
	id, err := g.AddEdge(u, v)
	if err != nil {
		panic(err)
	}
	return id
}

// MustAddEdgeW is AddEdgeW that panics on error.
func (g *Graph) MustAddEdgeW(u, v int, w float64) int {
	id, err := g.AddEdgeW(u, v, w)
	if err != nil {
		panic(err)
	}
	return id
}

// HasEdge reports whether the edge {u, v} is present. O(min deg).
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.EdgeBetween(u, v)
	return ok
}

// EdgeBetween returns the ID of the edge {u, v} if present.
func (g *Graph) EdgeBetween(u, v int) (int, bool) {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return 0, false
	}
	// Scan the shorter adjacency list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, he := range g.adj[u] {
		if he.To == v {
			return he.ID, true
		}
	}
	return 0, false
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		weighted: g.weighted,
		adj:      make([][]HalfEdge, len(g.adj)),
		edges:    make([]Edge, len(g.edges)),
	}
	copy(c.edges, g.edges)
	if len(g.free) > 0 {
		c.free = make([]int, len(g.free))
		copy(c.free, g.free)
	}
	for u := range g.adj {
		if len(g.adj[u]) == 0 {
			continue
		}
		c.adj[u] = make([]HalfEdge, len(g.adj[u]))
		copy(c.adj[u], g.adj[u])
	}
	return c
}

// EmptyLike returns a graph with the same vertex count and weightedness as g
// but no edges. This is how spanner algorithms create the growing subgraph H.
func (g *Graph) EmptyLike() *Graph {
	return &Graph{weighted: g.weighted, adj: make([][]HalfEdge, len(g.adj))}
}

// NewLike is EmptyLike for any View: an edgeless mutable graph with the
// vertex count and weightedness of g, so construction algorithms can grow a
// spanner of a CSR snapshot just as they do of a *Graph.
func NewLike(g View) *Graph {
	return &Graph{weighted: g.Weighted(), adj: make([][]HalfEdge, g.N())}
}

// EdgeIDsByWeight returns all live edge IDs sorted by nondecreasing weight,
// breaking ties by edge ID so the order is deterministic; -0 and +0 weights
// tie. This is the consideration order of the weighted greedy algorithms
// (Algorithm 1 and Algorithm 4 in the paper). It costs O(m) plus a few
// linear radix passes over the weight bits (see sortByWeight), not a
// comparison sort.
func (g *Graph) EdgeIDsByWeight() []int {
	ids := g.EdgeIDs()
	sortByWeight(ids, g.edges)
	return ids
}

// String returns a short human-readable summary, e.g. "graph(n=5, m=7, weighted)".
func (g *Graph) String() string {
	kind := "unweighted"
	if g.weighted {
		kind = "weighted"
	}
	return fmt.Sprintf("graph(n=%d, m=%d, %s)", g.N(), g.M(), kind)
}
