package graph

import "fmt"

// View is the read-only adjacency interface shared by *Graph and *CSR.
// Every search and construction algorithm in this module reads a graph
// through exactly these methods, so the two representations are
// interchangeable wherever the graph is not being mutated: build a *Graph
// under churn, snapshot it as a *CSR for the query hot path.
type View interface {
	// N is the vertex count; vertices are dense IDs in [0, N()).
	N() int
	// M is the number of live edges.
	M() int
	// Weighted reports whether edges carry weights other than 1.
	Weighted() bool
	// EdgeIDLimit bounds the edge-ID space; see Graph.EdgeIDLimit.
	EdgeIDLimit() int
	// EdgeAlive reports whether id identifies a live edge.
	EdgeAlive(id int) bool
	// Adj returns the adjacency list of u, owned by the representation.
	Adj(u int) []HalfEdge
	// Edge returns the edge with the given ID (U = V = -1 for a dead ID).
	Edge(id int) Edge
	// Weight returns the weight of edge id (1 for unweighted graphs).
	Weight(id int) float64
	// EdgeBetween returns the ID of the edge {u, v} if present.
	EdgeBetween(u, v int) (int, bool)
	// EdgeIDs returns the live edge IDs in ascending ID order.
	EdgeIDs() []int
	// EdgeIDsByWeight returns the live edge IDs by nondecreasing weight,
	// ties broken by ID.
	EdgeIDsByWeight() []int
}

var (
	_ View = (*Graph)(nil)
	_ View = (*CSR)(nil)
)

// CSR is an immutable compressed-sparse-row snapshot of a graph: one flat
// []HalfEdge backing array plus per-vertex offsets instead of n separate
// adjacency slices. Iterating a neighborhood touches one contiguous cache
// run, and a whole-graph scan is a single sequential sweep — the difference
// between thrashing and streaming once n reaches 10^5 and the per-vertex
// slices of *Graph scatter across the heap.
//
// A CSR preserves the source graph exactly: the same vertex IDs, the same
// edge-ID space (dead free-listed slots included), and the same per-vertex
// adjacency order. Searches and greedy builds therefore produce identical
// results on either representation (pinned by TestCSREquivalence).
//
// The zero value is not useful; build one with BuildCSR.
// A CSR is safe for concurrent readers (nothing mutates it after
// construction).
type CSR struct {
	weighted bool
	m        int
	offsets  []int // len N()+1; adjacency of u is halves[offsets[u]:offsets[u+1]]
	halves   []HalfEdge
	edges    []Edge // indexed by edge ID; dead slots hold U = V = -1
}

// BuildCSR snapshots g into CSR form in O(n+m). Later mutations of g do not
// affect the snapshot.
func BuildCSR(g *Graph) *CSR {
	n := g.N()
	c := &CSR{
		weighted: g.weighted,
		m:        g.M(),
		offsets:  make([]int, n+1),
		edges:    append([]Edge(nil), g.edges...),
	}
	total := 0
	for u := 0; u < n; u++ {
		c.offsets[u] = total
		total += len(g.adj[u])
	}
	c.offsets[n] = total
	c.halves = make([]HalfEdge, total)
	for u := 0; u < n; u++ {
		copy(c.halves[c.offsets[u]:], g.adj[u])
	}
	return c
}

// Weighted reports whether the snapshot carries edge weights.
func (c *CSR) Weighted() bool { return c.weighted }

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// M returns the number of live edges.
func (c *CSR) M() int { return c.m }

// EdgeIDLimit returns the exclusive upper bound of the edge-ID space,
// matching the source graph's (dead slots included).
func (c *CSR) EdgeIDLimit() int { return len(c.edges) }

// EdgeAlive reports whether id identifies a live edge.
func (c *CSR) EdgeAlive(id int) bool {
	return id >= 0 && id < len(c.edges) && c.edges[id].U >= 0
}

// Adj returns the adjacency list of u as a subslice of the flat backing
// array. It is owned by the CSR and must not be modified.
func (c *CSR) Adj(u int) []HalfEdge { return c.halves[c.offsets[u]:c.offsets[u+1]] }

// Degree returns the number of edges incident to u.
func (c *CSR) Degree(u int) int { return c.offsets[u+1] - c.offsets[u] }

// Edge returns the edge with the given ID.
func (c *CSR) Edge(id int) Edge { return c.edges[id] }

// Weight returns the weight of edge id (1 for unweighted graphs).
func (c *CSR) Weight(id int) float64 { return c.edges[id].W }

// Edges returns a copy of the live edge list in ascending edge-ID order.
func (c *CSR) Edges() []Edge {
	out := make([]Edge, 0, c.m)
	for _, e := range c.edges {
		if e.U >= 0 {
			out = append(out, e)
		}
	}
	return out
}

// EdgeBetween returns the ID of the edge {u, v} if present, scanning the
// shorter of the two adjacency runs exactly like Graph.EdgeBetween.
func (c *CSR) EdgeBetween(u, v int) (int, bool) {
	n := c.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		return 0, false
	}
	if c.Degree(u) > c.Degree(v) {
		u, v = v, u
	}
	for _, he := range c.Adj(u) {
		if he.To == v {
			return he.ID, true
		}
	}
	return 0, false
}

// HasEdge reports whether the edge {u, v} is present.
func (c *CSR) HasEdge(u, v int) bool {
	_, ok := c.EdgeBetween(u, v)
	return ok
}

// EdgeIDs returns the IDs of all live edges in ascending ID order.
func (c *CSR) EdgeIDs() []int {
	ids := make([]int, 0, c.m)
	for id := range c.edges {
		if c.edges[id].U >= 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// EdgeIDsByWeight returns all live edge IDs sorted by nondecreasing weight,
// breaking ties by edge ID; the same radix sort as Graph.EdgeIDsByWeight,
// so both representations give the same order.
func (c *CSR) EdgeIDsByWeight() []int {
	ids := c.EdgeIDs()
	sortByWeight(ids, c.edges)
	return ids
}

// ToGraph materializes the snapshot back into a mutable *Graph with the same
// vertex IDs, edge IDs, and adjacency order.
func (c *CSR) ToGraph() *Graph {
	g := &Graph{
		weighted: c.weighted,
		adj:      make([][]HalfEdge, c.N()),
		edges:    append([]Edge(nil), c.edges...),
	}
	for id, e := range c.edges {
		if e.U < 0 {
			g.free = append(g.free, id)
		}
	}
	for u := range g.adj {
		if d := c.Degree(u); d > 0 {
			g.adj[u] = append(make([]HalfEdge, 0, d), c.Adj(u)...)
		}
	}
	return g
}

// String returns a short human-readable summary.
func (c *CSR) String() string {
	kind := "unweighted"
	if c.weighted {
		kind = "weighted"
	}
	return fmt.Sprintf("csr(n=%d, m=%d, %s)", c.N(), c.M(), kind)
}
