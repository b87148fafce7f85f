// Package gen generates the synthetic graph workloads used by the examples,
// tests, and the benchmark.
//
// The paper's theorems quantify over all graphs, so the reproduction sweeps a
// matrix of graph families: dense/sparse random graphs, geometric graphs
// (weighted by Euclidean distance — the classical spanner motivation),
// structured topologies (grids, tori, hypercubes), preferential-attachment
// and small-world graphs, and degenerate cases (paths, cycles, trees, stars,
// complete graphs).
//
// Every randomized generator takes an explicit *rand.Rand so that workloads
// are reproducible bit-for-bit from a seed. Generators never return an error
// for randomness reasons; errors indicate invalid parameters.
package gen

import (
	"fmt"

	"ftspanner/internal/graph"
)

// Path returns the path graph 0-1-...-(n-1).
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

// Cycle returns the cycle graph on n >= 3 vertices.
func Cycle(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("gen: cycle needs n >= 3, got %d", n)
	}
	g := Path(n)
	g.MustAddEdge(n-1, 0)
	return g, nil
}

// Star returns the star graph: vertex 0 connected to vertices 1..n-1.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i)
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// CompleteBipartite returns K_{a,b}: vertices 0..a-1 on one side and
// a..a+b-1 on the other.
func CompleteBipartite(a, b int) *graph.Graph {
	g := graph.New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// Grid returns the rows x cols grid graph. Vertex (r,c) has ID r*cols+c.
func Grid(rows, cols int) (*graph.Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("gen: grid needs positive dimensions, got %dx%d", rows, cols)
	}
	g := graph.New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			if c+1 < cols {
				g.MustAddEdge(id, id+1)
			}
			if r+1 < rows {
				g.MustAddEdge(id, id+cols)
			}
		}
	}
	return g, nil
}

// Torus returns the rows x cols torus: the grid with wraparound edges.
// Both dimensions must be at least 3 so the wraparound edges are neither
// self-loops nor duplicates of grid edges.
func Torus(rows, cols int) (*graph.Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("gen: torus needs dimensions >= 3, got %dx%d", rows, cols)
	}
	g, err := Grid(rows, cols)
	if err != nil {
		return nil, err
	}
	for r := 0; r < rows; r++ {
		g.MustAddEdge(r*cols, r*cols+cols-1)
	}
	for c := 0; c < cols; c++ {
		g.MustAddEdge(c, (rows-1)*cols+c)
	}
	return g, nil
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d vertices, where
// vertices are adjacent iff their IDs differ in exactly one bit. This is the
// topology of the Peleg-Ullman synchronizer application that introduced
// spanners.
func Hypercube(d int) (*graph.Graph, error) {
	if d < 0 || d > 24 {
		return nil, fmt.Errorf("gen: hypercube dimension %d out of range [0,24]", d)
	}
	n := 1 << uint(d)
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << uint(b))
			if u < v {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g, nil
}
