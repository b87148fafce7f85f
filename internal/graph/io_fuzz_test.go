package graph

import (
	"bytes"
	"testing"
)

// FuzzReadStream cross-checks the two readers on arbitrary input: Read must
// accept exactly the streams StreamEdges accepts that hold no duplicate
// edge, must return the streamed edges in order as edge IDs 0..m-1, and what
// it accepts must round-trip through Write. Neither may panic on garbage,
// and Read must reject a malformed stream before it sizes anything from the
// header.
func FuzzReadStream(f *testing.F) {
	f.Add([]byte("graph 3 2 unweighted\n0 1\n1 2\n"))
	f.Add([]byte("graph 4 3 weighted\n0 1 0.5\n1 2 5e-324\n2 3 1e300\n"))
	f.Add([]byte("# comment\n\ngraph 2 1 unweighted\n# c\n0 1\n# trailing\n"))
	f.Add([]byte("graph 0 0 unweighted\n"))
	f.Add([]byte("graph 10 0 weighted\n"))
	f.Add([]byte("grph 3 2 unweighted\n0 1\n1 2\n"))
	f.Add([]byte("graph 3 2 unweighted\n0 1\n"))
	f.Add([]byte("graph 3 1 weighted\n0 1 -4\n"))
	f.Add([]byte("graph 3 2 unweighted\n0 1\n1 0\n"))
	f.Add([]byte("graph 1000000000 2 unweighted\n0 1\n1 2\n"))
	f.Add([]byte("graph 3 1 unweighted\n1 1\n"))
	f.Add([]byte("graph 3 1 weighted\n0 1 NaN\n"))
	f.Add([]byte("graph 3 1 weighted\n0 1 +Inf\n"))
	// A malformed stream behind a header claiming 10^9 vertices: Read used
	// to allocate the adjacency before reaching the bad line.
	f.Add([]byte("graph 1000010000 2 unweighted\n0 0\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			hdr   StreamHeader
			edges []Edge
		)
		streamErr := StreamEdges(bytes.NewReader(data),
			func(h StreamHeader) error {
				hdr = h
				return nil
			},
			func(u, v int, w float64) error {
				if u > v {
					u, v = v, u
				}
				edges = append(edges, Edge{U: u, V: v, W: w})
				return nil
			})
		// A well-formed stream may honestly claim a graph too large to
		// materialize here; malformed ones must be rejected whatever their
		// header says.
		if streamErr == nil && (hdr.N > 1_000_000 || hdr.M > 1_000_000) {
			t.Skip("header demands oversized graph")
		}
		duplicate := false
		seen := make(map[[2]int]bool, len(edges))
		for _, e := range edges {
			duplicate = duplicate || seen[[2]int{e.U, e.V}]
			seen[[2]int{e.U, e.V}] = true
		}

		g, readErr := Read(bytes.NewReader(data))
		if readErr != nil {
			if streamErr == nil && !duplicate {
				t.Fatalf("Read rejected (%v) a duplicate-free stream StreamEdges accepted", readErr)
			}
			return
		}
		if streamErr != nil {
			t.Fatalf("Read accepted but StreamEdges rejected: %v", streamErr)
		}
		if duplicate {
			t.Fatal("Read accepted a stream with a duplicate edge")
		}
		if g.N() != hdr.N || g.M() != len(edges) || g.Weighted() != hdr.Weighted {
			t.Fatalf("Read %v disagrees with stream header %+v and %d edges", g, hdr, len(edges))
		}
		for id, e := range edges {
			if g.Edge(id) != e {
				t.Fatalf("Edge(%d): Read %v, stream %v", id, g.Edge(id), e)
			}
		}

		// Round trip: what we accepted must serialize and re-read to the
		// same graph.
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("Write of accepted graph failed: %v", err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of serialized graph failed: %v", err)
		}
		if back.N() != g.N() || back.M() != g.M() || back.Weighted() != g.Weighted() {
			t.Fatalf("round trip changed the graph: %v -> %v", g, back)
		}
	})
}
