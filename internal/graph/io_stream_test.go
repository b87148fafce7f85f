package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// streamCopy pipes g through StreamWriter in edge-ID order, exactly like
// Write does, and returns the bytes.
func streamCopy(t *testing.T, g View) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, g.N(), g.M(), g.Weighted())
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.EdgeIDLimit(); id++ {
		if !g.EdgeAlive(id) {
			continue
		}
		e := g.Edge(id)
		if err := sw.Edge(e.U, e.V, e.W); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamWriteReadEqualsMaterialized pins the two IO layers to each other:
// stream-write then stream-read must agree with Write + Read on the same
// graph, edge for edge and byte for byte.
func TestStreamWriteReadEqualsMaterialized(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := mutatedGraph(seed)
		streamed := streamCopy(t, g)
		var materialized bytes.Buffer
		if err := Write(&materialized, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed, materialized.Bytes()) {
			t.Fatalf("seed %d: StreamWriter output differs from Write output", seed)
		}

		var hdr StreamHeader
		var edges []Edge
		err := StreamEdges(bytes.NewReader(streamed),
			func(h StreamHeader) error { hdr = h; return nil },
			func(u, v int, w float64) error {
				edges = append(edges, Edge{U: u, V: v, W: w})
				return nil
			})
		if err != nil {
			t.Fatalf("seed %d: StreamEdges: %v", seed, err)
		}
		back, err := Read(bytes.NewReader(streamed))
		if err != nil {
			t.Fatalf("seed %d: Read: %v", seed, err)
		}
		if hdr.N != back.N() || hdr.M != back.M() || hdr.Weighted != back.Weighted() {
			t.Fatalf("seed %d: stream header %+v disagrees with Read %v", seed, hdr, back)
		}
		got := back.Edges()
		if len(edges) != len(got) {
			t.Fatalf("seed %d: stream saw %d edges, Read saw %d", seed, len(edges), len(got))
		}
		for i := range edges {
			u, v := edges[i].U, edges[i].V
			if u > v {
				u, v = v, u
			}
			if (Edge{U: u, V: v, W: edges[i].W}) != got[i] {
				t.Fatalf("seed %d: edge %d: stream %v, Read %v", seed, i, edges[i], got[i])
			}
		}
	}
}

// TestReadLarge reads a generated n=10^5 graph back and spot-checks it
// against the source: same IDs, same adjacency order.
func TestReadLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large-graph IO test skipped in -short mode")
	}
	const n = 100_000
	rng := rand.New(rand.NewSource(42))
	g := NewWeighted(n)
	for u := 1; u < n; u++ {
		g.MustAddEdgeW(rng.Intn(u), u, 1+rng.Float64())
	}
	for try := 0; try < n; try++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdgeW(u, v, 1+rng.Float64())
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("read %v, source %v", back, g)
	}
	for trial := 0; trial < 1000; trial++ {
		u := rng.Intn(n)
		if !slices.Equal(back.Adj(u), g.Adj(u)) {
			t.Fatalf("Adj(%d): read %v, source %v", u, back.Adj(u), g.Adj(u))
		}
		for _, he := range g.Adj(u) {
			if back.Edge(he.ID) != g.Edge(he.ID) {
				t.Fatalf("Edge(%d): read %v, source %v", he.ID, back.Edge(he.ID), g.Edge(he.ID))
			}
		}
	}
}

// TestStreamEdgesErrorsCarryLineNumbers asserts the reader rejects
// truncated/garbage input and that every rejection names the offending
// 1-based line.
func TestStreamEdgesErrorsCarryLineNumbers(t *testing.T) {
	tests := []struct {
		name     string
		input    string
		wantLine int
	}{
		{"bad header", "grph 3 2 unweighted\n", 1},
		{"bad header after comment", "# hi\ngrph 3 2 unweighted\n", 2},
		{"bad n", "graph x 1 unweighted\n0 1\n", 1},
		{"bad kind", "graph 3 1 directed\n0 1\n", 1},
		{"bad endpoint", "graph 3 1 unweighted\n0 x\n", 2},
		{"out of range", "graph 3 1 unweighted\n0 7\n", 2},
		{"self loop", "graph 3 1 unweighted\n1 1\n", 2},
		{"bad weight", "graph 3 1 weighted\n0 1 heavy\n", 2},
		{"negative weight", "graph 3 1 weighted\n0 1 -4\n", 2},
		{"field count", "graph 3 1 unweighted\n0 1 2.0\n", 2},
		{"truncated", "graph 3 2 unweighted\n0 1\n", 2},
		{"truncated with comments", "graph 3 2 unweighted\n# c\n0 1\n# c\n", 4},
		{"trailing content", "graph 2 1 unweighted\n0 1\n0 1\n", 3},
		{"second edge garbage", "graph 4 3 unweighted\n0 1\nzap\n2 3\n", 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := StreamEdges(strings.NewReader(tc.input), nil, nil)
			if err == nil {
				t.Fatalf("StreamEdges(%q) succeeded, want error", tc.input)
			}
			want := fmt.Sprintf("line %d", tc.wantLine)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		})
	}
}

// TestStreamEdgesCallbackErrorsPropagate pins that callback errors stop the
// scan and surface unwrapped.
func TestStreamEdgesCallbackErrorsPropagate(t *testing.T) {
	sentinel := fmt.Errorf("stop here")
	err := StreamEdges(strings.NewReader("graph 3 2 unweighted\n0 1\n1 2\n"),
		func(StreamHeader) error { return sentinel }, nil)
	if err != sentinel {
		t.Fatalf("header error: got %v, want sentinel", err)
	}
	calls := 0
	err = StreamEdges(strings.NewReader("graph 3 2 unweighted\n0 1\n1 2\n"),
		nil, func(u, v int, w float64) error { calls++; return sentinel })
	if err != sentinel || calls != 1 {
		t.Fatalf("edge error: got %v after %d calls, want sentinel after 1", err, calls)
	}
}

// TestStreamWriterValidates pins the writer-side checks: a stream that
// writes cleanly must read cleanly, so the writer rejects what the reader
// would.
func TestStreamWriterValidates(t *testing.T) {
	newW := func() *StreamWriter {
		sw, err := NewStreamWriter(&bytes.Buffer{}, 3, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	if err := newW().Edge(0, 3, 1); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	if err := newW().Edge(1, 1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := newW().Edge(0, 1, 2); err == nil {
		t.Error("weight 2 on unweighted accepted")
	}
	sw := newW()
	if err := sw.Edge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := sw.Edge(1, 2, 1); err == nil {
		t.Error("edge beyond declared count accepted")
	}
	if err := newW().Close(); err == nil {
		t.Error("Close with missing edges succeeded — truncated output must not pass")
	}
	if _, err := NewStreamWriter(&bytes.Buffer{}, -1, 0, false); err == nil {
		t.Error("negative n accepted")
	}
}

// TestWriteAcceptsCSR pins that a CSR snapshot serializes byte-identically
// to the graph it was built from (modulo dead slots, which Write skips for
// both).
func TestWriteAcceptsCSR(t *testing.T) {
	for seed := int64(70); seed < 75; seed++ {
		g := mutatedGraph(seed)
		var fromGraph, fromCSR bytes.Buffer
		if err := Write(&fromGraph, g); err != nil {
			t.Fatal(err)
		}
		if err := Write(&fromCSR, BuildCSR(g)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fromGraph.Bytes(), fromCSR.Bytes()) {
			t.Fatalf("seed %d: Write(CSR) differs from Write(Graph)", seed)
		}
	}
}
