package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteReadRoundTripUnweighted(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)

	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !got.IsSubgraphOf(g) || !g.IsSubgraphOf(got) {
		t.Errorf("round trip changed the graph: got %v", got)
	}
	if got.Weighted() {
		t.Error("round trip changed weightedness")
	}
}

func TestWriteReadRoundTripWeighted(t *testing.T) {
	g := NewWeighted(4)
	g.MustAddEdgeW(0, 1, 0.125)
	g.MustAddEdgeW(1, 2, 3.14159265358979)
	g.MustAddEdgeW(2, 3, 1e-9)

	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !got.IsSubgraphOf(g) || !g.IsSubgraphOf(got) {
		t.Errorf("weighted round trip changed the graph (weights must be exact)")
	}
}

func TestReadCommentsAndBlankLines(t *testing.T) {
	input := `
# a comment
graph 3 2 unweighted

# edges follow
0 1

1 2
`
	g, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Errorf("got %v, want n=3 m=2", g)
	}
}

func TestReadErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{"empty input", ""},
		{"bad header keyword", "grph 3 2 unweighted\n0 1\n1 2\n"},
		{"bad n", "graph x 1 unweighted\n0 1\n"},
		{"negative n", "graph -1 0 unweighted\n"},
		{"bad m", "graph 3 x unweighted\n"},
		{"bad kind", "graph 3 1 directed\n0 1\n"},
		{"truncated edges", "graph 3 2 unweighted\n0 1\n"},
		{"bad endpoint", "graph 3 1 unweighted\n0 x\n"},
		{"out of range endpoint", "graph 3 1 unweighted\n0 7\n"},
		{"negative endpoint", "graph 3 1 unweighted\n-1 2\n"},
		{"self loop", "graph 3 1 unweighted\n1 1\n"},
		{"duplicate edge", "graph 3 2 unweighted\n0 1\n1 0\n"},
		{"missing weight field", "graph 3 1 weighted\n0 1\n"},
		{"extra field unweighted", "graph 3 1 unweighted\n0 1 2.0\n"},
		{"bad weight", "graph 3 1 weighted\n0 1 heavy\n"},
		{"negative weight", "graph 3 1 weighted\n0 1 -4\n"},
		{"nan weight", "graph 3 1 weighted\n0 1 NaN\n"},
		{"trailing content", "graph 2 1 unweighted\n0 1\n0 1\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tc.input)); err == nil {
				t.Errorf("Read(%q) succeeded, want error", tc.input)
			}
		})
	}
}

func TestReadZeroGraphs(t *testing.T) {
	g, err := Read(strings.NewReader("graph 0 0 unweighted\n"))
	if err != nil {
		t.Fatalf("Read empty graph: %v", err)
	}
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("got %v, want empty", g)
	}
	g, err = Read(strings.NewReader("graph 10 0 weighted\n"))
	if err != nil {
		t.Fatalf("Read edgeless graph: %v", err)
	}
	if g.N() != 10 || g.M() != 0 || !g.Weighted() {
		t.Errorf("got %v, want weighted n=10 m=0", g)
	}
}
