package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The on-disk format is a line-oriented text format:
//
//	# comments and blank lines are ignored
//	graph <n> <m> <weighted|unweighted>
//	<u> <v>          (unweighted edge line)
//	<u> <v> <w>      (weighted edge line)
//
// Exactly m edge lines must follow the header. The format is deliberately
// trivial: it round-trips through version control diffs, is easy to generate
// from other tools, and imposes no dependency.
//
// Two access layers share the format. Read/Write materialize a *Graph (its
// edge list plus two HalfEdges per edge). StreamEdges / StreamWriter process
// one edge at a time and hold nothing beyond one line of text.

// StreamHeader is the parsed `graph <n> <m> <kind>` header line handed to a
// StreamEdges callback before any edges.
type StreamHeader struct {
	N, M     int
	Weighted bool
}

// StreamEdges parses the text format edge-at-a-time: header is called once
// with the parsed header, then edge is called once per edge line, in file
// order, with the line's endpoints and weight (1 for unweighted graphs).
// Neither the graph nor the edge list is materialized.
//
// Structural validation matches Read: endpoints must lie in [0, n), self-loops
// and invalid weights are rejected, exactly m edge lines must be present, and
// trailing non-comment content is an error. Duplicate edges are NOT detected
// here (that would require O(m) state, defeating streaming); Read layers
// that check on top. Errors carry the 1-based line number of the offending
// input line. An error returned by a callback stops the scan and is
// returned unwrapped.
func StreamEdges(r io.Reader, header func(StreamHeader) error, edge func(u, v int, w float64) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	line, lineNo, err := nextContentLine(sc, 0)
	if err != nil {
		return fmt.Errorf("graph: read header: %w", err)
	}
	hdr, err := parseHeader(line, lineNo)
	if err != nil {
		return err
	}
	if header != nil {
		if err := header(hdr); err != nil {
			return err
		}
	}

	wantFields := 2
	if hdr.Weighted {
		wantFields = 3
	}
	for i := 0; i < hdr.M; i++ {
		line, lineNo, err = nextContentLine(sc, lineNo)
		if err != nil {
			return fmt.Errorf("graph: line %d: edge %d of %d: %w", lineNo, i+1, hdr.M, err)
		}
		fields := strings.Fields(line)
		if len(fields) != wantFields {
			return fmt.Errorf("graph: line %d: edge line %q has %d fields, want %d", lineNo, line, len(fields), wantFields)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return fmt.Errorf("graph: line %d: bad endpoint %q", lineNo, fields[0])
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("graph: line %d: bad endpoint %q", lineNo, fields[1])
		}
		w := 1.0
		if hdr.Weighted {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
			}
		}
		if u < 0 || u >= hdr.N || v < 0 || v >= hdr.N {
			return fmt.Errorf("graph: line %d: edge {%d,%d} out of range [0,%d)", lineNo, u, v, hdr.N)
		}
		if u == v {
			return fmt.Errorf("graph: line %d: self-loop at vertex %d", lineNo, u)
		}
		if err := checkWeight(hdr.Weighted, w); err != nil {
			return fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		if edge != nil {
			if err := edge(u, v, w); err != nil {
				return err
			}
		}
	}
	if line, lineNo, err = nextContentLine(sc, lineNo); err == nil {
		return fmt.Errorf("graph: line %d: unexpected trailing content %q", lineNo, line)
	} else if err != io.EOF {
		return fmt.Errorf("graph: trailing read: %w", err)
	}
	return nil
}

// parseHeader parses a `graph <n> <m> <kind>` line.
func parseHeader(line string, lineNo int) (StreamHeader, error) {
	fields := strings.Fields(line)
	if len(fields) != 4 || fields[0] != "graph" {
		return StreamHeader{}, fmt.Errorf("graph: line %d: malformed header %q", lineNo, line)
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 0 {
		return StreamHeader{}, fmt.Errorf("graph: line %d: bad vertex count %q", lineNo, fields[1])
	}
	m, err := strconv.Atoi(fields[2])
	if err != nil || m < 0 {
		return StreamHeader{}, fmt.Errorf("graph: line %d: bad edge count %q", lineNo, fields[2])
	}
	hdr := StreamHeader{N: n, M: m}
	switch fields[3] {
	case "weighted":
		hdr.Weighted = true
	case "unweighted":
	default:
		return StreamHeader{}, fmt.Errorf("graph: line %d: bad kind %q (want weighted or unweighted)", lineNo, fields[3])
	}
	return hdr, nil
}

// StreamWriter emits the text format edge-at-a-time: the header is written up
// front from the declared counts, then one Edge call per edge, then Close.
// Nothing is buffered beyond the underlying bufio.Writer, so a generator can
// emit a 10^6-node graph without ever materializing it.
type StreamWriter struct {
	bw       *bufio.Writer
	hdr      StreamHeader
	written  int
	hdrError error
}

// NewStreamWriter writes the header for a graph with n vertices and m edges
// to w and returns a writer expecting exactly m Edge calls.
func NewStreamWriter(w io.Writer, n, m int, weighted bool) (*StreamWriter, error) {
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: stream writer needs n, m >= 0, got n=%d m=%d", n, m)
	}
	sw := &StreamWriter{bw: bufio.NewWriter(w), hdr: StreamHeader{N: n, M: m, Weighted: weighted}}
	kind := "unweighted"
	if weighted {
		kind = "weighted"
	}
	if _, err := fmt.Fprintf(sw.bw, "graph %d %d %s\n", n, m, kind); err != nil {
		return nil, fmt.Errorf("graph: write header: %w", err)
	}
	return sw, nil
}

// Edge writes one edge line. It validates against the declared header the
// same way StreamEdges validates on read, so a stream that writes cleanly is
// guaranteed to read cleanly.
func (sw *StreamWriter) Edge(u, v int, w float64) error {
	if sw.written >= sw.hdr.M {
		return fmt.Errorf("graph: stream writer: edge %d exceeds declared count %d", sw.written+1, sw.hdr.M)
	}
	if u < 0 || u >= sw.hdr.N || v < 0 || v >= sw.hdr.N {
		return fmt.Errorf("graph: stream writer: edge {%d,%d} out of range [0,%d)", u, v, sw.hdr.N)
	}
	if u == v {
		return fmt.Errorf("graph: stream writer: self-loop at vertex %d", u)
	}
	if err := checkWeight(sw.hdr.Weighted, w); err != nil {
		return fmt.Errorf("graph: stream writer: %w", err)
	}
	var err error
	if sw.hdr.Weighted {
		_, err = fmt.Fprintf(sw.bw, "%d %d %s\n", u, v, strconv.FormatFloat(w, 'g', -1, 64))
	} else {
		_, err = fmt.Fprintf(sw.bw, "%d %d\n", u, v)
	}
	if err != nil {
		return fmt.Errorf("graph: write edge {%d,%d}: %w", u, v, err)
	}
	sw.written++
	return nil
}

// Close flushes the writer and fails if fewer edges were written than the
// header declared, so truncated output cannot pass silently.
func (sw *StreamWriter) Close() error {
	if sw.written != sw.hdr.M {
		return fmt.Errorf("graph: stream writer: wrote %d of %d declared edges", sw.written, sw.hdr.M)
	}
	if err := sw.bw.Flush(); err != nil {
		return fmt.Errorf("graph: flush: %w", err)
	}
	return nil
}

// Write encodes g to w in the text format. It accepts any View, so CSR
// snapshots serialize identically to the graphs they were built from.
func Write(w io.Writer, g View) error {
	sw, err := NewStreamWriter(w, g.N(), g.M(), g.Weighted())
	if err != nil {
		return err
	}
	limit := g.EdgeIDLimit()
	for id := 0; id < limit; id++ {
		if !g.EdgeAlive(id) {
			continue // dead slot left by RemoveEdge; readers get a compact graph
		}
		e := g.Edge(id)
		if err := sw.Edge(e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return sw.Close()
}

// Read decodes a graph from r in the text format produced by Write. The
// whole stream is parsed and validated before the graph is allocated, so a
// malformed stream is rejected before anything is sized from its header,
// and no capacity is ever taken from the header's edge count.
func Read(r io.Reader) (*Graph, error) {
	var (
		hdr   StreamHeader
		edges []Edge
	)
	err := StreamEdges(r,
		func(h StreamHeader) error {
			hdr = h
			return nil
		},
		func(u, v int, w float64) error {
			edges = append(edges, Edge{U: u, V: v, W: w})
			return nil
		})
	if err != nil {
		return nil, err
	}
	g := New(hdr.N)
	g.weighted = hdr.Weighted
	// Edge i gets ID i, so AddEdgeW's append overwrites the buffered edge
	// the loop has just copied out: the buffer becomes the edge list.
	g.edges = edges[:0]
	for _, e := range edges {
		if _, err := g.AddEdgeW(e.U, e.V, e.W); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// checkWeight is CheckWeight without a graph value, for the streaming
// reader and writer.
func checkWeight(weighted bool, w float64) error {
	tmp := Graph{weighted: weighted}
	return CheckWeight(&tmp, w)
}

// nextContentLine advances to the next non-blank, non-comment line and
// returns it together with its 1-based line number. It returns io.EOF when
// the input is exhausted.
func nextContentLine(sc *bufio.Scanner, lineNo int) (string, int, error) {
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, lineNo, nil
	}
	if err := sc.Err(); err != nil {
		return "", lineNo, err
	}
	return "", lineNo, io.EOF
}
