package sp

import (
	"testing"

	"ftspanner/internal/graph"
)

// FuzzPathWithin decodes arbitrary bytes into a small graph, a fault mask,
// terminals and a hop bound, and requires the Searcher's two-ended
// PathWithin to return the package-level one-sided answer byte for byte.
// One Searcher serves every input, so state leaking between calls shows too.
//
// Layout: n = 2 + data[0]%15, u = data[1]%n, v = data[2]%n, maxHops =
// data[3]%9, blocked vertices = the low n bits of data[4..5], then one
// triple (a, b, flags) per edge {a%n, b%n}, blocked when flags&1 == 1.
// Self-loops and duplicates are skipped, so insertion order fixes the
// adjacency order the tie-breaking depends on.
func FuzzPathWithin(f *testing.F) {
	// Path 0-1-2-3-4, u=0, v=4, exactly at the bound.
	f.Add([]byte{3, 0, 4, 4, 0, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0})
	// Diamond with two equal-length routes listed in opposite orders.
	f.Add([]byte{2, 0, 3, 2, 0, 0, 0, 2, 0, 0, 1, 0, 2, 3, 0, 1, 3, 0})
	// Same diamond, the route the BFS prefers is blocked at its edge.
	f.Add([]byte{2, 0, 3, 2, 0, 0, 0, 2, 1, 0, 1, 0, 2, 3, 0, 1, 3, 0})
	// Two components.
	f.Add([]byte{4, 0, 5, 7, 0, 0, 0, 1, 0, 1, 2, 0, 3, 4, 0, 4, 5, 0})
	// Hub: v's side is small, u's side is a star.
	f.Add([]byte{9, 0, 10, 6, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 5, 9, 0, 9, 10, 0, 3, 9, 0})
	// Blocked terminal.
	f.Add([]byte{3, 0, 4, 4, 1, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0})

	s := NewSearcher(0, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		n := 2 + int(data[0])%15
		u, v := int(data[1])%n, int(data[2])%n
		maxHops := int(data[3]) % 9
		mask := int(data[4]) | int(data[5])<<8
		var vs, es []int
		for x := 0; x < n; x++ {
			if mask>>x&1 == 1 {
				vs = append(vs, x)
			}
		}
		g := graph.New(n)
		for i := 6; i+2 < len(data); i += 3 {
			a, b := int(data[i])%n, int(data[i+1])%n
			if a == b {
				continue
			}
			if _, dup := g.EdgeBetween(a, b); dup {
				continue
			}
			if id := g.MustAddEdge(a, b); data[i+2]&1 == 1 {
				es = append(es, id)
			}
		}
		checkPathWithin(t, s, g, u, v, maxHops, vs, es)
	})
}
