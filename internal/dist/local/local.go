// Package local implements the paper's LOCAL-model fault-tolerant spanner
// (Theorem 12 of Dinitz–Robelle, PODC 2020).
//
// The construction composes the padded decomposition of Theorem 11
// (internal/dist/decomp) with the centralized modified greedy of Theorem 2
// (internal/core) run inside every cluster: draw partitions with fresh
// exponential shifts until every edge has both endpoints in one cluster of
// some partition, then take the union over all clusters C of an f-VFT
// (2k−1)-spanner of G[C]. Whenever an edge {u,v} lies inside a cluster C,
// the per-cluster spanner supplies a (2k−1)·w(u,v) detour that stays inside
// C and therefore survives every fault set with at most f failures — faults
// outside C cannot touch it, and the per-cluster construction already
// tolerates the at most f failures inside. Summing along shortest paths
// extends the guarantee from edges to all vertex pairs, so full edge
// coverage makes the union an f-VFT (2k−1)-spanner outright; only the O(log
// n) partition count (and hence the size factor) is probabilistic.
//
// In the LOCAL model — unbounded message size, synchronous rounds — the
// whole pipeline is round-efficient: the decomposition capture process runs
// all partitions in parallel in Decomp.Rounds rounds, every cluster center
// gathers its cluster's topology in at most MaxClusterDiameter rounds,
// computes the cluster spanner locally at no communication cost, and
// scatters the chosen edges back in another MaxClusterDiameter rounds, with
// one round each to open the gather and commit the output:
//
//	Rounds = DecompRounds + 2·MaxClusterDiameter + 2.
//
// Both decomposition rounds and cluster diameters are O(log n) whp (shifts
// are Exp(β) with constant β), giving the theorem's O(log n) total — in
// particular independent of the graph's diameter. Size is the centralized
// O(f^(1−1/k)·n^(1+1/k)) multiplied by the O(log n) partition count.
package local

import (
	"fmt"

	"ftspanner/internal/core"
	"ftspanner/internal/dist/decomp"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/sp"
)

// Options parameterizes FTSpanner.
type Options struct {
	// K is the stretch parameter; the spanner has stretch 2K−1. Must be >= 1.
	K int
	// F is the vertex fault budget. Must be >= 0.
	F int
	// Seed drives the decomposition shifts; runs are deterministic in it.
	Seed int64
}

// Result is the outcome of one LOCAL run: the spanner plus the round
// accounting of the simulated execution.
type Result struct {
	// Spanner is the constructed f-VFT (2k−1)-spanner.
	Spanner *graph.Graph
	// Rounds is the total LOCAL round count:
	// DecompRounds + 2·MaxClusterDiameter + 2 (gather + scatter).
	Rounds int
	// DecompRounds is the padded-decomposition phase (all partitions in
	// parallel).
	DecompRounds int
	// MaxClusterDiameter is the largest hop diameter of any cluster, the
	// per-direction cost of the gather/scatter phases.
	MaxClusterDiameter int
	// Clusters is the total cluster count across all partitions.
	Clusters int
	// Decomp is the decomposition the run drew.
	Decomp *decomp.Decomp
}

// FTSpanner runs the Theorem 12 construction on g. Vertex faults only; the
// result is deterministic in o.Seed.
func FTSpanner(g *graph.Graph, o Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("local: nil graph")
	}
	if o.K < 1 {
		return nil, fmt.Errorf("local: stretch parameter K must be >= 1, got %d", o.K)
	}
	if o.F < 0 {
		return nil, fmt.Errorf("local: fault budget F must be >= 0, got %d", o.F)
	}
	d, err := decomp.Padded(g, 0, 0, o.Seed)
	if err != nil {
		return nil, fmt.Errorf("local: %w", err)
	}
	res := &Result{Spanner: g.EmptyLike(), Decomp: d, DecompRounds: d.Rounds}
	for p := range d.Centers {
		for _, members := range d.Members(p) {
			res.Clusters++
			if len(members) < 2 {
				continue
			}
			sub, toOrig, err := g.InducedSubgraph(members)
			if err != nil {
				return nil, fmt.Errorf("local: partition %d: %w", p, err)
			}
			if !sub.Connected() {
				return nil, fmt.Errorf("local: partition %d has a disconnected cluster", p)
			}
			if diam := sp.HopDiameter(sub); diam > res.MaxClusterDiameter {
				res.MaxClusterDiameter = diam
			}
			hc, _, _, err := core.Build(sub, core.Params{K: o.K, F: o.F, Mode: lbc.Vertex})
			if err != nil {
				return nil, fmt.Errorf("local: partition %d cluster spanner: %w", p, err)
			}
			for _, e := range hc.Edges() {
				u, v := toOrig[e.U], toOrig[e.V]
				if !res.Spanner.HasEdge(u, v) {
					res.Spanner.MustAddEdgeW(u, v, e.W)
				}
			}
		}
	}
	res.Rounds = res.DecompRounds + 2*res.MaxClusterDiameter + 2
	return res, nil
}
