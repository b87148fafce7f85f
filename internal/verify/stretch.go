package verify

import (
	"fmt"
	"math"

	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
)

// MaxStretch returns the maximum realized stretch of h relative to g under
// the given fault set: max over all vertex pairs reachable in g \ F of
// d_{H\F}(u,v) / d_{G\F}(u,v). It returns +Inf if some pair connected in
// g \ F is disconnected in h \ F, and 1 if no pair exists. Cost: one
// Dijkstra per vertex on each graph.
//
// Pairs at distance 0 in g \ F — possible because AddEdgeW admits
// zero-weight edges — are NOT skipped: such a pair realizes stretch 1 when
// h \ F also keeps it at distance 0 and +Inf otherwise (sup over positive
// d_H of d_H/0). This matches the Verify* functions, whose per-edge
// allowance t·w degenerates to 0 on a zero-weight edge, so any positive
// detour in h \ F is a violation there too.
func MaxStretch(g, h graph.View, faultIDs []int, mode lbc.Mode) (float64, error) {
	ratios, err := pairStretches(g, h, faultIDs, mode, true)
	if err != nil {
		return 0, err
	}
	max := 1.0
	for _, r := range ratios {
		if r > max {
			max = r
		}
	}
	return max, nil
}

// EdgeStretches returns the realized stretch d_{H\F}(u,v) / d_{G\F}(u,v) for
// every edge {u,v} of g that survives the fault set, in g's edge-ID order of
// the surviving edges. For a valid (2k-1)-spanner every value is at most
// 2k-1 (and d_{G\F} ≤ w makes these the binding pairs);
// TestStretchUnderRandomFaultsGolden in internal/core pins the maximum. Zero-weight edges follow MaxStretch's
// convention: 1 when h \ F keeps the pair at distance 0, +Inf otherwise.
func EdgeStretches(g, h graph.View, faultIDs []int, mode lbc.Mode) ([]float64, error) {
	return pairStretches(g, h, faultIDs, mode, false)
}

func pairStretches(g, h graph.View, faultIDs []int, mode lbc.Mode, allPairs bool) ([]float64, error) {
	if err := validateInputs(g, h, 1, 0); err != nil {
		return nil, err
	}
	ck, err := newChecker(g, h, 1, mode)
	if err != nil {
		return nil, err
	}
	for _, id := range faultIDs {
		limit := g.N()
		if mode == lbc.Edge {
			limit = g.EdgeIDLimit()
		}
		if id < 0 || id >= limit {
			return nil, fmt.Errorf("verify: fault ID %d out of range [0,%d)", id, limit)
		}
	}
	ck.apply(faultIDs, true)
	defer ck.apply(faultIDs, false)

	var out []float64
	for u := 0; u < g.N(); u++ {
		if ck.sg.VertexBlocked(u) {
			continue
		}
		ran := false
		lazy := func() {
			if !ran {
				ck.sg.Dijkstra(g, u)
				ck.sh.Dijkstra(h, u)
				ran = true
			}
		}
		if allPairs {
			lazy()
			for v := u + 1; v < g.N(); v++ {
				if ck.sg.VertexBlocked(v) {
					continue
				}
				gd := ck.sg.WeightTo(v)
				if math.IsInf(gd, 1) {
					continue // unreachable in g \ F: the pair is unconstrained
				}
				out = append(out, stretchRatio(ck.sh.WeightTo(v), gd))
			}
			continue
		}
		for _, he := range g.Adj(u) {
			v := he.To
			if v < u || ck.sg.EdgeBlocked(he.ID) || ck.sg.VertexBlocked(v) {
				continue
			}
			lazy()
			out = append(out, stretchRatio(ck.sh.WeightTo(v), ck.sg.WeightTo(v)))
		}
	}
	return out, nil
}

// stretchRatio is d_H/d_G with the zero-distance convention of MaxStretch:
// a pair g holds at distance 0 must stay at distance 0 in h (ratio 1), and
// any positive h-distance — including +Inf — is an unbounded violation.
// Skipping these pairs (the old behavior) silently masked a disconnected
// zero-weight pair.
func stretchRatio(hd, gd float64) float64 {
	if gd == 0 {
		if hd == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return hd / gd
}
