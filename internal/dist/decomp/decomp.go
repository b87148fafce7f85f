// Package decomp implements the padded low-diameter decomposition underlying
// the paper's LOCAL construction (Theorem 11 of Dinitz–Robelle, PODC 2020).
//
// One partition is an exponential-shift clustering in the style of
// Miller–Peng–Xu: every vertex v draws a shift δ_v ~ Exp(β) and joins the
// cluster of the vertex c maximizing δ_c − d(c, v) (hop distance, ties broken
// toward the smaller center ID). Run as a distributed capture process this
// takes O(max δ + max cluster radius) = O(log n / β) synchronous rounds whp,
// clusters are connected with hop radius at most max δ = O(log n / β) whp,
// and each individual edge has both endpoints in the same cluster with
// constant probability (≈ e^(−2β) for unit-length edges — the padding
// property). Repeating with fresh shifts O(log n) times therefore covers
// every edge in some partition whp; Padded stacks partitions until it does.
//
// In the LOCAL model the partitions are mutually independent, so a network
// runs all of them simultaneously — messages are unbounded, a node just
// annotates its traffic with one (cluster, arrival) pair per partition.
// Rounds is accordingly the maximum round count over partitions, not the
// sum, matching the Theorem 11 claim of O(log n) rounds total.
package decomp

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"

	"ftspanner/internal/graph"
	"ftspanner/internal/sp"
)

// DefaultBeta is the shift rate used when Padded is called with beta = 0:
// large enough to keep cluster radii (and hence LOCAL round counts) small,
// small enough that a partition covers a constant fraction of the edges.
// A larger beta gives more, smaller clusters and covers fewer edges per
// partition (TestPaddedBetaTradeoff pins the direction); 0.6 takes the
// small-diameter side at the cost of more partitions, which is the better
// side of the trade for the Theorem 12 round bound.
const DefaultBeta = 0.6

// maxAutoPartitions bounds the partitions == 0 coverage loop. Full coverage
// needs ~ln(m)/p₀ partitions with p₀ the per-partition edge coverage
// probability; 256 is orders of magnitude above that for every supported β.
const maxAutoPartitions = 256

// Decomp is a stack of exponential-shift partitions of one graph.
type Decomp struct {
	// Beta is the shift rate the partitions were drawn with.
	Beta float64
	// Rounds is the number of synchronous rounds the distributed capture
	// process needs: the maximum over partitions (they run in parallel in
	// the LOCAL model) of the last cluster-arrival time.
	Rounds int
	// Centers[p] lists the cluster centers of partition p in increasing
	// vertex-ID order; len(Centers) is the partition count.
	Centers [][]int
	// Assign[p][v] is the center of v's cluster in partition p.
	Assign [][]int
}

// Padded draws a padded decomposition of g with shift rate beta (0 selects
// DefaultBeta) and the given number of partitions. partitions = 0 keeps
// adding partitions until every edge of g is covered — has both endpoints in
// one cluster of some partition — which is what the Theorem 12 spanner
// construction requires. The result is deterministic in seed.
func Padded(g *graph.Graph, beta float64, partitions int, seed int64) (*Decomp, error) {
	if g == nil {
		return nil, fmt.Errorf("decomp: nil graph")
	}
	if beta < 0 || math.IsNaN(beta) || math.IsInf(beta, 0) {
		return nil, fmt.Errorf("decomp: invalid beta %v", beta)
	}
	if beta == 0 {
		beta = DefaultBeta
	}
	if partitions < 0 {
		return nil, fmt.Errorf("decomp: negative partition count %d", partitions)
	}
	d := &Decomp{Beta: beta}
	rng := rand.New(rand.NewSource(seed))
	covered := make([]bool, g.EdgeIDLimit())
	for id := range covered {
		// Dead edge-ID slots (graph.RemoveEdge free list) need no covering.
		covered[id] = !g.EdgeAlive(id)
	}
	uncovered := g.M()
	limit := partitions
	if limit == 0 {
		limit = maxAutoPartitions
	}
	for p := 0; p < limit; p++ {
		if partitions == 0 && uncovered == 0 && p > 0 {
			break
		}
		assign, rounds := onePartition(g, beta, rng)
		if rounds > d.Rounds {
			d.Rounds = rounds
		}
		var centers []int
		for v := 0; v < g.N(); v++ {
			if assign[v] == v {
				centers = append(centers, v)
			}
		}
		d.Centers = append(d.Centers, centers)
		d.Assign = append(d.Assign, assign)
		for id := 0; id < g.EdgeIDLimit(); id++ {
			if !covered[id] {
				e := g.Edge(id)
				if assign[e.U] == assign[e.V] {
					covered[id] = true
					uncovered--
				}
			}
		}
	}
	if partitions == 0 && uncovered > 0 {
		return nil, fmt.Errorf("decomp: %d edges still uncovered after %d partitions (beta %v too large?)",
			uncovered, maxAutoPartitions, beta)
	}
	return d, nil
}

// onePartition runs one exponential-shift clustering and returns the
// per-vertex center assignment plus the synchronous round count of the
// capture process.
func onePartition(g *graph.Graph, beta float64, rng *rand.Rand) (assign []int, rounds int) {
	n := g.N()
	// Shifts are clipped at their whp maximum so a single outlier cannot
	// blow up the round count; the clip probability is O(1/n²) per vertex.
	clip := (math.Log(float64(n)+2) + 3) / beta
	shift := make([]float64, n)
	maxShift := 0.0
	for v := 0; v < n; v++ {
		shift[v] = rng.ExpFloat64() / beta
		if shift[v] > clip {
			shift[v] = clip
		}
		if shift[v] > maxShift {
			maxShift = shift[v]
		}
	}
	// Cluster c reaches vertex v at time (maxShift − δ_c) + d(c, v);
	// v joins the earliest arrival. Dijkstra from all sources with start
	// offsets computes the arrivals exactly, and capture-through-a-neighbor
	// keeps every cluster connected. Ties break toward the smaller center.
	assign = make([]int, n)
	for v := range assign {
		assign[v] = -1
	}
	pq := &arrivalQueue{}
	for v := 0; v < n; v++ {
		heap.Push(pq, arrival{time: maxShift - shift[v], center: v, vertex: v})
	}
	last := 0.0
	for pq.Len() > 0 {
		a := heap.Pop(pq).(arrival)
		if assign[a.vertex] >= 0 {
			continue
		}
		assign[a.vertex] = a.center
		if a.time > last {
			last = a.time
		}
		for _, he := range g.Adj(a.vertex) {
			if assign[he.To] < 0 {
				heap.Push(pq, arrival{time: a.time + 1, center: a.center, vertex: he.To})
			}
		}
	}
	rounds = int(math.Ceil(last))
	if rounds < 1 {
		rounds = 1
	}
	return assign, rounds
}

type arrival struct {
	time   float64
	center int
	vertex int
}

type arrivalQueue []arrival

func (q arrivalQueue) Len() int { return len(q) }
func (q arrivalQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	if q[i].center != q[j].center {
		return q[i].center < q[j].center
	}
	return q[i].vertex < q[j].vertex
}
func (q arrivalQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *arrivalQueue) Push(x any)   { *q = append(*q, x.(arrival)) }
func (q *arrivalQueue) Pop() any     { old := *q; x := old[len(old)-1]; *q = old[:len(old)-1]; return x }

// Members returns the clusters of partition p as vertex lists, aligned with
// Centers[p] (each list sorted ascending; the center is a member).
func (d *Decomp) Members(p int) [][]int {
	centers := d.Centers[p]
	index := make(map[int]int, len(centers))
	for i, c := range centers {
		index[c] = i
	}
	members := make([][]int, len(centers))
	for v, c := range d.Assign[p] {
		i := index[c]
		members[i] = append(members[i], v)
	}
	return members
}

// CoveredEdges returns how many edges of g have both endpoints in a single
// cluster of at least one partition.
func (d *Decomp) CoveredEdges(g *graph.Graph) int {
	count := 0
	for id := 0; id < g.EdgeIDLimit(); id++ {
		if !g.EdgeAlive(id) {
			continue
		}
		e := g.Edge(id)
		for p := range d.Assign {
			if d.Assign[p][e.U] == d.Assign[p][e.V] {
				count++
				break
			}
		}
	}
	return count
}

// MaxClusterHopDiameter returns the largest hop diameter of any cluster's
// induced subgraph across all partitions. A disconnected cluster is an
// error: the capture process guarantees connectivity, so one indicates a
// corrupted decomposition.
func (d *Decomp) MaxClusterHopDiameter(g *graph.Graph) (int, error) {
	max := 0
	for p := range d.Assign {
		for i, members := range d.Members(p) {
			if len(members) < 2 {
				continue
			}
			sub, _, err := g.InducedSubgraph(members)
			if err != nil {
				return 0, fmt.Errorf("decomp: partition %d cluster %d: %w", p, d.Centers[p][i], err)
			}
			if !sub.Connected() {
				return 0, fmt.Errorf("decomp: partition %d cluster %d (center %d) is disconnected",
					p, i, d.Centers[p][i])
			}
			if diam := sp.HopDiameter(sub); diam > max {
				max = diam
			}
		}
	}
	return max, nil
}
