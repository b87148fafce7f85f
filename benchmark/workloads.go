package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"time"

	"ftspanner"
)

// A workload is a graph family, a construction setting, a query mix and a
// churn schedule. All four drive the same pipeline (see timed.go); they
// differ only in which layer does the work. README.md records why each one
// exists.
type spec struct {
	name string
	why  string

	graph func(rng *rand.Rand) (g *ftspanner.Graph, cols int, err error)
	k, f  int
	edge  bool // edge faults (and fault_edges in queries) instead of vertex faults

	builds int // R: in-process Build calls, median reported
	cycles int // kill/recover cycles, median reported

	post       bool    // POST JSON bodies instead of GET parameters
	queryRate  float64 // phase B: open-loop queries per second, a frozen constant
	batchRate  float64 // phase B: batches per second
	churn      int     // edges deleted and edges inserted per batch
	checkpoint int     // checkpoints that must fall inside phase B
	samples    int     // traced run: queries timed per in-process pass

	// newQuery draws the next query of the workload's mix.
	newQuery func(in *inputs, rng *rand.Rand) query
	// makePool fills in.pool with the repeated keys of the mix, if any.
	makePool func(in *inputs, rng *rand.Rand)
}

func (s *spec) mode() ftspanner.FaultMode {
	if s.edge {
		return ftspanner.EdgeFaults
	}
	return ftspanner.VertexFaults
}

func (s *spec) modeFlag() string {
	if s.edge {
		return "edge"
	}
	return "vertex"
}

func (s *spec) options() ftspanner.Options {
	return ftspanner.Options{K: s.k, F: s.f, Mode: s.mode()}
}

func (s *spec) stretch() float64 { return float64(2*s.k - 1) }

func lattice(side, shortcuts int) func(*rand.Rand) (*ftspanner.Graph, int, error) {
	return func(rng *rand.Rand) (*ftspanner.Graph, int, error) {
		g, err := ftspanner.LatticeGraph(rng, side, side, shortcuts, true)
		return g, side, err
	}
}

func powerLaw(n int) func(*rand.Rand) (*ftspanner.Graph, int, error) {
	return func(rng *rand.Rand) (*ftspanner.Graph, int, error) {
		g, err := ftspanner.PowerLawGraph(rng, n, 8, 2.5)
		if err != nil {
			return nil, 0, err
		}
		g, err = ftspanner.UniformWeights(rng, g, 1, 2)
		return g, 0, err
	}
}

func gnp(n int, p float64) func(*rand.Rand) (*ftspanner.Graph, int, error) {
	return func(rng *rand.Rand) (*ftspanner.Graph, int, error) {
		g, err := ftspanner.RandomGraph(rng, n, p)
		return g, 0, err
	}
}

// The sizes are the largest at which 4 + 22 x 4 runs of the whole pipeline
// fit the contract's 3420 s (README.md, "Sizes"): every default build is
// about one second on the 2-core reference box.
var workloads = []*spec{
	{
		name:  "road_hot",
		why:   "160k-vertex weighted lattice: ~0.33M cheap decisions, so edge ordering and row scans dominate the build; queries are all cache hits, so the wire and JSON dominate serving",
		graph: lattice(400, 6400), k: 2, f: 1,
		builds: 3, cycles: 2,
		queryRate: 2000, batchRate: 2, churn: 2, checkpoint: 3, samples: 20000,
		makePool: roadHotPool, newQuery: roadHotQuery,
	},
	{
		name:  "road_miss",
		why:   "100k-vertex lattice, every query a bounded faulted Dijkstra over a ~20k-vertex ball with a unique key: the search kernel, not the wire, is the round trip",
		graph: lattice(317, 4000), k: 2, f: 1,
		builds: 3, cycles: 2,
		post:      true,
		queryRate: 150, batchRate: 5, churn: 2, checkpoint: 3, samples: 500,
		newQuery: roadMissQuery,
	},
	{
		name:  "dense_cold",
		why:   "unweighted G(700,0.1): 3 of 4 edges rejected after f+1 disjoint-path passes, no sort, many speculation conflicts: the build is pure lbc/sp/core; queries are cheap misses that churn the cache",
		graph: gnp(700, 0.1), k: 2, f: 3,
		builds: 3, cycles: 2,
		queryRate: 1500, batchRate: 5, churn: 4, checkpoint: 3, samples: 5000,
		newQuery: denseColdQuery,
	},
	{
		name:  "hub_churn",
		why:   "power-law n=2500 in edge mode with stretch 5: the write path (witness repair, CSR patches, WAL fsync, shard invalidation, compaction rebuilds) and a recovery that replays a log suffix do the work",
		graph: powerLaw(2500), k: 3, f: 2, edge: true,
		builds: 3, cycles: 2,
		post:      true,
		queryRate: 1000, batchRate: 20, churn: 8, checkpoint: 3, samples: 3000,
		makePool: hubPool, newQuery: hubQuery,
	},
}

// smoke is the small end-to-end the package's test runs; it is not part of
// the benchmark.
var smoke = &spec{
	name:  "smoke",
	why:   "20x20 lattice through all seven steps, for go test",
	graph: lattice(20, 16), k: 2, f: 1,
	builds: 1, cycles: 1,
	queryRate: 200, batchRate: 5, churn: 2, checkpoint: 1, samples: 200,
	makePool: roadHotPool, newQuery: roadHotQuery,
}

func findWorkload(name string) *spec {
	for _, s := range workloads {
		if s.name == name {
			return s
		}
	}
	if name == smoke.name {
		return smoke
	}
	return nil
}

// query is one /query request as the harness generated it.
type query struct {
	u, v    int
	faultV  []int
	faultE  [][2]int
	maxDist float64
	noCache bool
}

// inputs is everything one run derives from its seed. The program under
// test sees only the graph file and the requests.
type inputs struct {
	sp   *spec
	seed int64
	// g is the generated graph. Once the server is up it doubles as the
	// mirror of the served graph: the writer applies each acknowledged batch
	// to it, and only the verify phase (after the writer is done) reads it.
	g    *ftspanner.Graph
	n    int // g.N(), fixed
	cols int // lattice width; 0 for the other families
	// edges are the endpoint pairs of the generated graph, frozen, so that
	// query generation never reads g while the writer mutates it.
	edges [][2]int
	pool  []query
	// batches are the churn schedule: the first warm of them go out during
	// the warm-up, unmeasured, the rest during phase B. every is the
	// -checkpoint-every value; warm is a multiple of it.
	batches  []ftspanner.UpdateBatch
	warm     int
	every    int
	arrivals []time.Duration // phase-B query due times, offsets from phase start
	verify   []query
}

// Streams of one seed. Each consumer owns one, so that the inputs do not
// depend on how goroutines interleave; the per-connection ones are ten apart
// so that connection i of one phase never replays a stream of another.
const (
	streamGraph = iota
	streamPool
	streamBatches
	streamArrivals
	streamVerify
	streamSample
	streamPhaseB
	streamWarm   = 10 // + connection index
	streamPhaseA = 20 // + connection index
)

func (in *inputs) stream(id int) *rand.Rand {
	return rand.New(rand.NewSource(in.seed*1000003 + int64(id)))
}

const verifyQueries = 200

// warmBatches is how many batches the server must have applied before its
// write path is in a steady state: until the snapshot retention window (8
// epochs) is full, each apply allocates fresh memory from the OS and costs
// two to three times the steady figure.
const warmBatches = 10

// makeInputs generates the graph and the schedules. phaseB sizes the batch
// and arrival schedules.
func makeInputs(sp *spec, seed int64, phaseB time.Duration) (*inputs, error) {
	in := &inputs{sp: sp, seed: seed}
	g, cols, err := sp.graph(in.stream(streamGraph))
	if err != nil {
		return nil, fmt.Errorf("generate graph: %w", err)
	}
	in.g, in.n, in.cols = g, g.N(), cols
	ids := g.EdgeIDs()
	in.edges = make([][2]int, len(ids))
	for i, id := range ids {
		e := g.Edge(id)
		in.edges[i] = [2]int{e.U, e.V}
	}
	if sp.makePool != nil {
		sp.makePool(in, in.stream(streamPool))
	}
	measured := int(math.Ceil(sp.batchRate * phaseB.Seconds()))
	if in.every, err = checkpointEvery(sp, measured); err != nil {
		return nil, err
	}
	in.warm = in.every * ((warmBatches + in.every - 1) / in.every)
	in.batches = makeBatches(in, in.stream(streamBatches), in.warm+measured)
	in.arrivals = poissonArrivals(in.stream(streamArrivals), sp.queryRate, phaseB)
	vr := in.stream(streamVerify)
	for i := 0; i < verifyQueries; i++ {
		q := sp.newQuery(in, vr)
		q.noCache = true
		in.verify = append(in.verify, q)
	}
	return in, nil
}

// checkpointEvery is the -checkpoint-every value that puts exactly
// sp.checkpoint checkpoints inside a phase of the given number of batches
// (the server's count starts at a multiple of it, see inputs.warm), the last
// one early enough that recovery replays a suffix.
func checkpointEvery(sp *spec, batches int) (int, error) {
	c := int(float64(batches) / (float64(sp.checkpoint) + 0.6))
	if c < 1 {
		c = 1
	}
	for c*(sp.checkpoint+1) <= batches {
		c++
	}
	if c*sp.checkpoint > batches {
		return 0, fmt.Errorf("%d batches cannot hold %d checkpoints", batches, sp.checkpoint)
	}
	return c, nil
}

// poissonArrivals draws exponential inter-arrival gaps at the given rate
// until the window is full.
func poissonArrivals(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// makeBatches draws count batches, each deleting sp.churn live edges of the
// generated graph and inserting as many new ones of the family's own shape,
// so the graph keeps its size and character. Validity (delete what exists,
// insert what does not) is tracked on an overlay, not on a copy of g.
func makeBatches(in *inputs, rng *rand.Rand, count int) []ftspanner.UpdateBatch {
	g := in.g
	n := g.N()
	deleted := make(map[[2]int]bool)
	inserted := make(map[[2]int]bool)
	present := func(p [2]int) bool {
		return inserted[p] || (g.HasEdge(p[0], p[1]) && !deleted[p])
	}
	batches := make([]ftspanner.UpdateBatch, count)
	for b := range batches {
		for len(batches[b].Delete) < in.sp.churn {
			p := in.edges[rng.Intn(len(in.edges))] // U < V, as graph.Edge stores it
			if deleted[p] {
				continue
			}
			deleted[p] = true
			batches[b].Delete = append(batches[b].Delete, ftspanner.EdgeUpdate{U: p[0], V: p[1]})
		}
		for len(batches[b].Insert) < in.sp.churn {
			var u, v int
			w := 1.0
			switch {
			case in.cols > 0:
				// A short street: up to two rows and columns away.
				u = rng.Intn(n)
				dr, dc := rng.Intn(5)-2, rng.Intn(5)-2
				r, c := u/in.cols+dr, u%in.cols+dc
				if r < 0 || r >= n/in.cols || c < 0 || c >= in.cols {
					continue
				}
				v = r*in.cols + c
				w = (1 + rng.Float64()) * (math.Abs(float64(dr)) + math.Abs(float64(dc)))
			case g.Weighted():
				// Endpoints of two random edges: degree-proportional, which
				// keeps the hubs hubs.
				u = in.edges[rng.Intn(len(in.edges))][rng.Intn(2)]
				v = in.edges[rng.Intn(len(in.edges))][rng.Intn(2)]
				w = 1 + rng.Float64()
			default:
				u, v = rng.Intn(n), rng.Intn(n)
			}
			p := [2]int{min(u, v), max(u, v)}
			// A pair deleted in this or an earlier batch is left alone, so
			// that every edge ever served has one weight.
			if u == v || present(p) || deleted[p] {
				continue
			}
			inserted[p] = true
			batches[b].Insert = append(batches[b].Insert, ftspanner.EdgeUpdate{U: p[0], V: p[1], W: w})
		}
	}
	return batches
}

// applyToMirror applies an acknowledged batch to the harness's copy of G.
func applyToMirror(g *ftspanner.Graph, b ftspanner.UpdateBatch) error {
	for _, d := range b.Delete {
		if _, err := g.RemoveEdgeBetween(d.U, d.V); err != nil {
			return err
		}
	}
	for _, ins := range b.Insert {
		if _, err := g.AddEdgeW(ins.U, ins.V, ins.W); err != nil {
			return err
		}
	}
	return nil
}

// near returns a vertex of the lattice within span rows and columns of u,
// other than u.
func near(in *inputs, rng *rand.Rand, u, span int) int {
	rows := in.n / in.cols
	for {
		r := u/in.cols + rng.Intn(2*span+1) - span
		c := u%in.cols + rng.Intn(2*span+1) - span
		if r < 0 || r >= rows || c < 0 || c >= in.cols {
			continue
		}
		if v := r*in.cols + c; v != u {
			return v
		}
	}
}

const (
	roadHotPairs    = 1024
	roadHotVariants = 4
	roadHotSpan     = 20
	roadHotMaxDist  = 60
)

// roadHotPool builds 1024 local pairs x 4 fault sets (none, or one of three
// vertices on the pair's fault-free shortest path in G): 4096 keys, far
// below the 32768-entry cache, so once warm every query is a hit.
func roadHotPool(in *inputs, rng *rand.Rand) {
	f := newFinder(in.g.N())
	span := roadHotSpan
	if rows := in.g.N() / in.cols; span > rows/2 {
		span = rows / 2
	}
	for len(in.pool) < roadHotPairs*roadHotVariants {
		u := rng.Intn(in.g.N())
		v := near(in, rng, u, span)
		_, path := f.shortest(in.g, u, v, roadHotMaxDist, nil, nil)
		if len(path) < 3 {
			continue
		}
		inner := path[1 : len(path)-1]
		in.pool = append(in.pool, query{u: u, v: v, maxDist: roadHotMaxDist})
		for i := 1; i < roadHotVariants; i++ {
			x := inner[(len(inner)-1)*i/roadHotVariants]
			in.pool = append(in.pool, query{u: u, v: v, maxDist: roadHotMaxDist, faultV: []int{x}})
		}
	}
}

// zipfIndex draws an index below n with the Zipf(1.1) shape: a Pareto draw
// of tail exponent 0.1, floored. Unlike rand.Zipf it keeps no state, so a
// query mix needs nothing but its stream.
func zipfIndex(rng *rand.Rand, n int) int {
	for {
		if x := math.Pow(1-rng.Float64(), -10); x < float64(n+1) {
			return int(x) - 1
		}
	}
}

func roadHotQuery(in *inputs, rng *rand.Rand) query {
	pairs := len(in.pool) / roadHotVariants
	return in.pool[zipfIndex(rng, pairs)*roadHotVariants+rng.Intn(roadHotVariants)]
}

// roadMissQuery: a pair up to 60 rows and columns apart, a search capped at
// distance 200, and one fresh fault vertex from the box around the pair. No
// key repeats, so the cache never answers.
func roadMissQuery(in *inputs, rng *rand.Rand) query {
	u := rng.Intn(in.n)
	v := near(in, rng, u, 60)
	for {
		x := near(in, rng, u, 60)
		if x != v {
			return query{u: u, v: v, maxDist: 200, faultV: []int{x}}
		}
	}
}

// denseColdQuery: a uniform pair and f fresh fault vertices, unbounded. The
// key space is far beyond the cache, so every query misses and evicts.
func denseColdQuery(in *inputs, rng *rand.Rand) query {
	n := in.n
	q := query{u: rng.Intn(n)}
	for q.v = rng.Intn(n); q.v == q.u; q.v = rng.Intn(n) {
	}
	for len(q.faultV) < in.sp.f {
		x := rng.Intn(n)
		if x != q.u && x != q.v && !containsInt(q.faultV, x) {
			q.faultV = append(q.faultV, x)
		}
	}
	return q
}

const hubPoolPairs = 2048

func hubFresh(in *inputs, rng *rand.Rand, faults int) query {
	n := in.n
	q := query{u: rng.Intn(n)}
	for q.v = rng.Intn(n); q.v == q.u; q.v = rng.Intn(n) {
	}
	for len(q.faultE) < faults {
		p := in.edges[rng.Intn(len(in.edges))]
		if !containsPair(q.faultE, p[0], p[1]) {
			q.faultE = append(q.faultE, p)
		}
	}
	return q
}

// hubPool: 2048 pairs, each with a fixed set of zero to f failed edges.
func hubPool(in *inputs, rng *rand.Rand) {
	for len(in.pool) < hubPoolPairs {
		in.pool = append(in.pool, hubFresh(in, rng, rng.Intn(in.sp.f+1)))
	}
}

// hubQuery: half Zipf over the pool (hits until churn invalidates their
// shard), half fresh pairs with f random failed edges (misses).
func hubQuery(in *inputs, rng *rand.Rand) query {
	if rng.Intn(2) == 0 {
		return in.pool[zipfIndex(rng, len(in.pool))]
	}
	return hubFresh(in, rng, in.sp.f)
}

// writeGraph writes the generated graph in the package text format.
func writeGraph(path string, g *ftspanner.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := ftspanner.WriteGraph(w, g); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hash fingerprints the inputs of a run: graph, pool, batches, arrivals and
// verify queries. Tests pin it per seed.
func (in *inputs) hash() uint64 {
	h := fnv.New64a()
	put := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	putQuery := func(q query) {
		put(uint64(q.u))
		put(uint64(q.v))
		put(math.Float64bits(q.maxDist))
		for _, x := range q.faultV {
			put(uint64(x))
		}
		for _, p := range q.faultE {
			put(uint64(p[0]))
			put(uint64(p[1]))
		}
	}
	put(edgeTableHash(in.g))
	for _, q := range in.pool {
		putQuery(q)
	}
	for _, b := range in.batches {
		for _, d := range b.Delete {
			put(uint64(d.U))
			put(uint64(d.V))
		}
		for _, ins := range b.Insert {
			put(uint64(ins.U))
			put(uint64(ins.V))
			put(math.Float64bits(ins.W))
		}
	}
	for _, d := range in.arrivals {
		put(uint64(d))
	}
	for _, q := range in.verify {
		putQuery(q)
	}
	return h.Sum64()
}
