// Package dynamic maintains an f-fault-tolerant (2k-1)-spanner of a graph
// under batched edge insertions and deletions, without rebuilding from
// scratch on every change.
//
// The static construction (core.Build) decides each edge once with
// the Length-Bounded Cut gap decision (lbc.DecideWith). The observation that
// makes it maintainable is that every decision leaves a compact, locally
// checkable certificate:
//
//   - an edge that entered the spanner H satisfies its stretch constraint
//     trivially, for as long as it stays in H;
//   - an edge {u,v} that was skipped got a NO answer, whose transcript is
//     f+1 pairwise disjoint u-v paths of at most 2k-1 hops in H
//     (lbc.Result.PathEdges). Any fault set of size at most f kills at most
//     f of those paths, so the constraint keeps holding — until one of the
//     witness path edges is removed from H.
//
// The Maintainer stores these witnesses plus a reverse index from spanner
// edges to the witnesses that use them. An insertion batch only runs the
// LBC decision for the new edges (in nondecreasing-weight order on weighted
// graphs, preserving the Theorem 10 ordering argument via a weight cap on
// the decision subgraph). A deletion batch removes the edges and re-decides
// exactly the skipped edges whose witness referenced a removed spanner edge
// — typically a small neighborhood of the deletion, which is what makes
// repair beat rebuild on small batches (cf. the cluster-local repair spirit
// of network-decomposition methods). When a batch invalidates more than a
// configurable fraction of the live edges, repairing edge by edge stops
// paying and the Maintainer falls back to one full rebuild; both paths are
// counted in Stats.
//
// The maintained H is a valid f-fault-tolerant (2k-1)-spanner of the
// current graph after every batch (each surviving constraint holds either
// trivially or by a live witness), but it is not necessarily the same
// spanner a from-scratch build would produce: repair re-decides edges
// against the current H rather than the greedy prefix, which can only make
// H sparser than a fresh greedy at equal correctness.
package dynamic

import (
	"fmt"
	"sort"

	"ftspanner/internal/core"
	"ftspanner/internal/graph"
	"ftspanner/internal/lbc"
	"ftspanner/internal/sp"
)

// DefaultStalenessBudget is the invalidated fraction of live edges beyond
// which a deletion batch triggers a full rebuild instead of edge-by-edge
// repair.
const DefaultStalenessBudget = 0.25

// Config parameterizes a Maintainer.
type Config struct {
	// K is the stretch parameter (stretch 2K-1). Must be >= 1.
	K int
	// F is the fault budget. Must be >= 0.
	F int
	// Mode selects vertex or edge faults. Zero value means vertex faults.
	Mode lbc.Mode
	// StalenessBudget is the fraction of live graph edges that may be
	// invalidated by one deletion batch before the Maintainer rebuilds from
	// scratch instead of repairing. 0 (or negative) selects
	// DefaultStalenessBudget; values >= 1 effectively disable rebuilds.
	StalenessBudget float64
	// BuildParallelism is the worker count for full traced builds — the
	// initial construction and every staleness-budget rebuild fallback —
	// and so the number of searchers the Maintainer hands core.Build.
	// Values <= 0 select GOMAXPROCS; 1 runs the sequential loop, more run
	// the batched rounds, whose spanner and trace are byte-identical to the
	// sequential build, so the knob changes wall-clock only — never the
	// maintained state. Per-edge repair decisions are unaffected (they are
	// individually tiny).
	BuildParallelism int
}

// Stats exposes the Maintainer's effort counters. All counters are
// cumulative over the Maintainer's lifetime.
type Stats struct {
	// StalenessBudget is the resolved rebuild threshold in effect.
	StalenessBudget float64
	// Batches counts ApplyBatch calls that committed.
	Batches int
	// Inserted and Deleted count edges inserted into / deleted from the
	// maintained graph.
	Inserted, Deleted int
	// InsertedIntoH counts inserted edges whose LBC decision added them to
	// the spanner; DeletedFromH counts deleted edges that were in it.
	InsertedIntoH, DeletedFromH int
	// Invalidated counts coverage witnesses broken by deletions (each one
	// forces a re-decision of its edge).
	Invalidated int
	// Redecided counts LBC decisions run outside full builds: one per
	// inserted edge plus one per invalidated witness on the repair path.
	Redecided int
	// BFSPasses totals the hop-bounded BFS passes of those decisions.
	BFSPasses int
	// RepairBatches and RebuildBatches split the batches that invalidated
	// at least one witness by how they were serviced: edge-by-edge repair
	// or full rebuild. FullBuilds counts traced greedy builds (the initial
	// one plus every rebuild).
	RepairBatches, RebuildBatches int
	FullBuilds                    int
	// BuildParallelism is the resolved full-build worker count in effect.
	BuildParallelism int
	// BuildRounds and BuildRedecided total the speculate-then-commit rounds
	// and conflict re-decisions of the full builds — core.Stats.Rounds and
	// Redecided surfaced through the maintainer (both stay 0 when
	// BuildParallelism is 1).
	BuildRounds, BuildRedecided int
	// Compactions counts Compact calls: checkpoint barriers that renumbered
	// the edge-ID space and rebuilt the spanner (each also counts one
	// FullBuild).
	Compactions int
}

// Delta reports what one committed batch changed, in the vocabulary of
// graph.PatchCSR: the adjacency rows and edge-ID slots a snapshot consumer
// must re-read. The serving layer (internal/oracle) feeds these straight
// into incremental CSR patches and shard-targeted cache invalidation — the
// whole point of returning them is that ApplyBatch already knows exactly
// what it moved, so the layers above never have to diff graphs.
type Delta struct {
	// Rebuilt reports that this batch fell past the staleness budget and the
	// spanner was rebuilt from scratch: Spanner below is meaningless (every
	// spanner row may have changed) and consumers must resnapshot H in full.
	// Graph stays exact either way — the graph itself is never rebuilt.
	Rebuilt bool
	// Graph is the touched set of the maintained graph: endpoints and ID
	// slots of every edge the batch deleted or inserted.
	Graph graph.Touched
	// Spanner is the touched set of the maintained spanner H: endpoints and
	// ID slots of spanner edges removed by deletions or added by decisions
	// (new edges and witness repairs that flipped to YES).
	Spanner graph.Touched
}

// Update names one edge endpoint pair, with a weight for insertions into
// weighted graphs (ignored on deletion; 0 means weight 1 on unweighted
// graphs, and is an error on weighted ones per graph.AddEdgeW's rules).
type Update struct {
	U, V int
	W    float64
}

// Batch is one atomic group of updates: deletions are applied first, then
// insertions, so a Batch may delete and re-insert the same endpoint pair
// (e.g. to change its weight). ApplyBatch validates the whole batch before
// mutating anything.
type Batch struct {
	Insert []Update
	Delete []Update
}

// edgeState is the maintained certificate for one live graph edge.
type edgeState struct {
	inH bool
	// hID is the edge's spanner ID when inH.
	hID int
	// witness holds the spanner-edge IDs of the coverage witness when not
	// inH (see lbc.Result.PathEdges). Never empty for a live covered edge.
	witness []int
}

// Maintainer holds a graph G, its f-fault-tolerant (2k-1)-spanner H, and
// one warm searcher, and applies batched updates to both. Not safe for
// concurrent use.
type Maintainer struct {
	cfg    Config
	budget float64
	t      int // stretch 2K-1
	g      *graph.Graph
	h      *graph.Graph
	// ss holds one searcher per full-build worker (its length is the
	// resolved BuildParallelism); s aliases ss[0] and serves every
	// sequential decision (repairs, insertions).
	ss []*sp.Searcher
	s  *sp.Searcher

	// state[gid] is the certificate of live graph edge gid.
	state []edgeState
	// users[hid] lists graph edges whose witness may reference spanner edge
	// hid. Entries can go stale when a witness is replaced; consumers
	// re-check against the current witness before acting.
	users [][]int

	stats Stats
}

// New clones g, builds its spanner with the traced modified greedy, and
// returns a Maintainer ready for ApplyBatch. The clone means later batches
// never mutate the caller's graph.
func New(g *graph.Graph, cfg Config) (*Maintainer, error) {
	if g == nil {
		return nil, fmt.Errorf("dynamic: nil graph")
	}
	if cfg.Mode == 0 {
		cfg.Mode = lbc.Vertex
	}
	budget := cfg.StalenessBudget
	if budget <= 0 {
		budget = DefaultStalenessBudget
	}
	m := &Maintainer{
		cfg:    cfg,
		budget: budget,
		t:      core.Stretch(cfg.K),
		g:      g.Clone(),
		ss:     sp.NewSearchers(cfg.BuildParallelism, g.N(), g.EdgeIDLimit()),
	}
	m.s = m.ss[0]
	m.stats.StalenessBudget = budget
	m.stats.BuildParallelism = len(m.ss)
	if err := m.rebuild(); err != nil {
		return nil, err
	}
	return m, nil
}

// Config returns the resolved configuration the Maintainer was built with
// (Mode normalized, StalenessBudget resolved to its default if it was 0).
func (m *Maintainer) Config() Config {
	cfg := m.cfg
	cfg.StalenessBudget = m.budget
	cfg.BuildParallelism = len(m.ss)
	return cfg
}

// Graph returns the maintained graph. It is owned by the Maintainer: treat
// it as read-only and mutate only through ApplyBatch.
func (m *Maintainer) Graph() *graph.Graph { return m.g }

// Spanner returns the maintained spanner, owned by the Maintainer and valid
// until the next ApplyBatch. Clone it to retain a snapshot.
func (m *Maintainer) Spanner() *graph.Graph { return m.h }

// Stats returns the cumulative effort counters.
func (m *Maintainer) Stats() Stats { return m.stats }

// rebuild reconstructs the spanner and every certificate table from scratch
// with one traced greedy build on the current graph, on the Maintainer's
// searchers (the trace is the same for every worker count).
func (m *Maintainer) rebuild() error {
	h, decisions, bstats, err := core.Build(m.g, core.Params{K: m.cfg.K, F: m.cfg.F, Mode: m.cfg.Mode, Searchers: m.ss, Trace: true})
	if err != nil {
		return fmt.Errorf("dynamic: build: %w", err)
	}
	m.stats.BuildRounds += bstats.Rounds
	m.stats.BuildRedecided += bstats.Redecided
	m.h = h
	m.state = make([]edgeState, m.g.EdgeIDLimit())
	m.users = make([][]int, h.EdgeIDLimit())
	for _, dec := range decisions {
		if dec.Added {
			m.state[dec.GEdgeID] = edgeState{inH: true, hID: dec.HEdgeID}
			continue
		}
		m.state[dec.GEdgeID] = edgeState{witness: dec.Witness}
		m.registerWitness(dec.GEdgeID, dec.Witness)
	}
	m.stats.FullBuilds++
	return nil
}

// growUsers keeps the reverse index spanning the spanner's edge-ID space.
func (m *Maintainer) growUsers() {
	if limit := m.h.EdgeIDLimit(); limit > len(m.users) {
		grown := make([][]int, limit)
		copy(grown, m.users)
		m.users = grown
	}
}

func (m *Maintainer) registerWitness(gid int, witness []int) {
	m.growUsers()
	for _, hid := range witness {
		m.users[hid] = append(m.users[hid], gid)
	}
}

// Validate checks b the way ApplyBatch will, without mutating anything: a
// nil return guarantees the same batch (applied next, with no intervening
// batch) will not be rejected. The write-ahead layer (internal/oracle with
// a WAL) depends on this split: a batch must be validated before it is
// durably logged, because replay has no way to skip a record short of
// corrupting the epoch sequence.
func (m *Maintainer) Validate(b Batch) error {
	_, err := m.validateBatch(b)
	return err
}

// Compact is the deterministic checkpoint barrier: it renumbers the
// maintained graph's edge-ID space to the canonical compact layout
// (graph.Compact — live edges reassigned dense IDs in ascending old-ID
// order, the exact layout graph.Write serializes) and rebuilds the spanner
// and every certificate from scratch on the renumbered graph.
//
// Churn makes edge IDs layout-dependent (RemoveEdge retires IDs into a free
// list that AddEdgeW reuses), and decisions break weight ties by edge ID —
// so two maintainers with equal edge sets but different ID layouts can
// evolve different spanners. After Compact the layout is a pure function of
// the edge set, which is what makes recovery byte-identical: a recovered
// maintainer built from the checkpoint files (dynamic.New on the compacted
// graph) is in exactly the state the live maintainer is in after this call.
func (m *Maintainer) Compact() error {
	m.g = graph.Compact(m.g)
	if err := m.rebuild(); err != nil {
		return err
	}
	m.stats.Compactions++
	return nil
}

// validateBatch resolves and checks every update before any mutation, so a
// rejected batch leaves the Maintainer untouched. It returns the graph edge
// IDs to delete, in Delete order.
func (m *Maintainer) validateBatch(b Batch) ([]int, error) {
	n := m.g.N()
	deleteIDs := make([]int, 0, len(b.Delete))
	deleting := make(map[[2]int]bool, len(b.Delete))
	for _, d := range b.Delete {
		u, v := normPair(d.U, d.V)
		if u < 0 || v >= n {
			return nil, fmt.Errorf("dynamic: delete {%d,%d} out of range [0,%d)", d.U, d.V, n)
		}
		if deleting[[2]int{u, v}] {
			return nil, fmt.Errorf("dynamic: duplicate delete of {%d,%d}", u, v)
		}
		deleting[[2]int{u, v}] = true
		gid, ok := m.g.EdgeBetween(u, v)
		if !ok {
			return nil, fmt.Errorf("dynamic: delete of missing edge {%d,%d}", u, v)
		}
		deleteIDs = append(deleteIDs, gid)
	}
	inserting := make(map[[2]int]bool, len(b.Insert))
	for _, ins := range b.Insert {
		u, v := normPair(ins.U, ins.V)
		if u < 0 || v >= n {
			return nil, fmt.Errorf("dynamic: insert {%d,%d} out of range [0,%d)", ins.U, ins.V, n)
		}
		if u == v {
			return nil, fmt.Errorf("dynamic: insert of self-loop at %d", u)
		}
		if inserting[[2]int{u, v}] {
			return nil, fmt.Errorf("dynamic: duplicate insert of {%d,%d}", u, v)
		}
		inserting[[2]int{u, v}] = true
		if m.g.HasEdge(u, v) && !deleting[[2]int{u, v}] {
			return nil, fmt.Errorf("dynamic: insert of existing edge {%d,%d}", u, v)
		}
		w := insertWeight(m.g, ins)
		if err := graph.CheckWeight(m.g, w); err != nil {
			return nil, fmt.Errorf("dynamic: insert {%d,%d}: %w", u, v, err)
		}
	}
	return deleteIDs, nil
}

func normPair(u, v int) (int, int) {
	if u > v {
		return v, u
	}
	return u, v
}

// insertWeight maps an Update's weight field to the AddEdgeW weight: on
// unweighted graphs the zero value means 1.
func insertWeight(g *graph.Graph, ins Update) float64 {
	if !g.Weighted() && ins.W == 0 {
		return 1
	}
	return ins.W
}

// ApplyBatch applies one batch of updates: deletions first, then
// insertions. On return (without error) the maintained spanner again
// satisfies the f-fault-tolerant (2k-1)-spanner property for the updated
// graph — by repair when few certificates broke, by a counted full rebuild
// otherwise — and the returned Delta names exactly what moved, so snapshot
// consumers can patch rather than rebuild their copies. A validation error
// leaves graph and spanner unchanged (and the Delta empty).
func (m *Maintainer) ApplyBatch(b Batch) (Delta, error) {
	var delta Delta
	deleteIDs, err := m.validateBatch(b)
	if err != nil {
		return delta, err
	}

	// Phase 1: structural deletions, collecting repair candidates from the
	// reverse index of every removed spanner edge.
	var candidates []int
	removedHids := make(map[int]bool)
	for _, gid := range deleteIDs {
		st := m.state[gid]
		e := m.g.Edge(gid)
		delta.Graph.Vertices = append(delta.Graph.Vertices, e.U, e.V)
		delta.Graph.EdgeIDs = append(delta.Graph.EdgeIDs, gid)
		if st.inH {
			m.stats.DeletedFromH++
			removedHids[st.hID] = true
			candidates = append(candidates, m.users[st.hID]...)
			m.users[st.hID] = nil
			delta.Spanner.Vertices = append(delta.Spanner.Vertices, e.U, e.V)
			delta.Spanner.EdgeIDs = append(delta.Spanner.EdgeIDs, st.hID)
			if err := m.h.RemoveEdge(st.hID); err != nil {
				panic(fmt.Sprintf("dynamic: spanner desync: %v", err))
			}
		}
		if err := m.g.RemoveEdge(gid); err != nil {
			panic(fmt.Sprintf("dynamic: graph desync: %v", err))
		}
		m.state[gid] = edgeState{}
	}
	m.stats.Deleted += len(deleteIDs)

	// Phase 2: filter the candidates down to the edges whose current
	// witness actually references a removed spanner edge. The reverse index
	// may hold stale entries (witnesses replaced since registration) and
	// edges deleted in this very batch.
	stale := candidates[:0]
	seen := make(map[int]bool, len(candidates))
	for _, gid := range candidates {
		if seen[gid] || !m.g.EdgeAlive(gid) || m.state[gid].inH {
			continue
		}
		seen[gid] = true
		for _, hid := range m.state[gid].witness {
			if removedHids[hid] {
				stale = append(stale, gid)
				break
			}
		}
	}
	m.stats.Invalidated += len(stale)

	// Phase 3: insertions enter the graph (not yet the spanner), so both
	// the rebuild and the repair path below see the final edge set.
	insertIDs := make([]int, 0, len(b.Insert))
	for _, ins := range b.Insert {
		gid, err := m.g.AddEdgeW(ins.U, ins.V, insertWeight(m.g, ins))
		if err != nil {
			panic(fmt.Sprintf("dynamic: validated insert failed: %v", err))
		}
		if gid >= len(m.state) {
			grown := make([]edgeState, m.g.EdgeIDLimit())
			copy(grown, m.state)
			m.state = grown
		}
		m.state[gid] = edgeState{}
		insertIDs = append(insertIDs, gid)
		e := m.g.Edge(gid)
		delta.Graph.Vertices = append(delta.Graph.Vertices, e.U, e.V)
		delta.Graph.EdgeIDs = append(delta.Graph.EdgeIDs, gid)
	}
	m.stats.Inserted += len(insertIDs)
	m.stats.Batches++

	// Phase 4: too much damage — rebuild once instead of repairing.
	if len(stale) > 0 && float64(len(stale)) > m.budget*float64(m.g.M()) {
		m.stats.RebuildBatches++
		delta.Rebuilt = true
		delta.Spanner = graph.Touched{}
		if err := m.rebuild(); err != nil {
			return delta, err
		}
		for _, gid := range insertIDs {
			if m.state[gid].inH {
				m.stats.InsertedIntoH++
			}
		}
		return delta, nil
	}
	if len(stale) > 0 {
		m.stats.RepairBatches++
	}

	// Phase 5: re-decide the stale edges, then decide the new ones, each
	// group in the canonical consideration order (nondecreasing weight on
	// weighted graphs). Decisions run against the current spanner — capped
	// at the edge's weight on weighted graphs — so a NO answer yields a
	// valid fresh witness and a YES answer grows the spanner, which never
	// harms other certificates. Decisions that flip an edge into H extend
	// the spanner delta; NO answers replace witnesses without moving H.
	m.sortByWeight(stale)
	m.sortByWeight(insertIDs)
	for _, gid := range stale {
		if err := m.decide(gid); err != nil {
			return delta, err
		}
		m.recordIfEnteredH(&delta, gid)
	}
	for _, gid := range insertIDs {
		if err := m.decide(gid); err != nil {
			return delta, err
		}
		if m.state[gid].inH {
			m.stats.InsertedIntoH++
		}
		m.recordIfEnteredH(&delta, gid)
	}
	return delta, nil
}

// recordIfEnteredH extends the spanner delta when the decision for graph
// edge gid added it to H.
func (m *Maintainer) recordIfEnteredH(delta *Delta, gid int) {
	st := m.state[gid]
	if !st.inH {
		return
	}
	e := m.g.Edge(gid)
	delta.Spanner.Vertices = append(delta.Spanner.Vertices, e.U, e.V)
	delta.Spanner.EdgeIDs = append(delta.Spanner.EdgeIDs, st.hID)
}

// sortByWeight orders graph edge IDs by nondecreasing weight, ties by ID —
// the weighted greedy's consideration order. On unweighted graphs all
// weights are 1, so this is ascending ID order.
func (m *Maintainer) sortByWeight(ids []int) {
	sort.Slice(ids, func(a, b int) bool {
		wa, wb := m.g.Weight(ids[a]), m.g.Weight(ids[b])
		if wa != wb {
			return wa < wb
		}
		return ids[a] < ids[b]
	})
}

// decide runs the LBC gap decision for graph edge gid against the current
// spanner and installs the outcome: the edge itself on YES, a coverage
// witness on NO.
func (m *Maintainer) decide(gid int) error {
	e := m.g.Edge(gid)
	var res lbc.Result
	var err error
	if m.g.Weighted() {
		// Decide against the light prefix H_{<=w}: pinning every strictly
		// heavier spanner edge preserves the Theorem 10 invariant that a
		// (2k-1)-hop witness path weighs at most (2k-1)·w.
		m.s.ResetBlocked()
		for hid := 0; hid < m.h.EdgeIDLimit(); hid++ {
			if m.h.EdgeAlive(hid) && m.h.Weight(hid) > e.W {
				m.s.BlockEdge(hid)
			}
		}
		res, err = lbc.DecideWithBlocked(m.s, m.h, e.U, e.V, m.t, m.cfg.F, m.cfg.Mode)
	} else {
		res, err = lbc.DecideWith(m.s, m.h, e.U, e.V, m.t, m.cfg.F, m.cfg.Mode)
	}
	if err != nil {
		return fmt.Errorf("dynamic: LBC on edge {%d,%d}: %w", e.U, e.V, err)
	}
	m.stats.Redecided++
	m.stats.BFSPasses += res.Passes
	if res.Yes {
		hid := m.h.MustAddEdgeW(e.U, e.V, e.W)
		m.growUsers()
		m.state[gid] = edgeState{inH: true, hID: hid}
		return nil
	}
	witness := append([]int(nil), res.PathEdges...)
	m.state[gid] = edgeState{witness: witness}
	m.registerWitness(gid, witness)
	return nil
}
