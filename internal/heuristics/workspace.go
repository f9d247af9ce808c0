package heuristics

import (
	"sync"

	"multicastnet/internal/core"
	"multicastnet/internal/graphx"
	"multicastnet/internal/topology"
)

// Workspace is the reusable scratch state of every heuristic kernel in
// this package. All per-call maps and slices of the original
// implementations are replaced by dense arrays indexed by NodeID,
// epoch-marked visited sets (reset in O(1) per call), an arena for the
// destination sublists carried in message headers, and a bitset
// destination set (core.NodeSet) sized to the topology. After the first
// call on a given topology the arrays are warm and the kernel methods
// (ws.GreedyST, ws.SortedMP, ws.KMB, ...) run with zero heap
// allocations; the exported package functions remain as thin wrappers
// that acquire a pooled workspace and materialize the original
// map-based result types.
//
// A Workspace is owned by one goroutine at a time. Use
// AcquireWorkspace/ReleaseWorkspace for a sync.Pool-backed instance, or
// NewWorkspace for an owned one (e.g. one per sweep worker).
type Workspace struct {
	nodes int // node count the per-node arrays are sized for

	dest core.NodeSet // destination bitset of the current call
	dlv  epochMarks   // delivered-once guard
	tmp  epochMarks   // contracted-tree membership / subtree marks
	vis  epochMarks   // KMB node-visited marks
	em   epochMarks   // KMB subgraph edge marks (arc-position space)

	keys   []int64           // packed (key, id) sort scratch
	sorted []topology.NodeID // destinations in prepared order
	nbuf   []topology.NodeID // Topology.Neighbors buffer
	path   []topology.NodeID // SortedMP/MC route

	edges     [][2]topology.NodeID // send log, in transmission order
	delivered []delivery           // first-delivery log, in delivery order

	trEdges [][2]topology.NodeID // contracted greedy Steiner tree
	sons    []topology.NodeID    // sons of the replicate node
	nstack  []topology.NodeID    // subtree-marking DFS stack
	stack   []stVisit            // carried-tree walk stack

	arena []topology.NodeID // message destination-list arena
	msgs  []stMsg           // FIFO message queue (head-indexed)

	dir  [12][]topology.NodeID // direction buckets (MT kernels)
	lenA []topology.NodeID     // LEN ping-pong partition buffers
	lenB []topology.NodeID

	rt     core.UnicastRouter // cached deterministic router
	rtTopo topology.Topology

	// KMB state (graphx vertex space, not topology NodeIDs).
	csr       *graphx.CSR
	csrFor    *graphx.Graph
	kdist     []int32    // terminal-major distance table, stride = |V|
	kqueue    []int32    // BFS queue (also the visit-order log)
	kparent   []int32    // spanning-tree parent
	kdeg      []int32    // spanning-tree degree
	ktList    []int32    // Prim tree members (terminal indices, insertion order)
	kkey      []int32    // Prim: candidate's closure distance to the tree
	karg      []int32    // Prim: ktList position of the tree terminal at kkey
	kclosure  [][2]int32 // closure MST edges (terminal indices)
	kmbPacked []int64    // pruned tree edges, packed (a<<32 | b), sorted
}

// delivery is one first-delivery event: destination and hop depth.
type delivery struct {
	node  topology.NodeID
	depth int32
}

// stVisit is a frame of the carried-tree realization walk.
type stVisit struct {
	node   topology.NodeID
	parent topology.NodeID
	depth  int32
}

// stMsg is a queued message: current node, hop depth, and the arena
// segment [off, off+n) holding its destination list. Segments are
// immutable once written, so they stay valid across arena growth.
type stMsg struct {
	at    topology.NodeID
	depth int32
	off   int32
	n     int32
	axis  trunkAxis // divided-greedy trunk dimension; unused elsewhere
}

// epochMarks is an O(1)-reset visited set: a slot is marked iff its
// stored epoch equals the current one.
type epochMarks struct {
	epoch uint32
	m     []uint32
}

// reset sizes the mark array for n slots and invalidates all marks.
func (e *epochMarks) reset(n int) {
	if len(e.m) < n {
		e.m = make([]uint32, n)
		e.epoch = 0
	}
	e.epoch++
	if e.epoch == 0 { // wrapped: every stale mark would look fresh
		clear(e.m)
		e.epoch = 1
	}
}

func (e *epochMarks) mark(i int32)     { e.m[i] = e.epoch }
func (e *epochMarks) has(i int32) bool { return e.m[i] == e.epoch }

var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// AcquireWorkspace returns a pooled workspace. Release it with
// ReleaseWorkspace when the call tree that uses it finishes; the
// exported kernel wrappers do this internally, so per-request services
// (mcastsvc) and parallel sweeps pay no per-call setup.
func AcquireWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// ReleaseWorkspace returns ws to the pool. The caller must not retain
// any slice or result view obtained from ws.
func ReleaseWorkspace(ws *Workspace) { wsPool.Put(ws) }

// NewWorkspace returns an owned workspace (not pooled) — one per sweep
// worker keeps arrays maximally warm.
func NewWorkspace() *Workspace { return new(Workspace) }

// ensure sizes the per-node arrays for t.
func (ws *Workspace) ensure(t topology.Topology) {
	n := t.Nodes()
	ws.nodes = n
	if deg := t.MaxDegree(); cap(ws.nbuf) < deg {
		ws.nbuf = make([]topology.NodeID, deg)
	}
}

// begin starts a kernel call that logs transmissions and deliveries.
func (ws *Workspace) begin(t topology.Topology, k core.MulticastSet) {
	ws.ensure(t)
	ws.edges = ws.edges[:0]
	ws.delivered = ws.delivered[:0]
	ws.dlv.reset(ws.nodes)
	k.DestBits(ws.nodes, &ws.dest)
}

// send logs one message transmission over the link (from, to).
func (ws *Workspace) send(from, to topology.NodeID) {
	ws.edges = append(ws.edges, [2]topology.NodeID{from, to})
}

// deliver logs the first delivery to v when v is a destination.
func (ws *Workspace) deliver(v topology.NodeID, depth int32) {
	if ws.dest.Has(v) && !ws.dlv.has(int32(v)) {
		ws.dlv.mark(int32(v))
		ws.delivered = append(ws.delivered, delivery{node: v, depth: depth})
	}
}

// router returns the cached deterministic unicast router for t.
func (ws *Workspace) router(t topology.Topology) core.UnicastRouter {
	if ws.rtTopo != t {
		r, err := core.RouterFor(t)
		if err != nil {
			panic(err)
		}
		ws.rt, ws.rtTopo = r, t
	}
	return ws.rt
}

// stResult materializes the run log as the package's map-based result.
func (ws *Workspace) stResult() *STResult {
	res := newSTResult()
	for _, e := range ws.edges {
		res.send(e[0], e[1])
	}
	for _, d := range ws.delivered {
		res.Delivered[d.node] = int(d.depth)
	}
	return res
}

// Links returns the transmission count of the last tree/subgraph kernel
// run on ws.
func (ws *Workspace) Links() int { return len(ws.edges) }
