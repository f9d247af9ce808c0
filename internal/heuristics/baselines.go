package heuristics

import (
	"slices"

	"multicastnet/internal/core"
	"multicastnet/internal/graphx"
	"multicastnet/internal/topology"
)

// MultiUnicastTraffic returns the traffic of implementing the multicast as
// k separate one-to-one messages along deterministic shortest paths — the
// "multiple one-to-one" baseline of Figures 7.1–7.5. Each message over
// each link counts one unit, so shared links are paid once per message.
func MultiUnicastTraffic(t topology.Topology, k core.MulticastSet) int {
	total := 0
	for _, d := range k.Dests {
		total += t.Distance(k.Source, d)
	}
	return total
}

// BroadcastTraffic returns the traffic of delivering the message to every
// node over a network spanning tree — the "broadcast" baseline: N-1 links
// regardless of the destination count.
func BroadcastTraffic(t topology.Topology) int { return t.Nodes() - 1 }

// LEN runs the greedy multicast-tree heuristic of Lan, Esfahanian, and Ni
// [20] on a hypercube, the published baseline of Fig. 7.4. At each node
// the destinations are repeatedly assigned to the dimension that covers
// the most of them: the subset of destinations whose address differs in
// the chosen bit is forwarded to that neighbor. Every destination travels
// a shortest path, so the pattern is a multicast tree. Returns the link
// traffic; the pattern stays in the workspace run log.
func (ws *Workspace) LEN(h *topology.Hypercube, k core.MulticastSet) int {
	ws.begin(h, k)
	ws.arena = append(ws.arena[:0], k.Dests...)
	ws.msgs = append(ws.msgs[:0], stMsg{at: k.Source, off: 0, n: int32(len(ws.arena))})
	for head := 0; head < len(ws.msgs); head++ {
		msg := ws.msgs[head]
		u := msg.at
		rem := ws.lenA[:0]
		for _, d := range ws.arena[msg.off : msg.off+msg.n] {
			if d == u {
				ws.deliver(d, msg.depth)
				continue
			}
			rem = append(rem, d)
		}
		spare := ws.lenB[:0]
		for len(rem) > 0 {
			// Choose the dimension covering the most remaining
			// destinations (lowest dimension on ties).
			bestDim, bestCount := -1, 0
			for b := 0; b < h.Dim; b++ {
				count := 0
				for _, d := range rem {
					if (u^d)>>b&1 == 1 {
						count++
					}
				}
				if count > bestCount {
					bestDim, bestCount = b, count
				}
			}
			next := u ^ topology.NodeID(1<<bestDim)
			// The covered subset becomes the forwarded message's
			// destination list (a fresh arena segment); the rest stays
			// for another round at u.
			off := int32(len(ws.arena))
			spare = spare[:0]
			for _, d := range rem {
				if (u^d)>>bestDim&1 == 1 {
					ws.arena = append(ws.arena, d)
				} else {
					spare = append(spare, d)
				}
			}
			ws.send(u, next)
			ws.msgs = append(ws.msgs, stMsg{at: next, depth: msg.depth + 1, off: off, n: int32(len(ws.arena)) - off})
			rem, spare = spare, rem
		}
		ws.lenA, ws.lenB = rem, spare // keep grown capacity for reuse
	}
	return len(ws.edges)
}

// LEN runs the Lan–Esfahanian–Ni multicast-tree heuristic [20] on a
// hypercube and returns the delivered routing pattern. See Workspace.LEN
// for the allocation-free form.
func LEN(h *topology.Hypercube, k core.MulticastSet) *STResult {
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	ws.LEN(h, k)
	return ws.stResult()
}

// KMB computes a Steiner tree for terminals in g with the classic
// Kou–Markowsky–Berman heuristic [55] (2-approximation): build the metric
// closure over the terminals, take its minimum spanning tree, expand each
// closure edge into a shortest path, take a spanning tree of the expanded
// subgraph, and prune non-terminal leaves. Requires len(terminals) >= 2.
// Returns the pruned tree's edge count; the edges are left in
// ws.kmbPacked as (min<<32|max) pairs in ascending order.
//
// The computation is fully deterministic: among the minimum-distance
// (tree terminal, candidate) pairs the Prim step takes the one whose
// tree terminal joined the tree earliest, then the candidate earliest
// in input order (the map-based original left ties to map iteration
// order). See kmbPrim.
func (ws *Workspace) KMB(g *graphx.Graph, terminals []int) int {
	if len(terminals) < 2 {
		ws.kmbPacked = ws.kmbPacked[:0]
		return 0
	}
	ws.kmbClosure(g, terminals)
	ws.kmbPrim(terminals)
	return ws.kmbTree(terminals)
}

// kmbClosure builds the metric closure over the terminals: one BFS
// distance row per terminal in ws.kdist (stride |V|), and sizes the
// per-vertex KMB scratch for g.
func (ws *Workspace) kmbClosure(g *graphx.Graph, terminals []int) {
	if ws.csrFor != g {
		ws.csr, ws.csrFor = graphx.NewCSR(g), g
	}
	csr := ws.csr
	n := csr.N()
	nt := len(terminals)

	if cap(ws.kdist) < nt*n {
		ws.kdist = make([]int32, nt*n)
	}
	ws.kdist = ws.kdist[:nt*n]
	if cap(ws.kqueue) < n {
		ws.kqueue = make([]int32, 0, n)
	}
	if cap(ws.kparent) < n {
		ws.kparent = make([]int32, n)
		ws.kdeg = make([]int32, n)
	}
	ws.kparent, ws.kdeg = ws.kparent[:n], ws.kdeg[:n]
	for ti, t := range terminals {
		row := ws.kdist[ti*n : (ti+1)*n]
		for i := range row {
			row[i] = -1
		}
		row[t] = 0
		q := ws.kqueue[:0]
		q = append(q, int32(t))
		for qh := 0; qh < len(q); qh++ {
			u := q[qh]
			du := row[u]
			for _, w := range csr.Row(u) {
				if row[w] < 0 {
					row[w] = du + 1
					q = append(q, w)
				}
			}
		}
		ws.kqueue = q
	}
}

// kmbPrim is Prim's MST over the terminal closure in O(t²). ktList
// holds the terminal indices already in the tree, in insertion order;
// ws.vis marks their vertices. For each candidate si, kkey[si] is its
// closure distance to the tree (-1: unreachable so far) and karg[si] the
// ktList position of the earliest tree terminal at that distance; a new
// tree member updates them only on strict improvement, so the earlier
// position keeps a tie. Each round joins the candidate minimal by
// (kkey, karg, si) — the lexicographically first minimum-distance pair
// by (insertion position, input index), the pair a full rescan of every
// (tree terminal, candidate) pair in that order with strict improvement
// would pick. The closure edges go to ws.kclosure.
func (ws *Workspace) kmbPrim(terminals []int) {
	n := ws.csr.N()
	nt := len(terminals)
	if cap(ws.kkey) < nt {
		ws.kkey = make([]int32, nt)
		ws.karg = make([]int32, nt)
	}
	key, arg := ws.kkey[:nt], ws.karg[:nt]
	for i := range key {
		key[i] = -1
	}
	ws.ktList = append(ws.ktList[:0], 0)
	ws.vis.reset(n)
	ws.vis.mark(int32(terminals[0]))
	ws.kclosure = ws.kclosure[:0]
	for len(ws.ktList) < nt {
		pos := int32(len(ws.ktList) - 1)
		ti := ws.ktList[pos]
		row := ws.kdist[int(ti)*n : (int(ti)+1)*n]
		best := int32(-1)
		for si, s := range terminals {
			if ws.vis.has(int32(s)) {
				continue
			}
			if d := row[s]; d >= 0 && (key[si] < 0 || d < key[si]) {
				key[si], arg[si] = d, pos
			}
			if k := key[si]; k >= 0 && (best < 0 || k < key[best] || k == key[best] && arg[si] < arg[best]) {
				best = int32(si)
			}
		}
		if best < 0 {
			panic("heuristics: KMB terminals not connected")
		}
		ws.kclosure = append(ws.kclosure, [2]int32{ws.ktList[arg[best]], best})
		ws.vis.mark(int32(terminals[best]))
		ws.ktList = append(ws.ktList, best)
	}
}

// kmbTree expands the closure MST in ws.kclosure into graph paths, takes
// their spanning tree, prunes non-terminal leaves, and leaves the sorted
// packed edges in ws.kmbPacked. Returns the edge count.
func (ws *Workspace) kmbTree(terminals []int) int {
	csr := ws.csr
	n := csr.N()

	// Expand each closure edge into the deterministic shortest path
	// (backward walk from v choosing the first adjacency-order neighbor
	// one step closer, exactly as graphx.ShortestPath does), marking the
	// traversed arcs in the sorted-position space.
	ws.em.reset(csr.Arcs())
	for _, ce := range ws.kclosure {
		row := ws.kdist[int(ce[0])*n : (int(ce[0])+1)*n]
		cur := int32(terminals[ce[1]])
		for d := row[cur]; d > 0; d-- {
			for _, w := range csr.Row(cur) {
				if row[w] == d-1 {
					ws.em.mark(csr.SortedPos(cur, w))
					ws.em.mark(csr.SortedPos(w, cur))
					cur = w
					break
				}
			}
		}
	}

	// Spanning tree of the expanded subgraph: BFS from terminals[0] over
	// the marked arcs, neighbors in ascending vertex order (the original
	// sorted its subgraph adjacency lists).
	root := int32(terminals[0])
	ws.vis.reset(n)
	ws.vis.mark(root)
	ws.kparent[root] = -1
	bfs := ws.kqueue[:0]
	bfs = append(bfs, root)
	for qh := 0; qh < len(bfs); qh++ {
		u := bfs[qh]
		srow := csr.SortedRow(u)
		base := csr.RowStart[u]
		for i, w := range srow {
			if ws.em.has(base+int32(i)) && !ws.vis.has(w) {
				ws.vis.mark(w)
				ws.kparent[w] = u
				bfs = append(bfs, w)
			}
		}
	}
	ws.kqueue = bfs

	// Degrees of the spanning tree, then prune non-terminal leaves to the
	// (unique) fixpoint. Children follow parents in BFS order, so one
	// pass with upward cascading reaches it. ws.tmp marks terminals,
	// ws.dlv marks removed vertices.
	clear(ws.kdeg)
	for _, v := range bfs[1:] {
		ws.kdeg[v]++
		ws.kdeg[ws.kparent[v]]++
	}
	ws.tmp.reset(n)
	for _, t := range terminals {
		ws.tmp.mark(int32(t))
	}
	ws.dlv.reset(n)
	for _, v := range bfs[1:] {
		for u := v; u != root && ws.kdeg[u] == 1 && !ws.tmp.has(u) && !ws.dlv.has(u); {
			ws.dlv.mark(u)
			ws.kdeg[u]--
			p := ws.kparent[u]
			ws.kdeg[p]--
			u = p
		}
	}

	// Collect surviving edges as packed (min<<32 | max), ascending.
	ws.kmbPacked = ws.kmbPacked[:0]
	for _, v := range bfs[1:] {
		if ws.dlv.has(v) {
			continue
		}
		p := ws.kparent[v]
		if ws.dlv.has(p) {
			continue
		}
		a, b := v, p
		if a > b {
			a, b = b, a
		}
		ws.kmbPacked = append(ws.kmbPacked, int64(a)<<32|int64(b))
	}
	slices.Sort(ws.kmbPacked)
	return len(ws.kmbPacked)
}

// KMB computes a Steiner tree for terminals in g with the
// Kou–Markowsky–Berman heuristic [55]. It is the general-graph reference
// against which the topology-aware greedy ST is compared. The returned
// edges are undirected pairs (u < v) in ascending order. See
// Workspace.KMB for the allocation-free form.
func KMB(g *graphx.Graph, terminals []int) [][2]int {
	if len(terminals) == 0 {
		return nil
	}
	if len(terminals) == 1 {
		return [][2]int{}
	}
	ws := AcquireWorkspace()
	defer ReleaseWorkspace(ws)
	ws.KMB(g, terminals)
	out := make([][2]int, len(ws.kmbPacked))
	for i, p := range ws.kmbPacked {
		out[i] = [2]int{int(p >> 32), int(p & 0xffffffff)}
	}
	return out
}

// TopologyGraph converts a Topology into a graphx.Graph (used to run the
// general-graph baselines on the paper's host graphs).
func TopologyGraph(t topology.Topology) *graphx.Graph {
	g := graphx.NewGraph(t.Nodes())
	var buf []topology.NodeID
	for v := topology.NodeID(0); int(v) < t.Nodes(); v++ {
		buf = t.Neighbors(v, buf[:0])
		for _, w := range buf {
			// Each undirected edge is seen from both endpoints; the v < w
			// guard admits it exactly once, so skip the duplicate scan.
			if v < w {
				g.AddEdgeUnchecked(int(v), int(w))
			}
		}
	}
	return g
}
