package wormsim

import (
	"fmt"
	"testing"

	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// refWaitFor is the reference for DetectDeadlock: the full wait-for
// graph over worm ids, built with plain maps. Every live worm is a node;
// a worm whose header waits on a channel has an edge to the channel's
// owner and to every waiter queued ahead of it (to all of them when it
// has not queued yet).
func refWaitFor(n *Network) map[int][]int {
	g := map[int][]int{}
	for _, wi := range n.worms {
		w := &n.slots[wi]
		if w.done {
			continue
		}
		g[w.id] = nil
		wait := func(id int32) {
			if o := n.chanOwner[id]; o >= 0 && o != wi {
				g[w.id] = append(g[w.id], n.slots[o].id)
			}
			for _, q := range n.chanWaiters(id) {
				if q == wi {
					break
				}
				g[w.id] = append(g[w.id], n.slots[q].id)
			}
		}
		if w.kind == pathWorm {
			if w.headIdx < len(w.chans) {
				wait(w.chans[w.headIdx])
			}
		} else if w.headIdx < len(w.levels) {
			l := &w.levels[w.headIdx]
			for i, id := range l.channels {
				if !l.taken[i] {
					wait(id)
				}
			}
		}
	}
	return g
}

// refHasCycle is a plain recursive three-colour DFS over g.
func refHasCycle(g map[int][]int) bool {
	color := map[int]int{}
	var visit func(u int) bool
	visit = func(u int) bool {
		color[u] = 1
		for _, v := range g[u] {
			if color[v] == 1 || (color[v] == 0 && visit(v)) {
				return true
			}
		}
		color[u] = 2
		return false
	}
	for u := range g {
		if color[u] == 0 && visit(u) {
			return true
		}
	}
	return false
}

// hasEdge reports whether u -> v is an edge of g.
func hasEdge(g map[int][]int, u, v int) bool {
	for _, x := range g[u] {
		if x == v {
			return true
		}
	}
	return false
}

// checkDeadlockAudit asserts the differential property at the network's
// current state: DetectDeadlock returns nil exactly when the reference
// graph is acyclic, and the ids it returns are distinct and form a cycle
// of the reference graph (DetectDeadlock lists them against the edge
// direction: ids[i+1] waits for ids[i], and ids[0] for the last one). It
// reports whether the network is deadlocked.
func checkDeadlockAudit(t testing.TB, n *Network, label string) bool {
	t.Helper()
	got := n.DetectDeadlock()
	g := refWaitFor(n)
	want := refHasCycle(g)
	if (got != nil) != want {
		t.Fatalf("%s: cycle %d: DetectDeadlock = %v, reference has cycle = %v", label, n.Cycle(), got, want)
	}
	seen := map[int]bool{}
	for i, id := range got {
		if seen[id] {
			t.Fatalf("%s: cycle %d: worm %d repeats in %v", label, n.Cycle(), id, got)
		}
		seen[id] = true
		if u := got[(i+1)%len(got)]; !hasEdge(g, u, id) {
			t.Fatalf("%s: cycle %d: %v is not a cycle of the full graph: no edge %d -> %d",
				label, n.Cycle(), got, u, id)
		}
	}
	return want
}

// randomWalk returns a simple path of at most hops hops from src in t,
// delivering to its last node and, at random, to earlier ones; nil when
// src has no neighbour.
func randomWalk(t topology.Topology, rng *stats.Rand, src topology.NodeID, hops int) []dfr.PathRoute {
	nodes := []topology.NodeID{src}
	on := map[topology.NodeID]bool{src: true}
	var buf []topology.NodeID
	for len(nodes) <= hops {
		var free []topology.NodeID
		buf = t.Neighbors(nodes[len(nodes)-1], buf[:0])
		for _, v := range buf {
			if !on[v] {
				free = append(free, v)
			}
		}
		if len(free) == 0 {
			break
		}
		v := free[rng.Intn(len(free))]
		on[v] = true
		nodes = append(nodes, v)
	}
	if len(nodes) < 2 {
		return nil
	}
	p := dfr.PathRoute{Nodes: nodes}
	for _, v := range nodes[1 : len(nodes)-1] {
		if rng.Intn(3) == 0 {
			p.Dests = append(p.Dests, v)
		}
	}
	p.Dests = append(p.Dests, nodes[len(nodes)-1])
	return []dfr.PathRoute{p}
}

// randomTree returns a random lock-step tree of at most size edges
// rooted at src (edges parent-before-child), delivering to every leaf
// and, at random, to inner nodes.
func randomTree(t topology.Topology, rng *stats.Rand, src topology.NodeID, size int) []dfr.TreeRoute {
	tr := dfr.TreeRoute{Root: src}
	in := map[topology.NodeID]bool{src: true}
	members := []topology.NodeID{src}
	var buf []topology.NodeID
	for tries := 0; len(tr.Edges) < size && tries < 8*size; tries++ {
		u := members[rng.Intn(len(members))]
		buf = t.Neighbors(u, buf[:0])
		v := buf[rng.Intn(len(buf))]
		if in[v] {
			continue
		}
		in[v] = true
		members = append(members, v)
		tr.Edges = append(tr.Edges, dfr.Channel{From: u, To: v})
	}
	if len(tr.Edges) == 0 {
		return nil
	}
	parent := map[topology.NodeID]bool{}
	for _, e := range tr.Edges {
		parent[e.From] = true
	}
	for _, v := range members[1:] {
		if !parent[v] || rng.Intn(3) == 0 {
			tr.Dests = append(tr.Dests, v)
		}
	}
	return []dfr.TreeRoute{tr}
}

// deadlockTopologies are the small networks of the differential tests.
func deadlockTopologies() []topology.Topology {
	return []topology.Topology{topology.NewMesh2D(4, 4), topology.NewHypercube(3)}
}

// deadlockOp is one fuzzed or random injection: after gap cycles, a path
// (or tree) worm of a short (or long) message from node src.
type deadlockOp struct {
	gap, src  int
	tree, big bool
}

// driveDeadlockAudit injects ops into a fresh network over t, checking
// the audit against the reference after every Step, then steps on until
// the network drains or stalls. Worm shapes come from rng. It returns the
// number of checked cycles that were deadlocked and that were not.
func driveDeadlockAudit(tb testing.TB, t topology.Topology, rng *stats.Rand, ops []deadlockOp, label string) (dead, live int) {
	n := NewNetwork(t)
	check := func() {
		if checkDeadlockAudit(tb, n, label) {
			dead++
		} else {
			live++
		}
	}
	for _, op := range ops {
		for i := 0; i < op.gap; i++ {
			n.Step()
			check()
		}
		L := 1 + rng.Intn(4)
		if op.big {
			L = 16 + rng.Intn(64)
		}
		src := topology.NodeID(op.src % t.Nodes())
		if op.tree {
			n.InjectMulticast(nil, randomTree(t, rng, src, 1+rng.Intn(6)), L)
		} else {
			n.InjectMulticast(randomWalk(t, rng, src, 1+rng.Intn(6)), nil, L)
		}
	}
	var lastProgress int64
	for n.ActiveWorms() > 0 && n.Cycle()-lastProgress < 200 {
		if n.Step() {
			lastProgress = n.Cycle()
		}
		check()
	}
	return dead, live
}

// TestDetectDeadlockMatchesReference drives random path and lock-step
// tree traffic, with short and long messages, over a 4x4 mesh and a
// 3-cube and compares the reduced audit with the full-graph reference at
// every cycle. Single-channel random routes deadlock readily, so both
// answers are exercised.
func TestDetectDeadlockMatchesReference(t *testing.T) {
	for _, topo := range deadlockTopologies() {
		var dead, live int
		for seed := uint64(1); seed <= 60; seed++ {
			rng := stats.NewRand(seed)
			ops := make([]deadlockOp, 4+rng.Intn(12))
			for i := range ops {
				ops[i] = deadlockOp{
					gap:  rng.Intn(4),
					src:  rng.Intn(topo.Nodes()),
					tree: rng.Intn(3) == 0,
					big:  rng.Intn(2) == 0,
				}
			}
			d, l := driveDeadlockAudit(t, topo, rng, ops, fmt.Sprintf("%s/seed%d", topo.Name(), seed))
			dead += d
			live += l
		}
		if dead == 0 || live == 0 {
			t.Errorf("%s: %d deadlocked and %d live checks; both answers must be exercised", topo.Name(), dead, live)
		}
	}
}

// FuzzDetectDeadlock is TestDetectDeadlockMatchesReference over fuzzed
// injections: each op byte picks the gap before an injection, path or
// tree, short or long message and the source node; seed shapes the
// worms.
func FuzzDetectDeadlock(f *testing.F) {
	f.Add(false, uint64(1), []byte{0x00, 0x10, 0x21, 0x32})
	f.Add(true, uint64(7), []byte{0xf3, 0x0e, 0x55, 0xaa, 0x01})
	f.Add(false, uint64(42), []byte{0x02, 0x02, 0x02, 0x02, 0x02, 0x02, 0x02, 0x02})
	f.Fuzz(func(t *testing.T, cube bool, seed uint64, opBytes []byte) {
		if len(opBytes) > 64 {
			opBytes = opBytes[:64]
		}
		topo := deadlockTopologies()[0]
		if cube {
			topo = deadlockTopologies()[1]
		}
		ops := make([]deadlockOp, len(opBytes))
		for i, b := range opBytes {
			ops[i] = deadlockOp{gap: int(b & 3), tree: b&4 != 0, big: b&8 != 0, src: int(b >> 4)}
		}
		driveDeadlockAudit(t, topo, stats.NewRand(seed), ops, "fuzz")
	})
}

// BenchmarkDetectDeadlock times one periodic deadlock audit on a loaded
// 8x8 mesh: the Fig. 7.11 high-load point (dual-path, 128-flit messages,
// avg 10 destinations, one multicast per 300 us per node, so one per 94
// cycles network-wide) after 50000 cycles. The audit must not allocate.
func BenchmarkDetectDeadlock(b *testing.B) {
	m := topology.NewMesh2D(8, 8)
	st, err := routing.NewState(m)
	if err != nil {
		b.Fatal(err)
	}
	r, err := routing.New("dual-path", st)
	if err != nil {
		b.Fatal(err)
	}
	n := NewNetwork(m)
	rng := stats.NewRand(1)
	for c := 0; c < 50_000; c++ {
		if rng.Intn(94) == 0 {
			src := topology.NodeID(rng.Intn(m.Nodes()))
			p := r.PlanSet(randomMulticast(m, rng, src, 10))
			n.InjectMulticast(p.Paths, p.Trees, 128)
		}
		n.Step()
	}
	waiting := 0
	for _, wi := range n.worms {
		if w := &n.slots[wi]; !w.done && w.headIdx < w.routeLen() {
			waiting++
		}
	}
	n.DetectDeadlock() // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n.DetectDeadlock() != nil {
			b.Fatal("dual-path deadlocked")
		}
	}
	b.ReportMetric(float64(n.ActiveWorms()), "worms")
	b.ReportMetric(float64(waiting), "waiting")
}
