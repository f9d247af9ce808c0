package fault

import (
	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/topology"
)

// Escape-segment repair: the last-resort plan construction that works on
// any connected masked graph.
//
// A repair worm visits its destinations in label order (high group
// ascending, low group descending, exactly like dual-path), but each leg
// is a deterministic BFS shortest path over the masked graph, which is
// generally not label-monotone. The leg is therefore split into maximal
// label-monotone segments, and the channel class is escalated at every
// direction reversal (and past every failed virtual-channel copy). The
// resulting worm has a non-decreasing class sequence whose equal-class
// runs are each strictly label-monotone.
//
// That invariant is what keeps the union channel dependency graph
// acyclic: a dependency cycle can never descend in class, so it must
// live inside a single class; within one class every worm contributes a
// single-direction monotone run, and the ascending-label and
// descending-label channels are disjoint channel sets with no dependency
// edges between them, each acyclic under the label potential. Path
// schemes place only label-monotone paths in their own classes, so
// repair segments sharing class 0 with them preserve the argument; tree
// schemes get repair classes strictly above the tree classes instead
// (base = repairBase), because quadrant-tree dependencies are structured
// by geometry, not labels.
//
// A worm must never wait on a channel it already holds (self-deadlock in
// the wormhole pipeline), so a leg that would reuse one of the worm's
// own (channel, class) pairs closes the worm and starts a fresh one from
// the source.

// pathBuilder accumulates one repair worm.
type pathBuilder struct {
	nodes   []topology.NodeID
	classes []int
	dests   []topology.NodeID
	used    map[dfr.Channel]bool
	class   int // current (highest) class
	dir     int // label direction of the current class run; 0 unknown
}

// extend appends a BFS leg to the worm, assigning per-hop classes. It
// returns false — leaving the builder untouched — when the leg would
// reuse a channel the worm already holds.
func (b *pathBuilder) extend(r *Router, leg []topology.NodeID) bool {
	cls := make([]int, 0, len(leg)-1)
	class, dir := b.class, b.dir
	for i := 1; i < len(leg); i++ {
		u, v := leg[i-1], leg[i]
		d := 1
		if r.healthy.Label(v) < r.healthy.Label(u) {
			d = -1
		}
		if dir != 0 && d != dir {
			class++ // direction reversal: escalate into a fresh class
		}
		dir = d
		for r.mask.VCDead(dfr.Channel{From: u, To: v, Class: class}) {
			class++ // dead virtual-channel copy: next copy up
		}
		if b.used[dfr.Channel{From: u, To: v, Class: class}] {
			return false
		}
		cls = append(cls, class)
	}
	for i, c := range cls {
		b.used[dfr.Channel{From: leg[i], To: leg[i+1], Class: c}] = true
		b.nodes = append(b.nodes, leg[i+1])
		b.classes = append(b.classes, c)
	}
	b.class, b.dir = class, dir
	return true
}

// repairPaths builds escape-segment repair paths for every destination
// of k (all assumed reachable over the masked graph), starting class
// assignment at base.
func (r *Router) repairPaths(k core.MulticastSet, base int) []dfr.PathRoute {
	dh, dl := dfr.HighLowPartition(r.healthy.Tables(), k)
	var out []dfr.PathRoute
	for _, group := range [2][]topology.NodeID{dh, dl} {
		if len(group) > 0 {
			out = append(out, r.repairGroup(k.Source, group, base)...)
		}
	}
	return out
}

// repairGroup chains BFS legs through one label-ordered destination
// group, starting a new worm from the source whenever a leg would make
// the current worm wait on itself.
func (r *Router) repairGroup(src topology.NodeID, dests []topology.NodeID, base int) []dfr.PathRoute {
	var out []dfr.PathRoute
	var b *pathBuilder
	reset := func() {
		b = &pathBuilder{
			nodes: []topology.NodeID{src},
			used:  make(map[dfr.Channel]bool),
			class: base,
		}
	}
	flush := func() {
		if len(b.dests) > 0 {
			out = append(out, dfr.PathRoute{
				Nodes: b.nodes, Class: base, Classes: b.classes, Dests: b.dests,
			})
		}
		reset()
	}
	reset()
	for _, d := range dests {
		cur := b.nodes[len(b.nodes)-1]
		if cur == d {
			b.dests = append(b.dests, d)
			continue
		}
		leg := r.bfsPath(cur, d)
		if leg == nil {
			continue // caller guarantees reachability; defensive
		}
		if !b.extend(r, leg) {
			flush()
			leg = r.bfsPath(src, d)
			if leg == nil || !b.extend(r, leg) {
				continue // a fresh builder over a simple path cannot collide
			}
		}
		b.dests = append(b.dests, d)
	}
	flush()
	return out
}

// bfsPath returns the deterministic shortest path from u to v over the
// masked graph — BFS visiting neighbors in the masked topology's
// precomputed order, parent-first — or nil when v is unreachable.
func (r *Router) bfsPath(u, v topology.NodeID) []topology.NodeID {
	n := r.masked.Nodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[u] = int32(u)
	queue := make([]topology.NodeID, 0, n)
	queue = append(queue, u)
	var buf []topology.NodeID
	for len(queue) > 0 && parent[v] < 0 {
		cur := queue[0]
		queue = queue[1:]
		buf = r.masked.Neighbors(cur, buf[:0])
		for _, w := range buf {
			if parent[w] < 0 {
				parent[w] = int32(cur)
				queue = append(queue, w)
			}
		}
	}
	if parent[v] < 0 {
		return nil
	}
	var rev []topology.NodeID
	for x := v; x != u; x = topology.NodeID(parent[x]) {
		rev = append(rev, x)
	}
	rev = append(rev, u)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
