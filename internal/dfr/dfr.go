// Package dfr implements the deadlock-free multicast wormhole routing
// schemes of Chapter 6: the tree-like double-channel X-first algorithm
// (Section 6.2.1) and the path-like dual-path, multi-path, and fixed-path
// algorithms (Sections 6.2.2 and 6.3), for both 2D mesh and hypercube
// topologies, together with channel dependency graph construction for
// verifying deadlock freedom (Section 2.3.4).
package dfr

import (
	"fmt"
	"slices"

	"multicastnet/internal/core"
	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// Channel identifies a unidirectional physical channel. Class
// distinguishes the replicated copies of a physical link in
// double-channel networks (Section 6.2.1); single-channel schemes use
// class 0.
type Channel struct {
	From, To topology.NodeID
	Class    int
}

// String implements fmt.Stringer.
func (c Channel) String() string {
	if c.Class == 0 {
		return fmt.Sprintf("[%d,%d]", c.From, c.To)
	}
	return fmt.Sprintf("[%d,%d]#%d", c.From, c.To, c.Class)
}

// PathRoute is one wormhole multicast path: the node visiting sequence, a
// channel class, and the set of destinations consumed along it. It is the
// unit of the multicast star model under wormhole switching: the message
// is never replicated once in the network.
type PathRoute struct {
	Nodes []topology.NodeID
	Class int
	Dests []topology.NodeID
	// Classes, when non-nil, assigns a channel class per hop
	// (len(Nodes)-1 entries) and overrides Class. Degraded-mode repair
	// paths use it to escalate the class at each direction reversal so a
	// single worm can cross subnetwork boundaries without creating
	// channel-dependency cycles (see internal/fault).
	Classes []int
}

// HopClass returns the channel class of hop i (the channel from Nodes[i]
// to Nodes[i+1]).
func (p PathRoute) HopClass(i int) int {
	if p.Classes != nil {
		return p.Classes[i]
	}
	return p.Class
}

// Channels returns the channel sequence of the path.
func (p PathRoute) Channels() []Channel {
	out := make([]Channel, 0, len(p.Nodes)-1)
	for i := 1; i < len(p.Nodes); i++ {
		out = append(out, Channel{From: p.Nodes[i-1], To: p.Nodes[i], Class: p.HopClass(i - 1)})
	}
	return out
}

// Star is a complete path-based multicast route: one PathRoute per
// submulticast.
type Star struct {
	Source topology.NodeID
	Paths  []PathRoute
}

// Traffic returns the total number of channels used.
func (s Star) Traffic() int {
	total := 0
	for _, p := range s.Paths {
		total += len(p.Nodes) - 1
	}
	return total
}

// MaxDistance returns the largest hop count from the source to any
// destination.
func (s Star) MaxDistance() int {
	maxd := 0
	for _, p := range s.Paths {
		pos := make(map[topology.NodeID]int, len(p.Nodes))
		for i, n := range p.Nodes {
			if _, ok := pos[n]; !ok {
				pos[n] = i
			}
		}
		for _, d := range p.Dests {
			if h, ok := pos[d]; ok && h > maxd {
				maxd = h
			}
		}
	}
	return maxd
}

// CoreStar converts to the core model representation for validation.
func (s Star) CoreStar() core.Star {
	out := core.Star{}
	for _, p := range s.Paths {
		out.Paths = append(out.Paths, core.Path{Nodes: p.Nodes})
	}
	return out
}

// Validate checks that the star delivers every destination exactly once
// over host-graph channels, each path starting at the source.
func (s Star) Validate(t topology.Topology, k core.MulticastSet) error {
	delivered := make(map[topology.NodeID]int)
	for i, p := range s.Paths {
		if len(p.Nodes) == 0 || p.Nodes[0] != s.Source {
			return fmt.Errorf("dfr: path %d does not start at source", i)
		}
		for j := 1; j < len(p.Nodes); j++ {
			if !t.Adjacent(p.Nodes[j-1], p.Nodes[j]) {
				return fmt.Errorf("dfr: path %d uses non-edge (%d,%d)", i, p.Nodes[j-1], p.Nodes[j])
			}
		}
		onPath := make(map[topology.NodeID]bool, len(p.Nodes))
		for _, n := range p.Nodes {
			onPath[n] = true
		}
		for _, d := range p.Dests {
			if !onPath[d] {
				return fmt.Errorf("dfr: path %d does not visit its destination %d", i, d)
			}
			delivered[d]++
		}
	}
	for _, d := range k.Dests {
		if delivered[d] != 1 {
			return fmt.Errorf("dfr: destination %d delivered %d times", d, delivered[d])
		}
	}
	return nil
}

// HighLowPartition is the message preparation of the dual-path algorithm
// (Fig. 6.11): split the destinations into D_H (labels above the source,
// ascending) and D_L (labels below, descending). Both halves are carved
// from one allocation; an empty half is nil.
func HighLowPartition(tb *core.Tables, k core.MulticastSet) (dh, dl []topology.NodeID) {
	buf := make([]topology.NodeID, len(k.Dests))
	l0 := tb.Label(k.Source)
	hi, lo := 0, len(buf)
	for _, d := range k.Dests {
		if tb.Label(d) > l0 {
			buf[hi] = d
			hi++
		} else {
			lo--
			buf[lo] = d
		}
	}
	if hi > 0 {
		dh = buf[:hi:hi]
		slices.SortFunc(dh, func(a, b topology.NodeID) int { return tb.Label(a) - tb.Label(b) })
	}
	if hi < len(buf) {
		dl = buf[hi:]
		slices.SortFunc(dl, func(a, b topology.NodeID) int { return tb.Label(b) - tb.Label(a) })
	}
	return dh, dl
}

// pathSpec is one label-monotone path of a scheme, before routing: the
// node it reaches first (the source itself, or the source neighbor a
// multi-path split assigned), the destinations it visits in order, and
// its channel class.
type pathSpec struct {
	via   topology.NodeID
	dests []topology.NodeID
	class int
}

// pathLen is the node-count hint of a spec's path from src: one plus the
// sum of its leg distances, clipped to the label span, which bounds any
// label-monotone path. It is exact whenever every leg is shortest (the
// canonical labelings on healthy graphs).
func pathLen(tb *core.Tables, src topology.NodeID, sp pathSpec) int {
	t := tb.Topology()
	n, cur := 1, src
	if sp.via != src {
		n, cur = 2, sp.via
	}
	for _, d := range sp.dests {
		n += t.Distance(cur, d)
		cur = d
	}
	span := tb.Label(cur) - tb.Label(src)
	if span < 0 {
		span = -span
	}
	return min(n, span+1)
}

// routePaths routes every spec from src as one path and returns them in
// spec order. All node slices are carved from one allocation sized by
// pathLen; a walk that outgrows its hint (a non-shortest leg) reallocates
// only its own slice. A nil oracle walks with the routing function R, a
// non-nil one with AdaptiveNextHop.
func routePaths(tb *core.Tables, src topology.NodeID, specs []pathSpec, oracle ChannelOracle) []PathRoute {
	if len(specs) == 0 {
		return nil
	}
	var lensBuf [16]int
	lens := lensBuf[:0]
	total := 0
	for _, sp := range specs {
		n := pathLen(tb, src, sp)
		lens = append(lens, n)
		total += n
	}
	nodes := make([]topology.NodeID, total)
	out := make([]PathRoute, len(specs))
	off := 0
	for i, sp := range specs {
		path := append(nodes[off:off:off+lens[i]], src)
		cur := src
		if sp.via != src {
			path = append(path, sp.via)
			cur = sp.via
		}
		for _, d := range sp.dests {
			if cur == d {
				continue
			}
			if oracle == nil {
				path = tb.AppendRoute(path, cur, d)
			} else {
				path = appendAdaptive(tb, path, cur, d, sp.class, oracle)
			}
			cur = d
		}
		out[i] = PathRoute{Nodes: path, Class: sp.class, Dests: sp.dests}
		off += lens[i]
	}
	return out
}

// DualPathOn runs the dual-path multicast routing algorithm (Figs. 6.11
// and 6.12) over routing tables: at most two label-monotone paths, one
// through the high-channel network and one through the low-channel
// network. Each subnetwork is acyclic, so the scheme is deadlock-free
// (Assertion 2, Corollary 6.1).
func DualPathOn(tb *core.Tables, k core.MulticastSet) Star { return dualPath(tb, k, nil) }

// dualPath routes D_H and D_L as one path each, walking R (nil oracle)
// or AdaptiveNextHop.
func dualPath(tb *core.Tables, k core.MulticastSet, oracle ChannelOracle) Star {
	dh, dl := HighLowPartition(tb, k)
	var specs [2]pathSpec
	n := 0
	for _, g := range [2][]topology.NodeID{dh, dl} {
		if len(g) > 0 {
			specs[n] = pathSpec{via: k.Source, dests: g}
			n++
		}
	}
	return Star{Source: k.Source, Paths: routePaths(tb, k.Source, specs[:n], oracle)}
}

// DualPath is DualPathOn over tables built from (t, l) for this one
// multicast.
func DualPath(t topology.Topology, l labeling.Labeling, k core.MulticastSet) Star {
	return DualPathOn(core.NewTables(t, l), k)
}

// FixedPathOn runs the fixed-path routing of Section 6.2.2 [49]: the
// upper path follows the Hamiltonian path node by node up to the
// highest-labeled destination; the lower path walks down to the
// lowest-labeled one. Trivial to implement in hardware, at the cost of
// visiting every intermediate label.
func FixedPathOn(tb *core.Tables, k core.MulticastSet) Star {
	dh, dl := HighLowPartition(tb, k)
	l0 := tb.Label(k.Source)
	up, down := 0, 0
	if len(dh) > 0 {
		up = tb.Label(dh[len(dh)-1]) - l0 + 1
	}
	if len(dl) > 0 {
		down = l0 - tb.Label(dl[len(dl)-1]) + 1
	}
	nodes := make([]topology.NodeID, up+down)
	paths := make([]PathRoute, 0, 2)
	if up > 0 {
		path := nodes[:up:up]
		for i := range path {
			path[i] = tb.At(l0 + i)
		}
		paths = append(paths, PathRoute{Nodes: path, Dests: dh})
	}
	if down > 0 {
		path := nodes[up:]
		for i := range path {
			path[i] = tb.At(l0 - i)
		}
		paths = append(paths, PathRoute{Nodes: path, Dests: dl})
	}
	return Star{Source: k.Source, Paths: paths}
}

// FixedPath is FixedPathOn over tables built from (t, l) for this one
// multicast.
func FixedPath(t topology.Topology, l labeling.Labeling, k core.MulticastSet) Star {
	return FixedPathOn(core.NewTables(t, l), k)
}

// MultiPathMeshOn runs the multi-path routing algorithm for the 2D mesh
// (Fig. 6.14): D_H is further split between the (up to) two
// higher-labeled neighbors of the source by x-coordinate — the neighbor
// in the source's row serves the destinations on its side of the source
// column, the neighbor in the next row serves the rest — and D_L
// symmetrically, giving up to four label-monotone paths. The tables
// supply adjacency and distances (they may route over a masked view of
// m, so degraded-mode routing can run the split over a faulty mesh); m
// supplies the (x, y) geometry of the split rule.
func MultiPathMeshOn(tb *core.Tables, m *topology.Mesh2D, k core.MulticastSet) Star {
	dh, dl := HighLowPartition(tb, k)
	// The split regroups each half stably, side then rest, into one
	// second buffer.
	split := make([]topology.NodeID, 0, len(k.Dests))
	var specs [4]pathSpec
	n := 0
	for i, g := range [2][]topology.NodeID{dh, dl} {
		if len(g) == 0 {
			continue
		}
		side, rest := meshSplit(tb, m, k.Source, g, i == 0, &split)
		for _, part := range [2][]topology.NodeID{side, rest} {
			if len(part) > 0 {
				specs[n] = pathSpec{via: k.Source, dests: part}
				n++
			}
		}
	}
	return Star{Source: k.Source, Paths: routePaths(tb, k.Source, specs[:n], nil)}
}

// meshSplit divides one label-ordered group between the source's
// horizontal neighbor on the group's side of the labeling (side: the
// destinations at or beyond that neighbor's column) and the neighbor in
// the next row (rest), keeping label order within each. Both parts are
// appended to *buf. Without such a horizontal neighbor the whole group
// is one part.
func meshSplit(tb *core.Tables, m *topology.Mesh2D, src topology.NodeID, group []topology.NodeID,
	higher bool, buf *[]topology.NodeID) (side, rest []topology.NodeID) {
	x0, y0 := m.XY(src)
	l0 := tb.Label(src)
	var horiz topology.NodeID
	hasHoriz := false
	for _, p := range tb.Neighbors(src) {
		if _, py := m.XY(p); py == y0 && higher == (tb.Label(p) > l0) {
			horiz, hasHoriz = p, true
		}
	}
	if !hasHoriz {
		return group, nil
	}
	hx, _ := m.XY(horiz)
	onSide := func(d topology.NodeID) bool {
		dx, _ := m.XY(d)
		return (hx > x0 && dx >= hx) || (hx < x0 && dx <= hx)
	}
	start := len(*buf)
	for _, d := range group {
		if onSide(d) {
			*buf = append(*buf, d)
		}
	}
	mid := len(*buf)
	for _, d := range group {
		if !onSide(d) {
			*buf = append(*buf, d)
		}
	}
	b := *buf
	return b[start:mid:mid], b[mid:len(b):len(b)]
}

// MultiPathMesh is MultiPathMeshOn over tables built from (m, l) for
// this one multicast.
func MultiPathMesh(m *topology.Mesh2D, l labeling.Labeling, k core.MulticastSet) Star {
	return MultiPathMeshOn(core.NewTables(m, l), m, k)
}

// MultiPathCubeOn runs the multi-path routing algorithm for the
// hypercube (Fig. 6.20): the high destinations are split among the
// source's d higher-labeled neighbors v_1 < ... < v_d by label interval
// D_Hi = {w : l(v_i) <= l(w) < l(v_{i+1})}, each submulticast taking its
// first hop to v_i; D_L symmetrically among the lower-labeled neighbors.
// The tables may route over a masked view of the cube for degraded-mode
// routing.
func MultiPathCubeOn(tb *core.Tables, k core.MulticastSet) Star {
	dh, dl := HighLowPartition(tb, k)
	l0 := tb.Label(k.Source)
	var hiBuf, loBuf [32]topology.NodeID
	hi, lo := hiBuf[:0], loBuf[:0]
	for _, p := range tb.Neighbors(k.Source) {
		if tb.Label(p) > l0 {
			hi = append(hi, p)
		} else {
			lo = append(lo, p)
		}
	}
	slices.SortFunc(hi, func(a, b topology.NodeID) int { return tb.Label(a) - tb.Label(b) })
	slices.SortFunc(lo, func(a, b topology.NodeID) int { return tb.Label(b) - tb.Label(a) })
	var specBuf [32]pathSpec
	specs := cubeSplit(tb, specBuf[:0], k.Source, dh, hi, true)
	specs = cubeSplit(tb, specs, k.Source, dl, lo, false)
	return Star{Source: k.Source, Paths: routePaths(tb, k.Source, specs, nil)}
}

// cubeSplit appends the specs of one label-ordered group split among the
// source neighbors vs (label-ordered the same way): each destination
// goes to the last v whose label does not pass its own, defaulting to
// vs[0]. The assigned index never decreases along the group, so every
// submulticast is a contiguous run of it, emitted in vs order. With
// every neighbor on the group's side masked out, a single direct path is
// the best this scheme can offer (the degraded router validates or
// repairs it).
func cubeSplit(tb *core.Tables, specs []pathSpec, src topology.NodeID, group, vs []topology.NodeID,
	higher bool) []pathSpec {
	if len(group) == 0 {
		return specs
	}
	if len(vs) == 0 {
		return append(specs, pathSpec{via: src, dests: group})
	}
	reaches := func(v topology.NodeID, ld int) bool {
		if higher {
			return tb.Label(v) <= ld
		}
		return tb.Label(v) >= ld
	}
	i, start := 0, 0
	for j, d := range group {
		ld := tb.Label(d)
		next := i
		for next+1 < len(vs) && reaches(vs[next+1], ld) {
			next++
		}
		if next != i {
			if j > start {
				specs = append(specs, pathSpec{via: vs[i], dests: group[start:j:j]})
			}
			i, start = next, j
		}
	}
	return append(specs, pathSpec{via: vs[i], dests: group[start:]})
}

// MultiPathCube is MultiPathCubeOn over tables built from (h, l) for
// this one multicast.
func MultiPathCube(h *topology.Hypercube, l labeling.Labeling, k core.MulticastSet) Star {
	return MultiPathCubeOn(core.NewTables(h, l), k)
}
