package core

import (
	"fmt"

	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// Tables is the dense form the routing function R runs over: the
// Hamiltonian labeling as a label table and its inverse, plus one
// adjacency row per node. Every label-monotone path scheme plans over
// it, so a route walk reads labels and neighbors by index instead of
// through the Topology and Labeling interfaces. The topology is kept
// only for Distance, which still decides "distance-reducing".
//
// Tables implements labeling.Labeling. It is immutable once built,
// except for adjacency rows handed in through WithAdjacency, which
// their owner may patch between planning rounds.
type Tables struct {
	topo   topology.Topology
	labels []int32
	at     []topology.NodeID
	adj    [][]topology.NodeID
}

// NewTables flattens l over t: one pass of Label calls and one of
// Neighbors calls, with every adjacency row carved from one backing
// array.
func NewTables(t topology.Topology, l labeling.Labeling) *Tables {
	n := t.Nodes()
	tb := &Tables{
		topo:   t,
		labels: make([]int32, n),
		at:     make([]topology.NodeID, n),
		adj:    make([][]topology.NodeID, n),
	}
	for v := 0; v < n; v++ {
		lab := l.Label(topology.NodeID(v))
		tb.labels[v] = int32(lab)
		tb.at[lab] = topology.NodeID(v)
	}
	flat := make([]topology.NodeID, 0, n*t.MaxDegree())
	for v := 0; v < n; v++ {
		start := len(flat)
		flat = t.Neighbors(topology.NodeID(v), flat)
		tb.adj[v] = flat[start:len(flat):len(flat)]
	}
	return tb
}

// WithAdjacency returns tables that share tb's label tables but route
// over t with the given adjacency rows. The caller keeps adj and may
// replace its rows between planning rounds (a live fault view patching
// exactly the rows a delta changed); plans read the rows as they stand.
func (tb *Tables) WithAdjacency(t topology.Topology, adj [][]topology.NodeID) *Tables {
	return &Tables{topo: t, labels: tb.labels, at: tb.at, adj: adj}
}

// Topology returns the topology the tables route over.
func (tb *Tables) Topology() topology.Topology { return tb.topo }

// N implements labeling.Labeling.
func (tb *Tables) N() int { return len(tb.labels) }

// Label implements labeling.Labeling.
func (tb *Tables) Label(v topology.NodeID) int { return int(tb.labels[v]) }

// At implements labeling.Labeling.
func (tb *Tables) At(label int) topology.NodeID { return tb.at[label] }

// Neighbors returns the adjacency row of v. Callers must not modify it.
func (tb *Tables) Neighbors(v topology.NodeID) []topology.NodeID { return tb.adj[v] }

// NextHop is the partial-order-preserving routing function R of
// Sections 6.2.2 and 6.3. The dissertation states R as
//
//	R(u, v) = w, a neighbor of u, with
//	  l(w) = max{ l(p) : l(p) <= l(v), p neighbor of u }  if l(u) < l(v)
//	  l(w) = min{ l(p) : l(p) >= l(v), p neighbor of u }  if l(u) > l(v)
//
// and Lemmas 6.1/6.4 prove R selects shortest, label-monotone paths. The
// lemma proofs are constructive — each hop flips toward v while staying
// inside the label window — and that construction only holds when R is
// read as selecting among the neighbors that lie on a shortest path to v
// (taken literally over all neighbors, the rule is non-shortest on
// hypercubes: from 000 toward 101 in a 3-cube it detours through 010).
// NextHop therefore applies the max/min-label selection over the
// distance-reducing neighbors inside the window, which reproduces both
// lemmas exactly (verified exhaustively by the tests), and falls back to
// the literal rule when no such neighbor exists (possible only for
// labelings other than the paper's, e.g. the "poor" Hamilton path of
// Fig. 6.10). Either way the chosen label moves strictly toward l(v) —
// the Hamilton-path successor/predecessor of u is always in the window —
// so routes stay inside one acyclic channel subnetwork. Labels are
// distinct, so the choice never depends on neighbor order.
func (tb *Tables) NextHop(u, v topology.NodeID) topology.NodeID {
	if u == v {
		panic("core: NextHop with u == v")
	}
	w, _ := tb.hop(u, v, tb.topo.Distance(u, v))
	return w
}

// hop is R from u toward v given du = d(u, v). reduced reports that w is
// distance-reducing, so d(w, v) = du-1 without another Distance call.
func (tb *Tables) hop(u, v topology.NodeID, du int) (w topology.NodeID, reduced bool) {
	lu, lv := tb.labels[u], tb.labels[v]
	best, bestLabel := topology.NodeID(-1), int32(0)
	// Preferred: distance-reducing neighbors strictly inside the label
	// window (the Lemma 6.1/6.4 construction).
	if lu < lv {
		for _, p := range tb.adj[u] {
			if lp := tb.labels[p]; lp > lu && lp <= lv && (best < 0 || lp > bestLabel) &&
				tb.topo.Distance(p, v) == du-1 {
				best, bestLabel = p, lp
			}
		}
	} else {
		for _, p := range tb.adj[u] {
			if lp := tb.labels[p]; lp < lu && lp >= lv && (best < 0 || lp < bestLabel) &&
				tb.topo.Distance(p, v) == du-1 {
				best, bestLabel = p, lp
			}
		}
	}
	if best >= 0 {
		return best, true
	}
	return tb.nextHopLiteral(u, v), false
}

// nextHopLiteral is the routing function R exactly as the dissertation's
// text states it: the max-label neighbor not exceeding l(v) (when routing
// up), or the min-label neighbor not below l(v) (when routing down), over
// all neighbors of u. It is always label-monotone — the Hamilton-path
// successor/predecessor qualifies — but not always minimal.
func (tb *Tables) nextHopLiteral(u, v topology.NodeID) topology.NodeID {
	lu, lv := tb.labels[u], tb.labels[v]
	best, bestLabel := topology.NodeID(-1), int32(0)
	for _, p := range tb.adj[u] {
		lp := tb.labels[p]
		if lu < lv {
			if lp <= lv && (best < 0 || lp > bestLabel) {
				best, bestLabel = p, lp
			}
		} else if lp >= lv && (best < 0 || lp < bestLabel) {
			best, bestLabel = p, lp
		}
	}
	if best < 0 {
		// Cannot happen for a valid Hamiltonian labeling; fail loudly
		// instead of looping forever.
		panic(fmt.Sprintf("core: routing function R stuck at node %d toward %d", u, v))
	}
	return best
}

// RoutePath returns the node sequence (u, ..., v) selected by repeatedly
// applying the routing function R. By Lemmas 6.1 and 6.4 the labels along
// the sequence are strictly monotone, so the walk terminates.
func (tb *Tables) RoutePath(u, v topology.NodeID) []topology.NodeID {
	dst := make([]topology.NodeID, 1, tb.topo.Distance(u, v)+1)
	dst[0] = u
	return tb.AppendRoute(dst, u, v)
}

// AppendRoute appends the nodes strictly after u on the route from u to
// v selected by R, and returns the extended slice — the leg primitive the
// path schemes stitch multi-destination paths from, into one slice sized
// up front.
func (tb *Tables) AppendRoute(dst []topology.NodeID, u, v topology.NodeID) []topology.NodeID {
	du := tb.topo.Distance(u, v)
	guard := 0
	for u != v {
		w, reduced := tb.hop(u, v, du)
		if reduced {
			du--
		} else {
			du = tb.topo.Distance(w, v)
		}
		u = w
		dst = append(dst, u)
		if guard++; guard > len(tb.labels)+1 {
			panic("core: routing function R failed to converge")
		}
	}
	return dst
}

// UnicastRouter is a deterministic one-to-one routing function: it
// returns the next hop from u toward dest. The deterministic routers of
// Section 2.3.2 (XY routing for the mesh, E-cube for the hypercube)
// implement it; they are the substrate for the multi-unicast baseline and
// for bypass-node forwarding in the greedy ST algorithm.
type UnicastRouter interface {
	// NextHopUnicast returns the next node on the route from u to dest;
	// u != dest.
	NextHopUnicast(u, dest topology.NodeID) topology.NodeID
}

// XYRouter routes X-first then Y on a 2D mesh — the deterministic
// deadlock-free scheme of Section 2.3.2 used by many machines.
type XYRouter struct {
	Mesh *topology.Mesh2D
}

// NextHopUnicast implements UnicastRouter.
func (r XYRouter) NextHopUnicast(u, dest topology.NodeID) topology.NodeID {
	ux, uy := r.Mesh.XY(u)
	dx, dy := r.Mesh.XY(dest)
	switch {
	case ux < dx:
		return r.Mesh.ID(ux+1, uy)
	case ux > dx:
		return r.Mesh.ID(ux-1, uy)
	case uy < dy:
		return r.Mesh.ID(ux, uy+1)
	case uy > dy:
		return r.Mesh.ID(ux, uy-1)
	default:
		panic("core: XY routing with u == dest")
	}
}

// ECubeRouter resolves address bits from the lowest dimension upward —
// the E-cube deterministic deadlock-free hypercube routing of
// Section 2.3.2.
type ECubeRouter struct {
	Cube *topology.Hypercube
}

// NextHopUnicast implements UnicastRouter.
func (r ECubeRouter) NextHopUnicast(u, dest topology.NodeID) topology.NodeID {
	diff := u ^ dest
	if diff == 0 {
		panic("core: E-cube routing with u == dest")
	}
	bit := diff & -diff // lowest differing dimension
	return u ^ bit
}

// XYZRouter is dimension-ordered routing on a 3D mesh: X, then Y, then Z.
type XYZRouter struct {
	Mesh *topology.Mesh3D
}

// NextHopUnicast implements UnicastRouter.
func (r XYZRouter) NextHopUnicast(u, dest topology.NodeID) topology.NodeID {
	ux, uy, uz := r.Mesh.XYZ(u)
	dx, dy, dz := r.Mesh.XYZ(dest)
	switch {
	case ux < dx:
		return r.Mesh.ID(ux+1, uy, uz)
	case ux > dx:
		return r.Mesh.ID(ux-1, uy, uz)
	case uy < dy:
		return r.Mesh.ID(ux, uy+1, uz)
	case uy > dy:
		return r.Mesh.ID(ux, uy-1, uz)
	case uz < dz:
		return r.Mesh.ID(ux, uy, uz+1)
	case uz > dz:
		return r.Mesh.ID(ux, uy, uz-1)
	default:
		panic("core: XYZ routing with u == dest")
	}
}

// UnicastPath returns the node sequence from u to dest under the given
// deterministic router.
func UnicastPath(r UnicastRouter, u, dest topology.NodeID) []topology.NodeID {
	path := []topology.NodeID{u}
	for u != dest {
		u = r.NextHopUnicast(u, dest)
		path = append(path, u)
	}
	return path
}

// RouterFor returns the canonical deterministic unicast router for the
// supported topologies, or an error for unsupported ones.
func RouterFor(t topology.Topology) (UnicastRouter, error) {
	switch tt := t.(type) {
	case *topology.Mesh2D:
		return XYRouter{Mesh: tt}, nil
	case *topology.Hypercube:
		return ECubeRouter{Cube: tt}, nil
	case *topology.Mesh3D:
		return XYZRouter{Mesh: tt}, nil
	default:
		return nil, fmt.Errorf("core: no deterministic router for %s", t.Name())
	}
}

// LabelingFor returns the dissertation's Hamiltonian labeling for the
// supported topologies: boustrophedon for the 2D mesh (Section 6.2.2),
// Gray-code for the hypercube (Section 6.3), the plane-serpentine
// extension for the 3D mesh (Section 4.3), and the mixed-radix reflected
// serpentine for the general k-ary n-cube (Section 2.1.3).
func LabelingFor(t topology.Topology) (labeling.Labeling, error) {
	switch tt := t.(type) {
	case *topology.Mesh2D:
		return labeling.NewMeshBoustrophedon(tt), nil
	case *topology.Hypercube:
		return labeling.NewHypercubeGray(tt), nil
	case *topology.Mesh3D:
		return labeling.NewMesh3DBoustrophedon(tt), nil
	case *topology.KAryNCube:
		return labeling.NewKAryNCubeSerpentine(tt), nil
	default:
		return nil, fmt.Errorf("core: no Hamiltonian labeling for %s", t.Name())
	}
}
