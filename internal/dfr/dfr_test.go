package dfr

import (
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/labeling"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// fig613Set is the running example of Section 6.2: a 6x6 mesh with source
// (3,2) and nine destinations.
func fig613Set(m *topology.Mesh2D) core.MulticastSet {
	id := func(x, y int) topology.NodeID { return m.ID(x, y) }
	return core.MustMulticastSet(m, id(3, 2), []topology.NodeID{
		id(0, 0), id(0, 2), id(0, 5), id(1, 3), id(4, 5),
		id(5, 0), id(5, 1), id(5, 3), id(5, 4),
	})
}

// TestFig613DualPathExample reproduces Fig. 6.13: dual-path routing uses
// 33 channels (18 high, 15 low) with maximum source-destination distance
// 18 hops.
func TestFig613DualPathExample(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	l := labeling.NewMeshBoustrophedon(m)
	k := fig613Set(m)
	dh, dl := HighLowPartition(core.NewTables(m, l), k)
	id := func(x, y int) topology.NodeID { return m.ID(x, y) }
	wantH := []topology.NodeID{id(5, 3), id(1, 3), id(5, 4), id(4, 5), id(0, 5)}
	wantL := []topology.NodeID{id(0, 2), id(5, 1), id(5, 0), id(0, 0)}
	for i, v := range wantH {
		if dh[i] != v {
			t.Fatalf("D_H = %v, want %v", dh, wantH)
		}
	}
	for i, v := range wantL {
		if dl[i] != v {
			t.Fatalf("D_L = %v, want %v", dl, wantL)
		}
	}
	s := DualPath(m, l, k)
	if err := s.Validate(m, k); err != nil {
		t.Fatal(err)
	}
	if len(s.Paths) != 2 {
		t.Fatalf("dual-path produced %d paths", len(s.Paths))
	}
	if got := len(s.Paths[0].Nodes) - 1; got != 18 {
		t.Errorf("high path uses %d channels, want 18", got)
	}
	if got := len(s.Paths[1].Nodes) - 1; got != 15 {
		t.Errorf("low path uses %d channels, want 15", got)
	}
	if s.Traffic() != 33 {
		t.Errorf("total traffic %d, want 33", s.Traffic())
	}
	if s.MaxDistance() != 18 {
		t.Errorf("max distance %d, want 18", s.MaxDistance())
	}
}

// TestFig616MultiPathExample reproduces Fig. 6.16: multi-path routing
// splits the example into four paths (D_H1 = {(5,3),(5,4),(4,5)}, D_H2 =
// {(1,3),(0,5)}, D_L1 = {(5,1),(5,0)}, D_L2 = {(0,2),(0,0)}) with maximum
// distance 6. Every leg of every path is a shortest path, which sums to
// 21 channels; the text's stated total of 20 appears to be a one-unit
// slip (see EXPERIMENTS.md).
func TestFig616MultiPathExample(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	l := labeling.NewMeshBoustrophedon(m)
	k := fig613Set(m)
	s := MultiPathMesh(m, l, k)
	if err := s.Validate(m, k); err != nil {
		t.Fatal(err)
	}
	if len(s.Paths) != 4 {
		t.Fatalf("multi-path produced %d paths, want 4", len(s.Paths))
	}
	id := func(x, y int) topology.NodeID { return m.ID(x, y) }
	// Same four groups as the text (D_H1, D_H2, and the two low groups;
	// we emit the low group on the horizontal neighbor's side first).
	wantGroups := [][]topology.NodeID{
		{id(5, 3), id(5, 4), id(4, 5)},
		{id(1, 3), id(0, 5)},
		{id(0, 2), id(0, 0)},
		{id(5, 1), id(5, 0)},
	}
	for i, want := range wantGroups {
		got := s.Paths[i].Dests
		if len(got) != len(want) {
			t.Fatalf("path %d dests %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("path %d dests %v, want %v", i, got, want)
			}
		}
	}
	if s.Traffic() != 21 {
		t.Errorf("total traffic %d, want 21", s.Traffic())
	}
	if s.MaxDistance() != 6 {
		t.Errorf("max distance %d, want 6", s.MaxDistance())
	}
}

// TestFig617FixedPathExample reproduces Fig. 6.17: fixed-path routing
// uses 35 channels (20 high, 15 low) with maximum distance 20.
func TestFig617FixedPathExample(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	l := labeling.NewMeshBoustrophedon(m)
	k := fig613Set(m)
	s := FixedPath(m, l, k)
	if err := s.Validate(m, k); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Paths[0].Nodes) - 1; got != 20 {
		t.Errorf("high fixed path uses %d channels, want 20", got)
	}
	if got := len(s.Paths[1].Nodes) - 1; got != 15 {
		t.Errorf("low fixed path uses %d channels, want 15", got)
	}
	if s.Traffic() != 35 {
		t.Errorf("total traffic %d, want 35", s.Traffic())
	}
	if s.MaxDistance() != 20 {
		t.Errorf("max distance %d, want 20", s.MaxDistance())
	}
}

// TestFig619DualPathCube reproduces the 4-cube dual-path example of
// Fig. 6.19: source 1100, D_H = (1111, 1000), D_L = (0100, 0111, 0011),
// and the high path routed 1100 -> 1101 -> 1111 -> ... -> 1000.
func TestFig619DualPathCube(t *testing.T) {
	h := topology.NewHypercube(4)
	l := labeling.NewHypercubeGray(h)
	k := core.MustMulticastSet(h, 0b1100,
		[]topology.NodeID{0b0100, 0b0011, 0b0111, 0b1000, 0b1111})
	dh, dl := HighLowPartition(core.NewTables(h, l), k)
	wantH := []topology.NodeID{0b1111, 0b1000}
	wantL := []topology.NodeID{0b0100, 0b0111, 0b0011}
	for i, v := range wantH {
		if dh[i] != v {
			t.Fatalf("D_H = %v, want %v", dh, wantH)
		}
	}
	for i, v := range wantL {
		if dl[i] != v {
			t.Fatalf("D_L = %v, want %v", dl, wantL)
		}
	}
	s := DualPath(h, l, k)
	if err := s.Validate(h, k); err != nil {
		t.Fatal(err)
	}
	// High path: the text walks 1100 -> 1101 (selected by R) -> 1111.
	high := s.Paths[0].Nodes
	if high[1] != 0b1101 || high[2] != 0b1111 {
		t.Errorf("high path %v should start 1100,1101,1111", high)
	}
	if high[len(high)-1] != 0b1000 {
		t.Errorf("high path should end at 1000")
	}
}

// TestFig621MultiPathCube reproduces the 4-cube multi-path example of
// Fig. 6.21: three paths (1111 via 1101, 1000 directly, and the low path)
// totalling 7 channels.
func TestFig621MultiPathCube(t *testing.T) {
	h := topology.NewHypercube(4)
	l := labeling.NewHypercubeGray(h)
	k := core.MustMulticastSet(h, 0b1100,
		[]topology.NodeID{0b0100, 0b0011, 0b0111, 0b1000, 0b1111})
	s := MultiPathCube(h, l, k)
	if err := s.Validate(h, k); err != nil {
		t.Fatal(err)
	}
	if len(s.Paths) != 3 {
		t.Fatalf("multi-path produced %d paths, want 3", len(s.Paths))
	}
	if s.Traffic() != 7 {
		t.Errorf("total traffic %d, want 7", s.Traffic())
	}
	if s.MaxDistance() != 4 {
		t.Errorf("max distance %d, want 4", s.MaxDistance())
	}
}

// randomSet draws a uniform multicast set.
func randomSet(t topology.Topology, rng *stats.Rand, k int) core.MulticastSet {
	src := topology.NodeID(rng.Intn(t.Nodes()))
	raw := rng.Sample(t.Nodes(), k, int(src))
	dests := make([]topology.NodeID, k)
	for i, v := range raw {
		dests[i] = topology.NodeID(v)
	}
	return core.MustMulticastSet(t, src, dests)
}

// TestPathSchemesPropertyMesh checks on random mesh workloads: valid
// delivery, label monotonicity per path, and the traffic ordering
// multi <= dual <= fixed.
func TestPathSchemesPropertyMesh(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	l := labeling.NewMeshBoustrophedon(m)
	rng := stats.NewRand(97)
	var multiT, dualT, fixedT int
	for trial := 0; trial < 300; trial++ {
		k := randomSet(m, rng, 1+rng.Intn(15))
		for _, s := range []Star{DualPath(m, l, k), MultiPathMesh(m, l, k), FixedPath(m, l, k)} {
			if err := s.Validate(m, k); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for _, p := range s.Paths {
				up := l.Label(p.Nodes[len(p.Nodes)-1]) > l.Label(p.Nodes[0])
				for i := 1; i < len(p.Nodes); i++ {
					a, b := l.Label(p.Nodes[i-1]), l.Label(p.Nodes[i])
					if up && a >= b || !up && a <= b {
						t.Fatalf("trial %d: path labels not monotone: %v", trial, p.Nodes)
					}
				}
			}
		}
		multiT += MultiPathMesh(m, l, k).Traffic()
		dualT += DualPath(m, l, k).Traffic()
		fixedT += FixedPath(m, l, k).Traffic()
	}
	if !(multiT <= dualT && dualT <= fixedT) {
		t.Errorf("average traffic ordering violated: multi %d, dual %d, fixed %d", multiT, dualT, fixedT)
	}
}

// TestPathSchemesPropertyCube checks the same properties on a hypercube.
func TestPathSchemesPropertyCube(t *testing.T) {
	h := topology.NewHypercube(6)
	l := labeling.NewHypercubeGray(h)
	rng := stats.NewRand(101)
	var multiDist, dualDist, dualT, fixedT int
	for trial := 0; trial < 300; trial++ {
		k := randomSet(h, rng, 1+rng.Intn(15))
		for _, s := range []Star{DualPath(h, l, k), MultiPathCube(h, l, k), FixedPath(h, l, k)} {
			if err := s.Validate(h, k); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		// Splitting across more neighbors shortens the worst
		// source-to-destination path; on the hypercube the paper makes
		// no per-topology traffic claim for multi vs dual, so we check
		// the distance benefit and the dual <= fixed traffic ordering.
		multiDist += MultiPathCube(h, l, k).MaxDistance()
		dualDist += DualPath(h, l, k).MaxDistance()
		dualT += DualPath(h, l, k).Traffic()
		fixedT += FixedPath(h, l, k).Traffic()
	}
	if multiDist > dualDist {
		t.Errorf("multi-path average max distance %d exceeds dual-path %d", multiDist, dualDist)
	}
	if dualT > fixedT {
		t.Errorf("dual-path average traffic %d exceeds fixed-path %d", dualT, fixedT)
	}
}

// TestDoubleChannelXFirst checks the tree scheme: valid trees, X-first
// shortest delivery, and channel-disjoint subnetworks.
func TestDoubleChannelXFirst(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	k := fig613Set(m)
	trees := DoubleChannelXFirst(m, k)
	if len(trees) != 4 {
		t.Fatalf("expected 4 subnetwork trees, got %d", len(trees))
	}
	seen := make(map[Channel]bool)
	delivered := make(map[topology.NodeID]bool)
	for _, tr := range trees {
		if err := tr.Validate(m, k); err == nil {
			t.Fatal("per-subnetwork tree should not satisfy the full set validation (covers a subset)")
		}
		if tr.Root != k.Source {
			t.Error("tree not rooted at source")
		}
		depths := tr.Depths()
		for _, d := range tr.Dests {
			if depths[d] != m.Distance(k.Source, d) {
				t.Errorf("destination %d at depth %d, distance %d", d, depths[d], m.Distance(k.Source, d))
			}
			delivered[d] = true
		}
		for _, e := range tr.Edges {
			if seen[e] {
				t.Errorf("channel %v used by two subnetworks", e)
			}
			seen[e] = true
		}
	}
	for _, d := range k.Dests {
		if !delivered[d] {
			t.Errorf("destination %d not delivered", d)
		}
	}
}

// TestDoubleChannelXFirstProperty checks the tree scheme on random
// workloads: all destinations delivered at shortest distance, edges form
// valid trees.
func TestDoubleChannelXFirstProperty(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	rng := stats.NewRand(111)
	for trial := 0; trial < 300; trial++ {
		k := randomSet(m, rng, 1+rng.Intn(20))
		delivered := make(map[topology.NodeID]bool)
		for _, tr := range DoubleChannelXFirst(m, k) {
			inTree := map[topology.NodeID]bool{tr.Root: true}
			for _, e := range tr.Edges {
				if !inTree[e.From] || inTree[e.To] {
					t.Fatalf("trial %d: malformed tree", trial)
				}
				if !m.Adjacent(e.From, e.To) {
					t.Fatalf("trial %d: non-edge in tree", trial)
				}
				inTree[e.To] = true
			}
			depths := tr.Depths()
			for _, d := range tr.Dests {
				if depths[d] != m.Distance(k.Source, d) {
					t.Fatalf("trial %d: non-shortest delivery", trial)
				}
				delivered[d] = true
			}
		}
		if len(delivered) != k.K() {
			t.Fatalf("trial %d: delivered %d of %d", trial, len(delivered), k.K())
		}
	}
}

// TestUnicastCDGAcyclic verifies Assertions 2/3 and Corollaries 6.1/6.2
// at the unicast level: the complete channel dependency graph of the
// routing function R is acyclic for the paper's labelings.
func TestUnicastCDGAcyclic(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	if cyc := UnicastCDG(m, labeling.NewMeshBoustrophedon(m)).FindCycle(); cyc != nil {
		t.Errorf("mesh R CDG has cycle %v", cyc)
	}
	h := topology.NewHypercube(5)
	if cyc := UnicastCDG(h, labeling.NewHypercubeGray(h)).FindCycle(); cyc != nil {
		t.Errorf("cube R CDG has cycle %v", cyc)
	}
	// Even a poor Hamilton path stays deadlock-free.
	m2 := topology.NewMesh2D(4, 4)
	c, err := labeling.MeshHamiltonCycle(m2)
	if err != nil {
		t.Fatal(err)
	}
	if cyc := UnicastCDG(m2, labeling.PathLabeling{Cycle: c}).FindCycle(); cyc != nil {
		t.Errorf("comb-labeling CDG has cycle %v", cyc)
	}
}

// TestXYUnicastCDGAcyclic pins the Fig. 2.5 classical result.
func TestXYUnicastCDGAcyclic(t *testing.T) {
	m := topology.NewMesh2D(5, 5)
	if cyc := XYUnicastCDG(m).FindCycle(); cyc != nil {
		t.Errorf("XY routing CDG has cycle %v", cyc)
	}
}

// TestMulticastCDGAcyclic accumulates the dependencies of many concurrent
// multicasts under each deadlock-free scheme into one dependency graph
// and verifies it stays acyclic — the Assertion 1/2/3 statements.
func TestMulticastCDGAcyclic(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	l := labeling.NewMeshBoustrophedon(m)
	h := topology.NewHypercube(5)
	lh := labeling.NewHypercubeGray(h)
	rng := stats.NewRand(131)

	pathRec := NewDependencyRecorder()
	cubeRec := NewDependencyRecorder()
	treeRec := NewDependencyRecorder()
	for trial := 0; trial < 200; trial++ {
		km := randomSet(m, rng, 1+rng.Intn(12))
		pathRec.AddStar(DualPath(m, l, km))
		pathRec.AddStar(MultiPathMesh(m, l, km))
		pathRec.AddStar(FixedPath(m, l, km))
		kh := randomSet(h, rng, 1+rng.Intn(12))
		cubeRec.AddStar(DualPath(h, lh, kh))
		cubeRec.AddStar(MultiPathCube(h, lh, kh))
		for _, tr := range DoubleChannelXFirst(m, km) {
			treeRec.AddTree(tr)
		}
	}
	if cyc := pathRec.FindCycle(); cyc != nil {
		t.Errorf("mesh path-based CDG has cycle %v", cyc)
	}
	if cyc := cubeRec.FindCycle(); cyc != nil {
		t.Errorf("cube path-based CDG has cycle %v", cyc)
	}
	if cyc := treeRec.FindCycle(); cyc != nil {
		t.Errorf("double-channel tree CDG has cycle %v", cyc)
	}
}

// TestFig64NaiveTreeDeadlock reproduces the Fig. 6.4 deadlock: the two
// opposing X-first tree multicasts on a 3x4 mesh create a channel
// dependency cycle.
func TestFig64NaiveTreeDeadlock(t *testing.T) {
	m := topology.NewMesh2D(4, 3) // width 4, height 3 as in Fig. 6.4
	id := func(x, y int) topology.NodeID { return m.ID(x, y) }
	m0 := core.MustMulticastSet(m, id(1, 1), []topology.NodeID{id(0, 2), id(3, 1)})
	m1 := core.MustMulticastSet(m, id(2, 1), []topology.NodeID{id(0, 1), id(3, 0)})
	rec := NaiveTreeCDG(m, []core.MulticastSet{m0, m1})
	if cyc := rec.FindCycle(); cyc == nil {
		t.Error("expected a dependency cycle between the two multicasts (Fig. 6.4)")
	}
	// A single multicast alone is fine.
	solo := NaiveTreeCDG(m, []core.MulticastSet{m0})
	if cyc := solo.FindCycle(); cyc != nil {
		t.Errorf("single multicast should not self-deadlock, got %v", cyc)
	}
}

// TestFig61BroadcastDeadlock reproduces the Fig. 6.1 deadlock: the nCUBE-2
// style broadcast trees from nodes 000 and 001 of a 3-cube form a
// dependency cycle.
func TestFig61BroadcastDeadlock(t *testing.T) {
	h := topology.NewHypercube(3)
	rec := NewDependencyRecorder()
	rec.AddTree(ECubeBroadcastTree(h, 0b000))
	rec.AddTree(ECubeBroadcastTree(h, 0b001))
	if cyc := rec.FindCycle(); cyc == nil {
		t.Error("expected the Fig. 6.1 dependency cycle between the two broadcasts")
	}
	solo := NewDependencyRecorder()
	solo.AddTree(ECubeBroadcastTree(h, 0b000))
	if cyc := solo.FindCycle(); cyc != nil {
		t.Errorf("single broadcast should not self-deadlock, got %v", cyc)
	}
}

// TestBroadcastTreeCoversCube sanity-checks the binomial broadcast tree.
func TestBroadcastTreeCoversCube(t *testing.T) {
	h := topology.NewHypercube(4)
	tr := ECubeBroadcastTree(h, 5)
	if len(tr.Edges) != h.Nodes()-1 {
		t.Fatalf("broadcast tree has %d edges, want %d", len(tr.Edges), h.Nodes()-1)
	}
	if err := tr.Validate(h, core.MustMulticastSet(h, 5, tr.Dests)); err != nil {
		t.Fatal(err)
	}
	depths := tr.Depths()
	for v := topology.NodeID(0); int(v) < h.Nodes(); v++ {
		if depths[v] != h.Distance(5, v) {
			t.Errorf("node %d at depth %d, distance %d", v, depths[v], h.Distance(5, v))
		}
	}
}

// TestChannelIndexer checks the dense channel indexing.
func TestChannelIndexer(t *testing.T) {
	x := NewChannelIndexer()
	a := Channel{From: 1, To: 2}
	b := Channel{From: 1, To: 2, Class: 1}
	if x.ID(a) != 0 || x.ID(b) != 1 || x.ID(a) != 0 {
		t.Error("indexer ids unstable")
	}
	if x.Len() != 2 || x.Channel(1) != b {
		t.Error("indexer lookup broken")
	}
	if a.String() != "[1,2]" || b.String() != "[1,2]#1" {
		t.Errorf("channel strings %q %q", a.String(), b.String())
	}
}
