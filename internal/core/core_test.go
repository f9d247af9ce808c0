package core

import (
	"testing"
	"testing/quick"

	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

func TestNewMulticastSetValidation(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	if _, err := NewMulticastSet(m, 0, []topology.NodeID{1, 2}); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	bad := []struct {
		src   topology.NodeID
		dests []topology.NodeID
	}{
		{99, []topology.NodeID{1}},
		{0, nil},
		{0, []topology.NodeID{0}},
		{0, []topology.NodeID{1, 1}},
		{0, []topology.NodeID{-1}},
	}
	for i, c := range bad {
		if _, err := NewMulticastSet(m, c.src, c.dests); err == nil {
			t.Errorf("case %d: invalid set accepted", i)
		}
	}
}

// TestRoutingFunctionShortestPathsMesh verifies Lemma 6.1: for every node
// pair of a 2D mesh, the path selected by R under the boustrophedon
// labeling is a shortest path, with strictly monotone labels.
func TestRoutingFunctionShortestPathsMesh(t *testing.T) {
	for _, dims := range [][2]int{{4, 3}, {6, 6}, {5, 4}, {1, 6}, {7, 1}} {
		m := topology.NewMesh2D(dims[0], dims[1])
		l := labeling.NewMeshBoustrophedon(m)
		checkRoutingShortest(t, m, l)
	}
}

// TestRoutingFunctionShortestPathsCube verifies Lemma 6.4 for hypercubes.
func TestRoutingFunctionShortestPathsCube(t *testing.T) {
	for n := 1; n <= 6; n++ {
		h := topology.NewHypercube(n)
		l := labeling.NewHypercubeGray(h)
		checkRoutingShortest(t, h, l)
	}
}

func checkRoutingShortest(t *testing.T, topo topology.Topology, l labeling.Labeling) {
	t.Helper()
	tb := NewTables(topo, l)
	for u := topology.NodeID(0); int(u) < topo.Nodes(); u++ {
		for v := topology.NodeID(0); int(v) < topo.Nodes(); v++ {
			if u == v {
				continue
			}
			path := tb.RoutePath(u, v)
			if len(path)-1 != topo.Distance(u, v) {
				t.Fatalf("%s: R path %d->%d has %d hops, distance %d",
					topo.Name(), u, v, len(path)-1, topo.Distance(u, v))
			}
			up := l.Label(u) < l.Label(v)
			for i := 1; i < len(path); i++ {
				if !topo.Adjacent(path[i-1], path[i]) {
					t.Fatalf("%s: R path uses non-edge", topo.Name())
				}
				a, b := l.Label(path[i-1]), l.Label(path[i])
				if up && a >= b || !up && a <= b {
					t.Fatalf("%s: R path %d->%d labels not monotone: %d then %d",
						topo.Name(), u, v, a, b)
				}
			}
		}
	}
}

// TestPoorHamiltonPathNotShortest pins the Fig. 6.10 observation: under a
// different (poor) Hamilton-path labeling the routing function R no
// longer always finds shortest paths. The comb-shaped Hamilton cycle of
// Table 5.1, used as a labeling of the 4x4 mesh, routes (0,3) to (0,0) in
// 5 hops where the distance is 3.
func TestPoorHamiltonPathNotShortest(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	c, err := labeling.MeshHamiltonCycle(m)
	if err != nil {
		t.Fatal(err)
	}
	l := labeling.PathLabeling{Cycle: c}
	if err := labeling.Verify(l, m); err != nil {
		t.Fatalf("comb labeling invalid: %v", err)
	}
	u, v := m.ID(0, 3), m.ID(0, 0)
	path := NewTables(m, l).RoutePath(u, v)
	if len(path)-1 != 5 {
		t.Errorf("comb-labeling path (0,3)->(0,0) has %d hops, want the 5-hop detour", len(path)-1)
	}
	if m.Distance(u, v) != 3 {
		t.Errorf("true distance should be 3")
	}
	// The detour still respects label monotonicity (deadlock freedom is
	// preserved even under a poor labeling).
	for i := 1; i < len(path); i++ {
		if l.Label(path[i]) >= l.Label(path[i-1]) {
			t.Fatalf("labels not decreasing along %v", path)
		}
	}
}

// TestColumnMajorLabelingShortest documents that the transposed
// (column-major) serpentine is as good as the paper's row-major one: R
// stays shortest.
func TestColumnMajorLabelingShortest(t *testing.T) {
	m := topology.NewMesh2D(4, 3)
	checkRoutingShortest(t, m, labeling.NewMeshColumnMajor(m))
}

func TestXYRouterShortest(t *testing.T) {
	m := topology.NewMesh2D(6, 5)
	r := XYRouter{Mesh: m}
	for u := topology.NodeID(0); int(u) < m.Nodes(); u++ {
		for v := topology.NodeID(0); int(v) < m.Nodes(); v++ {
			if u == v {
				continue
			}
			p := UnicastPath(r, u, v)
			if len(p)-1 != m.Distance(u, v) {
				t.Fatalf("XY path %d->%d has %d hops, want %d", u, v, len(p)-1, m.Distance(u, v))
			}
		}
	}
}

func TestECubeRouterShortest(t *testing.T) {
	h := topology.NewHypercube(5)
	r := ECubeRouter{Cube: h}
	f := func(a, b uint8) bool {
		u := topology.NodeID(a) % topology.NodeID(h.Nodes())
		v := topology.NodeID(b) % topology.NodeID(h.Nodes())
		if u == v {
			return true
		}
		p := UnicastPath(r, u, v)
		return len(p)-1 == h.Distance(u, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXYZRouterShortest(t *testing.T) {
	m := topology.NewMesh3D(3, 3, 3)
	r := XYZRouter{Mesh: m}
	for u := topology.NodeID(0); int(u) < m.Nodes(); u += 3 {
		for v := topology.NodeID(0); int(v) < m.Nodes(); v += 2 {
			if u == v {
				continue
			}
			p := UnicastPath(r, u, v)
			if len(p)-1 != m.Distance(u, v) {
				t.Fatalf("XYZ path %d->%d has %d hops, want %d", u, v, len(p)-1, m.Distance(u, v))
			}
		}
	}
}

func TestRouterForAndLabelingFor(t *testing.T) {
	if _, err := RouterFor(topology.NewMesh2D(3, 3)); err != nil {
		t.Error(err)
	}
	if _, err := RouterFor(topology.NewHypercube(3)); err != nil {
		t.Error(err)
	}
	if _, err := RouterFor(topology.NewMesh3D(2, 2, 2)); err != nil {
		t.Error(err)
	}
	if _, err := RouterFor(topology.Ring(5)); err == nil {
		t.Error("expected error for ring")
	}
	if _, err := LabelingFor(topology.NewMesh2D(3, 3)); err != nil {
		t.Error(err)
	}
	if _, err := LabelingFor(topology.NewHypercube(3)); err != nil {
		t.Error(err)
	}
	if _, err := LabelingFor(topology.NewMesh3D(2, 2, 2)); err != nil {
		t.Error(err)
	}
	if _, err := LabelingFor(topology.NewKAryNCube(4, 2)); err != nil {
		t.Error(err)
	}
}

func TestPathValidateAndMetrics(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	k := MustMulticastSet(m, 0, []topology.NodeID{2, 5})
	good := Path{Nodes: []topology.NodeID{0, 1, 2, 6, 5}}
	if err := good.Validate(m, k, true); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if good.Traffic() != 4 {
		t.Errorf("traffic %d, want 4", good.Traffic())
	}
	if good.DistanceTo(5) != 4 || good.DistanceTo(15) != -1 {
		t.Error("DistanceTo wrong")
	}
	cases := []Path{
		{Nodes: []topology.NodeID{1, 2}},             // wrong start
		{Nodes: []topology.NodeID{0, 2, 5}},          // non-edge
		{Nodes: []topology.NodeID{0, 1, 2}},          // misses dest 5
		{Nodes: []topology.NodeID{0, 1, 0, 1, 2, 5}}, // revisit + non-edge at end anyway
	}
	for i, p := range cases {
		if err := p.Validate(m, k, true); err == nil {
			t.Errorf("case %d: invalid path accepted", i)
		}
	}
	// Walks are allowed in non-strict mode.
	walk := Path{Nodes: []topology.NodeID{0, 1, 2, 1, 5}}
	if err := walk.Validate(m, k, true); err == nil {
		t.Error("strict mode should reject revisits")
	}
	if err := walk.Validate(m, k, false); err != nil {
		t.Errorf("non-strict mode should allow walk: %v", err)
	}
}

func TestCycleValidate(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	k := MustMulticastSet(m, 0, []topology.NodeID{5})
	good := Cycle{Nodes: []topology.NodeID{0, 1, 5, 4}}
	if err := good.Validate(m, k, true); err != nil {
		t.Errorf("valid cycle rejected: %v", err)
	}
	if good.Traffic() != 4 {
		t.Errorf("cycle traffic %d, want 4", good.Traffic())
	}
	open := Cycle{Nodes: []topology.NodeID{0, 1, 5}}
	if err := open.Validate(m, k, true); err == nil {
		t.Error("non-closing cycle accepted")
	}
}

func TestTreeOperations(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	tr := NewTree(5)
	tr.AddEdge(5, 6)
	tr.AddEdge(5, 1)
	tr.AddEdge(6, 10)
	tr.AddEdge(6, 7)
	if tr.Size() != 5 || tr.Traffic() != 4 {
		t.Errorf("size=%d traffic=%d", tr.Size(), tr.Traffic())
	}
	if tr.Depth(10) != 2 || tr.Depth(5) != 0 || tr.Depth(12) != -1 {
		t.Error("Depth wrong")
	}
	if tr.MaxDepth() != 2 {
		t.Errorf("MaxDepth=%d", tr.MaxDepth())
	}
	if p, ok := tr.Parent(10); !ok || p != 6 {
		t.Error("Parent wrong")
	}
	if _, ok := tr.Parent(5); ok {
		t.Error("root has no parent")
	}
	var visited []topology.NodeID
	tr.Walk(func(v topology.NodeID) { visited = append(visited, v) })
	if len(visited) != 5 || visited[0] != 5 {
		t.Errorf("walk order %v", visited)
	}
	k := MustMulticastSet(m, 5, []topology.NodeID{10, 1})
	if err := tr.Validate(m, k); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	if err := tr.ValidateMT(m, k); err != nil {
		t.Errorf("valid MT rejected: %v", err)
	}
}

func TestTreeMTDetectsDetour(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	tr := NewTree(0)
	tr.AddEdge(0, 1)
	tr.AddEdge(1, 5)
	tr.AddEdge(5, 4)
	k := MustMulticastSet(m, 0, []topology.NodeID{4})
	if err := tr.Validate(m, k); err != nil {
		t.Errorf("valid ST rejected: %v", err)
	}
	if err := tr.ValidateMT(m, k); err == nil {
		t.Error("MT validation should reject non-shortest delivery")
	}
}

func TestTreePanics(t *testing.T) {
	tr := NewTree(0)
	tr.AddEdge(0, 1)
	for i, fn := range []func(){
		func() { tr.AddEdge(5, 6) }, // absent parent
		func() { tr.AddEdge(0, 1) }, // child already present
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestStarValidateAndMetrics(t *testing.T) {
	m := topology.NewMesh2D(4, 4)
	k := MustMulticastSet(m, 5, []topology.NodeID{7, 13})
	s := Star{Paths: []Path{
		{Nodes: []topology.NodeID{5, 6, 7}},
		{Nodes: []topology.NodeID{5, 9, 13}},
	}}
	if err := s.Validate(m, k); err != nil {
		t.Errorf("valid star rejected: %v", err)
	}
	if s.Traffic() != 4 {
		t.Errorf("star traffic %d, want 4", s.Traffic())
	}
	if s.MaxDistance(k.Dests) != 2 {
		t.Errorf("max distance %d, want 2", s.MaxDistance(k.Dests))
	}
	bad := Star{Paths: []Path{{Nodes: []topology.NodeID{5, 6}}}}
	if err := bad.Validate(m, k); err == nil {
		t.Error("star missing destination accepted")
	}
}

func TestNextHopPanicsOnSelf(t *testing.T) {
	m := topology.NewMesh2D(3, 3)
	l := labeling.NewMeshBoustrophedon(m)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTables(m, l).NextHop(4, 4)
}
