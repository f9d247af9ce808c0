package topology

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// allTopologies returns a representative set of small topologies for
// generic interface tests.
func allTopologies() []Topology {
	return []Topology{
		NewMesh2D(4, 4),
		NewMesh2D(6, 3),
		NewMesh2D(1, 5),
		NewMesh3D(3, 3, 3),
		NewMesh3D(2, 4, 3),
		NewHypercube(3),
		NewHypercube(5),
		NewKAryNCube(4, 2),
		NewKAryNCube(3, 3),
		Ring(7),
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	for _, topo := range allTopologies() {
		var buf []NodeID
		for v := NodeID(0); int(v) < topo.Nodes(); v++ {
			buf = topo.Neighbors(v, buf[:0])
			for _, w := range buf {
				if w == v {
					t.Errorf("%s: node %d is its own neighbor", topo.Name(), v)
				}
				if !topo.Adjacent(v, w) {
					t.Errorf("%s: Neighbors(%d) includes %d but Adjacent is false", topo.Name(), v, w)
				}
				back := topo.Neighbors(w, nil)
				found := false
				for _, u := range back {
					if u == v {
						found = true
					}
				}
				if !found {
					t.Errorf("%s: adjacency not symmetric between %d and %d", topo.Name(), v, w)
				}
			}
		}
	}
}

func TestNeighborsDistinct(t *testing.T) {
	for _, topo := range allTopologies() {
		for v := NodeID(0); int(v) < topo.Nodes(); v++ {
			ns := topo.Neighbors(v, nil)
			if len(ns) > topo.MaxDegree() {
				t.Errorf("%s: node %d has %d neighbors, max degree %d",
					topo.Name(), v, len(ns), topo.MaxDegree())
			}
			sorted := append([]NodeID(nil), ns...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for i := 1; i < len(sorted); i++ {
				if sorted[i] == sorted[i-1] {
					t.Errorf("%s: node %d has duplicate neighbor %d", topo.Name(), v, sorted[i])
				}
			}
		}
	}
}

// bfsDistance computes the true graph distance for validation.
func bfsDistance(topo Topology, src NodeID) []int {
	dist := make([]int, topo.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []NodeID{src}
	var buf []NodeID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		buf = topo.Neighbors(u, buf[:0])
		for _, v := range buf {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func TestDistanceMatchesBFS(t *testing.T) {
	for _, topo := range allTopologies() {
		for src := NodeID(0); int(src) < topo.Nodes(); src += NodeID(topo.Nodes()/7 + 1) {
			dist := bfsDistance(topo, src)
			for v := NodeID(0); int(v) < topo.Nodes(); v++ {
				if got := topo.Distance(src, v); got != dist[v] {
					t.Fatalf("%s: Distance(%d,%d)=%d, BFS says %d", topo.Name(), src, v, got, dist[v])
				}
			}
		}
	}
}

func TestDiameter(t *testing.T) {
	for _, topo := range allTopologies() {
		want := 0
		for src := NodeID(0); int(src) < topo.Nodes(); src++ {
			for _, d := range bfsDistance(topo, src) {
				if d > want {
					want = d
				}
			}
		}
		if got := topo.Diameter(); got != want {
			t.Errorf("%s: Diameter()=%d, exhaustive says %d", topo.Name(), got, want)
		}
	}
}

func TestMesh2DCoordinates(t *testing.T) {
	m := NewMesh2D(5, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 5; x++ {
			id := m.ID(x, y)
			gx, gy := m.XY(id)
			if gx != x || gy != y {
				t.Fatalf("roundtrip (%d,%d) -> %d -> (%d,%d)", x, y, id, gx, gy)
			}
		}
	}
	if m.ID(4, 2) != NodeID(14) {
		t.Errorf("ID(4,2)=%d, want 14", m.ID(4, 2))
	}
}

// TestMesh2DXYMatchesDivision checks XY's reciprocal multiply against
// / and % for every node of every mesh from 1x1 to 64x64, and for
// sampled nodes of meshes near and beyond the 2^32-node limit of the
// reciprocal (beyond it XY divides).
func TestMesh2DXYMatchesDivision(t *testing.T) {
	check := func(m *Mesh2D, v NodeID) {
		x, y := m.XY(v)
		if x != int(v)%m.Width || y != int(v)/m.Width {
			t.Fatalf("%s: XY(%d) = (%d,%d), want (%d,%d)", m.Name(), v, x, y, int(v)%m.Width, int(v)/m.Width)
		}
	}
	for w := 1; w <= 64; w++ {
		for h := 1; h <= 64; h++ {
			m := NewMesh2D(w, h)
			for v := 0; v < m.Nodes(); v++ {
				check(m, NodeID(v))
			}
		}
	}
	for _, dims := range [][2]int64{
		{2, 1 << 31}, {3, 1431655765}, {65535, 65537}, {65536, 65536}, {1 << 32, 1},
		{7, 1 << 30}, {65537, 65536}, {1 << 20, 1 << 20},
	} {
		if dims[0]*dims[1] > math.MaxInt { // 32-bit int
			continue
		}
		m := NewMesh2D(int(dims[0]), int(dims[1]))
		n := m.Nodes()
		for _, v := range []int{0, 1, m.Width - 1, m.Width, n / 3, n/2 + 1, n - m.Width, n - 2, n - 1} {
			if v < n {
				check(m, NodeID(v))
			}
		}
		for v := n - 1; v > n-1000; v-- {
			check(m, NodeID(v))
		}
	}
}

func TestMesh3DCoordinates(t *testing.T) {
	m := NewMesh3D(3, 4, 2)
	for z := 0; z < 2; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 3; x++ {
				id := m.ID(x, y, z)
				gx, gy, gz := m.XYZ(id)
				if gx != x || gy != y || gz != z {
					t.Fatalf("roundtrip (%d,%d,%d) -> %d -> (%d,%d,%d)", x, y, z, id, gx, gy, gz)
				}
			}
		}
	}
}

func TestHypercubeDistanceIsHamming(t *testing.T) {
	h := NewHypercube(4)
	if d := h.Distance(0b0011, 0b1100); d != 4 {
		t.Errorf("Distance(0011,1100)=%d, want 4", d)
	}
	if d := h.Distance(0b1010, 0b1000); d != 1 {
		t.Errorf("Distance(1010,1000)=%d, want 1", d)
	}
}

func TestKAryNCubeDigits(t *testing.T) {
	c := NewKAryNCube(4, 3)
	for v := NodeID(0); int(v) < c.Nodes(); v++ {
		d := c.Digits(v)
		if got := c.FromDigits(d); got != v {
			t.Fatalf("digit roundtrip %d -> %v -> %d", v, d, got)
		}
	}
}

func TestKAryNCubeIsHypercubeWhenK2(t *testing.T) {
	c := NewKAryNCube(2, 4)
	h := NewHypercube(4)
	if c.Nodes() != h.Nodes() {
		t.Fatalf("node counts differ")
	}
	for u := NodeID(0); int(u) < c.Nodes(); u++ {
		for v := NodeID(0); int(v) < c.Nodes(); v++ {
			if c.Distance(u, v) != h.Distance(u, v) {
				t.Fatalf("distance mismatch at (%d,%d)", u, v)
			}
		}
	}
}

// nearestRegionBrute exhaustively finds the node on a shortest s-t path
// nearest to u.
func nearestRegionBrute(topo Topology, s, t, u NodeID) int {
	dS := bfsDistance(topo, s)
	dT := bfsDistance(topo, t)
	dU := bfsDistance(topo, u)
	best := -1
	for v := 0; v < topo.Nodes(); v++ {
		if dS[v]+dT[v] == dS[t] {
			if best < 0 || dU[v] < best {
				best = dU[v]
			}
		}
	}
	return best
}

func TestNearestOnShortestPaths(t *testing.T) {
	cases := []Topology{NewMesh2D(5, 4), NewHypercube(4), NewMesh3D(3, 3, 2)}
	for _, topo := range cases {
		region := topo.(ShortestRegion)
		n := topo.Nodes()
		step := n/11 + 1
		for s := NodeID(0); int(s) < n; s += NodeID(step) {
			for d := NodeID(0); int(d) < n; d += NodeID(step + 1) {
				for u := NodeID(0); int(u) < n; u += NodeID(step + 2) {
					v := region.NearestOnShortestPaths(s, d, u)
					// v must lie on a shortest s-d path.
					if topo.Distance(s, v)+topo.Distance(v, d) != topo.Distance(s, d) {
						t.Fatalf("%s: NearestOnShortestPaths(%d,%d,%d)=%d not on a shortest path",
							topo.Name(), s, d, u, v)
					}
					// and be the closest such node to u.
					want := nearestRegionBrute(topo, s, d, u)
					if got := topo.Distance(u, v); got != want {
						t.Fatalf("%s: NearestOnShortestPaths(%d,%d,%d) at distance %d, optimum %d",
							topo.Name(), s, d, u, got, want)
					}
				}
			}
		}
	}
}

func TestHypercubeRegionProperty(t *testing.T) {
	h := NewHypercube(6)
	f := func(s, d, u uint8) bool {
		sn := NodeID(s) % NodeID(h.Nodes())
		dn := NodeID(d) % NodeID(h.Nodes())
		un := NodeID(u) % NodeID(h.Nodes())
		v := h.NearestOnShortestPaths(sn, dn, un)
		return h.Distance(sn, v)+h.Distance(v, dn) == h.Distance(sn, dn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvalidConstructorsPanic(t *testing.T) {
	cases := []func(){
		func() { NewMesh2D(0, 3) },
		func() { NewMesh3D(2, 0, 2) },
		func() { NewHypercube(0) },
		func() { NewKAryNCube(1, 3) },
		func() { NewMesh2D(3, 3).ID(3, 0) },
		func() { NewMesh2D(3, 3).XY(9) },
	}
	for i, fn := range cases {
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

func TestRingWraparound(t *testing.T) {
	r := Ring(5)
	if !r.Adjacent(0, 4) {
		t.Error("ring ends should be adjacent")
	}
	if d := r.Distance(0, 3); d != 2 {
		t.Errorf("ring distance 0-3 = %d, want 2 (wraparound)", d)
	}
	if got := len(r.Neighbors(0, nil)); got != 2 {
		t.Errorf("ring node has %d neighbors, want 2", got)
	}
}

func TestKAryNCubeK2NoDuplicateNeighbors(t *testing.T) {
	// With k=2, +1 and -1 coincide; Neighbors must not list them twice.
	c := NewKAryNCube(2, 3)
	for v := NodeID(0); int(v) < c.Nodes(); v++ {
		if got := len(c.Neighbors(v, nil)); got != 3 {
			t.Fatalf("node %d has %d neighbors, want 3", v, got)
		}
	}
}
