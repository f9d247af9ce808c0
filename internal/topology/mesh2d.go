package topology

import (
	"fmt"
	"math"
	"math/bits"
)

// Mesh2D is the non-wraparound two-dimensional mesh of Definition 4.1: a
// rectangular grid of Width columns by Height rows. Node (x, y) has
// neighbors (x±1, y) and (x, y±1) when they exist. The node with
// coordinates (x, y) has NodeID y*Width + x, matching the integer
// addressing used throughout Chapter 5 (e.g. the 4x4 mesh of Fig. 5.7).
type Mesh2D struct {
	Width  int // number of columns (x ranges over 0..Width-1)
	Height int // number of rows (y ranges over 0..Height-1)

	// recip is ⌈2^64/Width⌉, set by NewMesh2D when Width > 1 and the mesh
	// has at most 2^32 nodes. Then v/Width is the high word of recip*v,
	// exactly, for every NodeID v < 2^32 (Lemire, Kaser and Kurz, "Faster
	// remainder by direct computation", 2019). XY divides when it is 0.
	recip uint64
}

// NewMesh2D returns a Width x Height mesh. It panics when either dimension
// is not positive.
func NewMesh2D(width, height int) *Mesh2D {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("topology: invalid mesh dimensions %dx%d", width, height))
	}
	m := &Mesh2D{Width: width, Height: height}
	if width > 1 && uint64(height) <= (1<<32)/uint64(width) {
		m.recip = math.MaxUint64/uint64(width) + 1
	}
	return m
}

// Name implements Topology.
func (m *Mesh2D) Name() string { return fmt.Sprintf("%dx%d mesh", m.Width, m.Height) }

// Nodes implements Topology.
func (m *Mesh2D) Nodes() int { return m.Width * m.Height }

// MaxDegree implements Topology.
func (m *Mesh2D) MaxDegree() int {
	d := 0
	if m.Width > 1 {
		d += 2
	}
	if m.Height > 1 {
		d += 2
	}
	if d == 0 {
		d = 1
	}
	return d
}

// ID converts (x, y) coordinates to a NodeID.
func (m *Mesh2D) ID(x, y int) NodeID {
	if x < 0 || x >= m.Width || y < 0 || y >= m.Height {
		panic(fmt.Sprintf("topology: coordinates (%d,%d) out of range for %s", x, y, m.Name()))
	}
	return NodeID(y*m.Width + x)
}

// XY converts a NodeID to (x, y) coordinates.
func (m *Mesh2D) XY(v NodeID) (x, y int) {
	checkNode(v, m.Nodes(), m)
	if m.recip == 0 {
		return int(v) % m.Width, int(v) / m.Width
	}
	q, _ := bits.Mul64(m.recip, uint64(v))
	return int(v) - int(q)*m.Width, int(q)
}

// Neighbors implements Topology.
func (m *Mesh2D) Neighbors(v NodeID, buf []NodeID) []NodeID {
	x, y := m.XY(v)
	if x > 0 {
		buf = append(buf, v-1)
	}
	if x < m.Width-1 {
		buf = append(buf, v+1)
	}
	if y > 0 {
		buf = append(buf, v-NodeID(m.Width))
	}
	if y < m.Height-1 {
		buf = append(buf, v+NodeID(m.Width))
	}
	return buf
}

// Adjacent implements Topology.
func (m *Mesh2D) Adjacent(u, v NodeID) bool {
	ux, uy := m.XY(u)
	vx, vy := m.XY(v)
	return abs(ux-vx)+abs(uy-vy) == 1
}

// Distance implements Topology: the Manhattan distance.
func (m *Mesh2D) Distance(u, v NodeID) int {
	ux, uy := m.XY(u)
	vx, vy := m.XY(v)
	return abs(ux-vx) + abs(uy-vy)
}

// Diameter implements Topology.
func (m *Mesh2D) Diameter() int { return m.Width - 1 + m.Height - 1 }

// NearestOnShortestPaths implements ShortestRegion by clamping u's
// coordinates into the rectangle spanned by s and t (the formula of
// Section 5.2).
func (m *Mesh2D) NearestOnShortestPaths(s, t, u NodeID) NodeID {
	sx, sy := m.XY(s)
	tx, ty := m.XY(t)
	ux, uy := m.XY(u)
	x1, x2 := min(sx, tx), max(sx, tx)
	y1, y2 := min(sy, ty), max(sy, ty)
	vx := clamp(ux, x1, x2)
	vy := clamp(uy, y1, y2)
	return m.ID(vx, vy)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
