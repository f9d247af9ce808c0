package topology

import (
	"fmt"
	"math/bits"
)

// Hypercube is the n-dimensional binary cube of Definition 4.2: 2^n nodes,
// each with a unique n-bit address; two nodes are adjacent exactly when
// their addresses differ in one bit. The NodeID of a node is its binary
// address interpreted as an integer.
type Hypercube struct {
	Dim int // n, the number of dimensions
}

// NewHypercube returns an n-cube. Dimensions up to 62 are accepted so
// that the Theorem 4.5 reductions (which need a 4k-cube for a k-vertex
// grid) can be materialized; Nodes() stays within int range.
func NewHypercube(n int) *Hypercube {
	if n < 1 || n > 62 {
		panic(fmt.Sprintf("topology: invalid hypercube dimension %d", n))
	}
	return &Hypercube{Dim: n}
}

// Name implements Topology.
func (h *Hypercube) Name() string { return fmt.Sprintf("%d-cube", h.Dim) }

// Nodes implements Topology.
func (h *Hypercube) Nodes() int { return 1 << h.Dim }

// MaxDegree implements Topology.
func (h *Hypercube) MaxDegree() int { return h.Dim }

// Neighbors implements Topology. Neighbors are produced from dimension 0
// (least-significant bit) upward.
func (h *Hypercube) Neighbors(v NodeID, buf []NodeID) []NodeID {
	checkNode(v, h.Nodes(), h)
	for i := 0; i < h.Dim; i++ {
		buf = append(buf, v^NodeID(1<<i))
	}
	return buf
}

// Adjacent implements Topology.
func (h *Hypercube) Adjacent(u, v NodeID) bool {
	return bits.OnesCount(uint(u^v)) == 1
}

// Distance implements Topology: the Hamming distance ||b(u) XOR b(v)||.
func (h *Hypercube) Distance(u, v NodeID) int {
	checkNode(u, h.Nodes(), h)
	checkNode(v, h.Nodes(), h)
	return bits.OnesCount(uint(u ^ v))
}

// Diameter implements Topology.
func (h *Hypercube) Diameter() int { return h.Dim }

// NearestOnShortestPaths implements ShortestRegion using the bitwise rule
// of Section 5.2: for each bit position j, the region node takes u's bit
// where s and t differ and the common bit where they agree.
func (h *Hypercube) NearestOnShortestPaths(s, t, u NodeID) NodeID {
	checkNode(s, h.Nodes(), h)
	checkNode(t, h.Nodes(), h)
	checkNode(u, h.Nodes(), h)
	differ := s ^ t // bits free to vary along shortest s-t paths
	return (u & differ) | (s &^ differ)
}
