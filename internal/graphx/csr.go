package graphx

import "slices"

// CSR is a compressed-sparse-row snapshot of a Graph, built once and
// then traversed with no per-call allocation. Row i spans
// Col[RowStart[i]:RowStart[i+1]]. Col preserves the Graph's adjacency
// insertion order (so "first neighbor" walks match Graph.ShortestPath);
// SortedCol holds the same rows sorted ascending, for algorithms that
// need numerically ordered neighbor iteration. The snapshot does not
// track later AddEdge calls — rebuild after mutating the graph (a
// changed Graph.Version tells).
type CSR struct {
	RowStart  []int32
	Col       []int32
	SortedCol []int32
}

// NewCSR snapshots g.
func NewCSR(g *Graph) *CSR {
	n := g.N()
	c := &CSR{RowStart: make([]int32, n+1)}
	total := 0
	for v := 0; v < n; v++ {
		total += len(g.adj[v])
		c.RowStart[v+1] = int32(total)
	}
	c.Col = make([]int32, total)
	c.SortedCol = make([]int32, total)
	for v := 0; v < n; v++ {
		row := c.Col[c.RowStart[v]:c.RowStart[v+1]]
		for i, w := range g.adj[v] {
			row[i] = int32(w)
		}
		srow := c.SortedCol[c.RowStart[v]:c.RowStart[v+1]]
		copy(srow, row)
		slices.Sort(srow)
	}
	return c
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.RowStart) - 1 }

// Arcs returns the number of directed adjacency entries (2x edges).
func (c *CSR) Arcs() int { return len(c.Col) }

// Row returns the insertion-order neighbors of v.
func (c *CSR) Row(v int32) []int32 { return c.Col[c.RowStart[v]:c.RowStart[v+1]] }

// SortedRow returns the neighbors of v in ascending order.
func (c *CSR) SortedRow(v int32) []int32 { return c.SortedCol[c.RowStart[v]:c.RowStart[v+1]] }

// SortedPos returns the index into Arcs-space of neighbor w within v's
// sorted row, or -1 when (v, w) is not an edge. Arc positions are the
// key space for per-edge epoch marks.
func (c *CSR) SortedPos(v, w int32) int32 {
	for i := c.RowStart[v]; i < c.RowStart[v+1]; i++ {
		if c.SortedCol[i] == w {
			return i
		}
	}
	return -1
}
