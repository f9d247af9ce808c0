package experiments

import (
	"fmt"
	"io"
	"sort"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/heuristics"
	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// WriteTable51 renders Table 5.1: the Hamilton cycle and h mapping of the
// 4x4 mesh.
func WriteTable51(w io.Writer) error {
	m := topology.NewMesh2D(4, 4)
	c, err := labeling.MeshHamiltonCycle(m)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 5.1 — Hamilton cycle and mapping h of a 4x4 mesh")
	fmt.Fprintln(w, "h(x)  x")
	for h := 1; h <= c.Len(); h++ {
		fmt.Fprintf(w, "%4d  %d\n", h, c.At(h))
	}
	return nil
}

// WriteTable52 renders Table 5.2: sorting keys f for source node 9 on the
// 4x4 mesh.
func WriteTable52(w io.Writer) error {
	m := topology.NewMesh2D(4, 4)
	c, err := labeling.MeshHamiltonCycle(m)
	if err != nil {
		return err
	}
	u0 := topology.NodeID(9)
	fmt.Fprintln(w, "Table 5.2 — sorting key f(x) and mapping h(x), 4x4 mesh, u0 = 9")
	fmt.Fprintln(w, "   x  h(x)  f(x)")
	for x := topology.NodeID(0); int(x) < m.Nodes(); x++ {
		fmt.Fprintf(w, "%4d  %4d  %4d\n", x, c.H(x), c.SortKey(u0, x))
	}
	return nil
}

// WriteTable53 renders Table 5.3: the Gray-code Hamilton cycle of the
// 4-cube.
func WriteTable53(w io.Writer) error {
	h := topology.NewHypercube(4)
	c, err := labeling.CubeHamiltonCycle(h)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 5.3 — Hamilton cycle and mapping h of a 4-cube")
	fmt.Fprintln(w, "h(x)  x")
	for pos := 1; pos <= c.Len(); pos++ {
		fmt.Fprintf(w, "%4d  %04b\n", pos, c.At(pos))
	}
	return nil
}

// WriteTable54 renders Table 5.4: sorting keys on the 4-cube with source
// 0011.
func WriteTable54(w io.Writer) error {
	h := topology.NewHypercube(4)
	c, err := labeling.CubeHamiltonCycle(h)
	if err != nil {
		return err
	}
	u0 := topology.NodeID(0b0011)
	fmt.Fprintln(w, "Table 5.4 — sorting key f(x) and mapping h(x), 4-cube, u0 = 0011")
	fmt.Fprintln(w, "   x  h(x)  f(x)")
	for x := topology.NodeID(0); int(x) < h.Nodes(); x++ {
		fmt.Fprintf(w, "%04b  %4d  %4d\n", x, c.H(x), c.SortKey(u0, x))
	}
	return nil
}

// textSection is one independent block of a rendered text report: Run
// produces the block on a worker goroutine, Commit (sequential, in
// declaration order) writes it, so the report bytes are independent of
// the worker count. After the first error nothing further is written,
// matching the sequential early-return behavior.
type textOut struct {
	s   string
	err error
}

func textSections(w io.Writer, workers int, sections ...func() (string, error)) error {
	var firstErr error
	points := make([]SweepPoint, len(sections))
	for i, sec := range sections {
		points[i] = SweepPoint{
			Run: func() any {
				s, err := sec()
				return textOut{s: s, err: err}
			},
			Commit: func(v any) {
				o := v.(textOut)
				if firstErr != nil {
					return
				}
				if o.err != nil {
					firstErr = o.err
					return
				}
				io.WriteString(w, o.s)
			},
		}
	}
	RunSweep(points, workers)
	return firstErr
}

// ExampleRoutes computes every worked route example of Chapters 5 and 6
// and renders it with its traffic, for cmd/mcfigures and the examples
// index of EXPERIMENTS.md. The examples are independent, so they are
// evaluated over a worker pool of the given size (<= 0 selects
// GOMAXPROCS) and written in figure order.
func ExampleRoutes(w io.Writer, workers int) error {
	return textSections(w, workers,
		func() (string, error) {
			// Fig. 5.7: sorted MP on the 4x4 mesh.
			m44 := topology.NewMesh2D(4, 4)
			c44, err := labeling.MeshHamiltonCycle(m44)
			if err != nil {
				return "", err
			}
			k57 := core.MustMulticastSet(m44, 9, []topology.NodeID{0, 1, 6, 12})
			p57 := heuristics.SortedMP(m44, c44, k57)
			return fmt.Sprintf("Fig 5.7  sorted MP, 4x4 mesh, src 9: path %v, traffic %d\n", p57.Nodes, p57.Traffic()), nil
		},
		func() (string, error) {
			// Fig. 5.8: sorted MP on the 4-cube.
			h4 := topology.NewHypercube(4)
			ch4, err := labeling.CubeHamiltonCycle(h4)
			if err != nil {
				return "", err
			}
			k58 := core.MustMulticastSet(h4, 0b0011,
				[]topology.NodeID{0b0100, 0b0111, 0b1100, 0b1010, 0b1111})
			p58 := heuristics.SortedMP(h4, ch4, k58)
			return fmt.Sprintf("Fig 5.8  sorted MP, 4-cube, src 0011: path %v, traffic %d\n", p58.Nodes, p58.Traffic()), nil
		},
		func() (string, error) {
			// Fig. 5.9: greedy ST on an 8x8 mesh.
			m88 := topology.NewMesh2D(8, 8)
			k59 := core.MustMulticastSet(m88, m88.ID(2, 7), []topology.NodeID{
				m88.ID(0, 5), m88.ID(2, 3), m88.ID(4, 1), m88.ID(6, 3), m88.ID(7, 4)})
			r59 := heuristics.GreedyST(m88, k59)
			return fmt.Sprintf("Fig 5.9  greedy ST, 8x8 mesh, src [2,7]: traffic %d, tree %v\n", r59.Links, r59.IsTreePattern()), nil
		},
		func() (string, error) {
			// Fig. 5.10: greedy ST on a 6-cube.
			h6 := topology.NewHypercube(6)
			k510 := core.MustMulticastSet(h6, 0b000110,
				[]topology.NodeID{0b010101, 0b000001, 0b001101, 0b101001, 0b110001})
			r510 := heuristics.GreedyST(h6, k510)
			return fmt.Sprintf("Fig 5.10 greedy ST, 6-cube, src 000110: traffic %d, tree %v\n", r510.Links, r510.IsTreePattern()), nil
		},
		func() (string, error) {
			// Figs. 5.11/5.12: X-first and divided greedy on a 6x6 mesh.
			m66 := topology.NewMesh2D(6, 6)
			kmt := core.MustMulticastSet(m66, m66.ID(3, 2), []topology.NodeID{
				m66.ID(2, 0), m66.ID(3, 0), m66.ID(4, 0), m66.ID(1, 1), m66.ID(5, 1),
				m66.ID(0, 2), m66.ID(1, 3), m66.ID(2, 5), m66.ID(3, 5), m66.ID(5, 5)})
			return fmt.Sprintf("Fig 5.11 X-first MT, 6x6 mesh, src (3,2): traffic %d\n", heuristics.XFirstMT(m66, kmt).Links) +
				fmt.Sprintf("Fig 5.12 divided greedy MT, same example: traffic %d\n", heuristics.DividedGreedyMT(m66, kmt).Links), nil
		},
		func() (string, error) {
			// Figs. 6.13/6.16/6.17: the path schemes on the 6x6 example.
			m66 := topology.NewMesh2D(6, 6)
			tb66 := core.NewTables(m66, labeling.NewMeshBoustrophedon(m66))
			k6 := core.MustMulticastSet(m66, m66.ID(3, 2), []topology.NodeID{
				m66.ID(0, 0), m66.ID(0, 2), m66.ID(0, 5), m66.ID(1, 3), m66.ID(4, 5),
				m66.ID(5, 0), m66.ID(5, 1), m66.ID(5, 3), m66.ID(5, 4)})
			dual := dfr.DualPathOn(tb66, k6)
			multi := dfr.MultiPathMeshOn(tb66, m66, k6)
			fixed := dfr.FixedPathOn(tb66, k6)
			return fmt.Sprintf("Fig 6.13 dual-path, 6x6 mesh: traffic %d, max distance %d\n", dual.Traffic(), dual.MaxDistance()) +
				fmt.Sprintf("Fig 6.16 multi-path, 6x6 mesh: traffic %d, max distance %d\n", multi.Traffic(), multi.MaxDistance()) +
				fmt.Sprintf("Fig 6.17 fixed-path, 6x6 mesh: traffic %d, max distance %d\n", fixed.Traffic(), fixed.MaxDistance()), nil
		},
		func() (string, error) {
			// Figs. 6.19/6.21: dual- and multi-path on the 4-cube.
			h4 := topology.NewHypercube(4)
			tbh4 := core.NewTables(h4, labeling.NewHypercubeGray(h4))
			k619 := core.MustMulticastSet(h4, 0b1100,
				[]topology.NodeID{0b0100, 0b0011, 0b0111, 0b1000, 0b1111})
			d619 := dfr.DualPathOn(tbh4, k619)
			m621 := dfr.MultiPathCubeOn(tbh4, k619)
			return fmt.Sprintf("Fig 6.19 dual-path, 4-cube, src 1100: traffic %d, max distance %d\n", d619.Traffic(), d619.MaxDistance()) +
				fmt.Sprintf("Fig 6.21 multi-path, 4-cube, src 1100: traffic %d, max distance %d\n", m621.Traffic(), m621.MaxDistance()), nil
		},
	)
}

// DeadlockDemos verifies and renders the Chapter 6 deadlock
// constructions: the naive schemes produce channel dependency cycles, the
// safe schemes do not. The three constructions are independent, so they
// run over a worker pool of the given size (<= 0 selects GOMAXPROCS) and
// are written in figure order.
func DeadlockDemos(w io.Writer, workers int) error {
	return textSections(w, workers,
		func() (string, error) {
			h3 := topology.NewHypercube(3)
			rec := dfr.NewDependencyRecorder()
			rec.AddTree(dfr.ECubeBroadcastTree(h3, 0))
			rec.AddTree(dfr.ECubeBroadcastTree(h3, 1))
			return fmt.Sprintf("Fig 6.1  two 3-cube broadcast trees: dependency cycle %v\n", rec.FindCycle()), nil
		},
		func() (string, error) {
			m := topology.NewMesh2D(4, 3)
			m0 := core.MustMulticastSet(m, m.ID(1, 1), []topology.NodeID{m.ID(0, 2), m.ID(3, 1)})
			m1 := core.MustMulticastSet(m, m.ID(2, 1), []topology.NodeID{m.ID(0, 1), m.ID(3, 0)})
			naive := dfr.NaiveTreeCDG(m, []core.MulticastSet{m0, m1})
			return fmt.Sprintf("Fig 6.4  two X-first tree multicasts: dependency cycle %v\n", naive.FindCycle()), nil
		},
		func() (string, error) {
			// The safe schemes on aggressively many multicast sets: acyclic.
			// Path schemes share one network (all label-monotone on the same
			// single channels); the double-channel tree scheme runs on its own
			// network, so it gets its own dependency graph.
			m := topology.NewMesh2D(4, 3)
			tb := core.NewTables(m, labeling.NewMeshBoustrophedon(m))
			pathRec := dfr.NewDependencyRecorder()
			treeRec := dfr.NewDependencyRecorder()
			var sets []core.MulticastSet
			for src := topology.NodeID(0); int(src) < m.Nodes(); src++ {
				var dests []topology.NodeID
				for v := topology.NodeID(0); int(v) < m.Nodes(); v++ {
					if v != src {
						dests = append(dests, v)
					}
				}
				sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
				sets = append(sets, core.MustMulticastSet(m, src, dests))
			}
			for _, k := range sets {
				pathRec.AddStar(dfr.DualPathOn(tb, k))
				pathRec.AddStar(dfr.MultiPathMeshOn(tb, m, k))
				pathRec.AddStar(dfr.FixedPathOn(tb, k))
				for _, tr := range dfr.DoubleChannelXFirst(m, k) {
					treeRec.AddTree(tr)
				}
			}
			if cyc := pathRec.FindCycle(); cyc != nil {
				return "", fmt.Errorf("experiments: path schemes produced a cycle %v", cyc)
			}
			if cyc := treeRec.FindCycle(); cyc != nil {
				return "", fmt.Errorf("experiments: double-channel tree scheme produced a cycle %v", cyc)
			}
			return "Ch 6     all deadlock-free schemes, all-source broadcast workload: CDG acyclic\n", nil
		},
	)
}
