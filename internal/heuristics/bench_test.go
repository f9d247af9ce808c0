package heuristics

import (
	"fmt"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/labeling"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// benchWorkload builds a deterministic pool of multicast sets.
func benchWorkload(tb testing.TB, t topology.Topology, dests, count int) []core.MulticastSet {
	rng := stats.NewRand(1990)
	sets := make([]core.MulticastSet, count)
	for i := range sets {
		src := topology.NodeID(rng.Intn(t.Nodes()))
		raw := rng.Sample(t.Nodes(), dests, int(src))
		ds := make([]topology.NodeID, dests)
		for j, v := range raw {
			ds[j] = topology.NodeID(v)
		}
		var err error
		sets[i], err = core.NewMulticastSet(t, src, ds)
		if err != nil {
			tb.Fatal(err)
		}
	}
	return sets
}

// The kernel benchmarks drive the Workspace methods the way the static
// study does: one warm workspace, reused across calls. After the first
// call on a topology the arrays are sized, so allocs/op must be 0 —
// TestWriteHeuristicsBenchBaseline enforces that on the committed
// baseline.

// BenchmarkGreedyST times the greedy Steiner tree on 10 destinations of
// a 16x16 mesh, then on k destinations on the static study's hosts, the
// cases BenchmarkKMB runs.
func BenchmarkGreedyST(b *testing.B) {
	run := func(b *testing.B, t RegionTopology, dests int) {
		sets := benchWorkload(b, t, dests, 64)
		ws := NewWorkspace()
		ws.GreedyST(t, sets[0])
		b.ReportAllocs()
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			total += ws.GreedyST(t, sets[i%len(sets)])
		}
		_ = total
	}
	b.Run("mesh16x16", func(b *testing.B) { run(b, topology.NewMesh2D(16, 16), 10) })
	hosts := []struct {
		name string
		t    RegionTopology
	}{
		{"mesh32x32", topology.NewMesh2D(32, 32)},
		{"cube10", topology.NewHypercube(10)},
	}
	for _, h := range hosts {
		for _, k := range []int{10, 50, 200} {
			b.Run(fmt.Sprintf("%s/k=%d", h.name, k), func(b *testing.B) { run(b, h.t, k) })
		}
	}
}

func BenchmarkGreedySTCarried(b *testing.B) {
	m := topology.NewMesh2D(16, 16)
	sets := benchWorkload(b, m, 10, 64)
	ws := NewWorkspace()
	ws.GreedySTCarried(m, sets[0])
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += ws.GreedySTCarried(m, sets[i%len(sets)])
	}
	_ = total
}

// BenchmarkKMB times KMB on 11 terminals of a 16x16 mesh, then on a
// source plus k destinations on the static study's hosts: the larger k
// show how the closure MST step scales with the terminal count.
func BenchmarkKMB(b *testing.B) {
	run := func(b *testing.B, t topology.Topology, terminals int) {
		g := TopologyGraph(t)
		rng := stats.NewRand(1990)
		terms := make([][]int, 64)
		for i := range terms {
			terms[i] = rng.Sample(t.Nodes(), terminals)
		}
		ws := NewWorkspace()
		ws.KMB(g, terms[0])
		b.ReportAllocs()
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			total += ws.KMB(g, terms[i%len(terms)])
		}
		_ = total
	}
	b.Run("mesh16x16", func(b *testing.B) { run(b, topology.NewMesh2D(16, 16), 11) })
	hosts := []struct {
		name string
		t    topology.Topology
	}{
		{"mesh32x32", topology.NewMesh2D(32, 32)},
		{"cube10", topology.NewHypercube(10)},
	}
	for _, h := range hosts {
		for _, k := range []int{10, 50, 200} {
			b.Run(fmt.Sprintf("%s/k=%d", h.name, k), func(b *testing.B) { run(b, h.t, k+1) })
		}
	}
}

func BenchmarkSortedMP(b *testing.B) {
	b.Run("mesh16x16", func(b *testing.B) {
		m := topology.NewMesh2D(16, 16)
		c, err := labeling.MeshHamiltonCycle(m)
		if err != nil {
			b.Fatal(err)
		}
		sets := benchWorkload(b, m, 10, 64)
		ws := NewWorkspace()
		ws.SortedMP(m, c, sets[0])
		b.ReportAllocs()
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			total += ws.SortedMP(m, c, sets[i%len(sets)])
		}
		_ = total
	})
	b.Run("cube10", func(b *testing.B) {
		h := topology.NewHypercube(10)
		c, err := labeling.CubeHamiltonCycle(h)
		if err != nil {
			b.Fatal(err)
		}
		sets := benchWorkload(b, h, 10, 64)
		ws := NewWorkspace()
		ws.SortedMP(h, c, sets[0])
		b.ReportAllocs()
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			total += ws.SortedMP(h, c, sets[i%len(sets)])
		}
		_ = total
	})
}
