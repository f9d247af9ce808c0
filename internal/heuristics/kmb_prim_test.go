package heuristics

import (
	"fmt"
	"slices"
	"testing"

	"multicastnet/internal/fault"
	"multicastnet/internal/graphx"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// cubicPrim is the O(t³) Prim step Workspace.KMB used before kmbPrim:
// every round rescans every (tree terminal, candidate) pair, tree
// terminals in insertion order and candidates in input order, with
// strict improvement. It is the reference kmbPrim's tie order must
// reproduce.
func (ws *Workspace) cubicPrim(terminals []int) {
	n := ws.csr.N()
	nt := len(terminals)
	ws.ktList = append(ws.ktList[:0], 0)
	ws.vis.reset(n)
	ws.vis.mark(int32(terminals[0]))
	ws.kclosure = ws.kclosure[:0]
	for len(ws.ktList) < nt {
		bestU, bestV := int32(-1), int32(-1)
		bestD := int32(-1)
		for _, ti := range ws.ktList {
			row := ws.kdist[int(ti)*n : (int(ti)+1)*n]
			for si, s := range terminals {
				if ws.vis.has(int32(s)) {
					continue
				}
				if d := row[s]; d >= 0 && (bestD < 0 || d < bestD) {
					bestU, bestV, bestD = ti, int32(si), d
				}
			}
		}
		if bestU < 0 {
			panic("heuristics: KMB terminals not connected")
		}
		ws.kclosure = append(ws.kclosure, [2]int32{bestU, bestV})
		ws.vis.mark(int32(terminals[bestV]))
		ws.ktList = append(ws.ktList, bestV)
	}
}

// fullClosure fills every terminal's complete closure row from
// Graph.BFSDistances, independently of the on-demand, radius-bounded
// rows kmbPrim fills.
func (ws *Workspace) fullClosure(g *graphx.Graph, terminals []int) {
	ws.kmbPrepare(g, len(terminals))
	n := ws.csr.N()
	for ti, t := range terminals {
		row := ws.kdist[ti*n : (ti+1)*n]
		for v, d := range g.BFSDistances(t) {
			row[v] = int32(d)
		}
	}
}

// cubicKMB is Workspace.KMB over the full closure with the O(t³)
// reference Prim step.
func (ws *Workspace) cubicKMB(g *graphx.Graph, terminals []int) int {
	ws.fullClosure(g, terminals)
	ws.cubicPrim(terminals)
	return ws.kmbTree(terminals)
}

// kmbAgree runs both Prim steps on terminals and fails unless the closure
// MST edges and the packed pruned tree are identical.
func kmbAgree(t *testing.T, label string, g *graphx.Graph, terminals []int, ws, ref *Workspace) {
	t.Helper()
	got := ws.KMB(g, terminals)
	want := ref.cubicKMB(g, terminals)
	if !slices.Equal(ws.kclosure, ref.kclosure) {
		t.Fatalf("%s: closure MST %v, want %v (terminals %v)", label, ws.kclosure, ref.kclosure, terminals)
	}
	if got != want || !slices.Equal(ws.kmbPacked, ref.kmbPacked) {
		t.Fatalf("%s: kmbPacked %v, want %v (terminals %v)", label, ws.kmbPacked, ref.kmbPacked, terminals)
	}
}

// shuffled returns terminals in a random order.
func shuffled(rng *stats.Rand, terminals []int) []int {
	out := make([]int, len(terminals))
	for i, p := range rng.Perm(len(terminals)) {
		out[i] = terminals[p]
	}
	return out
}

// TestKMBPrimMatchesCubic is the differential test of the O(t²) Prim
// step against the O(t³) rescan it replaced. Meshes and hypercubes are
// full of equal closure distances, so nearly every round is decided by
// the tie rule; each terminal set is also run in shuffled orders, since
// the tie rule depends on input order.
func TestKMBPrimMatchesCubic(t *testing.T) {
	ks := []int{2, 5, 50, 200}
	trials := 6
	if testing.Short() {
		trials = 2
	}
	ws, ref := NewWorkspace(), NewWorkspace()
	for _, host := range []topology.Topology{topology.NewMesh2D(32, 32), topology.NewHypercube(10)} {
		g := TopologyGraph(host)
		rng := stats.NewRand(stats.DeriveSeed(0x5EED, host.Name()))
		for _, k := range ks {
			for trial := 0; trial < trials; trial++ {
				terminals := rng.Sample(host.Nodes(), k+1)
				for order := 0; order < 3; order++ {
					label := fmt.Sprintf("%s k=%d trial %d order %d", host.Name(), k, trial, order)
					kmbAgree(t, label, g, terminals, ws, ref)
					terminals = shuffled(rng, terminals)
				}
			}
		}
	}
}

// TestKMBPrimMatchesCubicFaulty repeats the differential test on 6x6
// meshes with randomly failed links, where the closure has unreachable
// pairs (distance -1) the Prim step must skip.
func TestKMBPrimMatchesCubicFaulty(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	nLinks := len(fault.EnumerateLinks(m))
	trials := 80
	if testing.Short() {
		trials = 20
	}
	ws, ref := NewWorkspace(), NewWorkspace()
	checked := 0
	for trial := 0; trial < trials; trial++ {
		seed := stats.DeriveSeed(0xFA17, fmt.Sprintf("kmb-prim/%d", trial))
		rng := stats.NewRand(seed)
		masked := fault.NewPlan(m, fault.Spec{
			Links: rng.Intn(nLinks/4 + 1),
			Seed:  stats.DeriveSeed(seed, "plan"),
		}).FullMask().MaskTopology()
		ids := rng.Sample(m.Nodes(), 2+rng.Intn(20))
		source := topology.NodeID(ids[0])
		terminals := []int{int(source)}
		for _, v := range ids[1:] {
			if masked.Reachable(source, topology.NodeID(v)) {
				terminals = append(terminals, v)
			}
		}
		if len(terminals) < 2 {
			continue
		}
		g := TopologyGraph(masked)
		for order := 0; order < 3; order++ {
			kmbAgree(t, fmt.Sprintf("faulty trial %d order %d", trial, order), g, terminals, ws, ref)
			terminals = shuffled(rng, terminals)
		}
		checked++
	}
	if checked < trials/2 {
		t.Fatalf("only %d of %d faulty trials had two connected terminals", checked, trials)
	}
}

// kmbOutcome runs one KMB call and returns its edge count, or the value
// it panicked with.
func kmbOutcome(run func() int) (edges int, panicked any) {
	defer func() { panicked = recover() }()
	return run(), nil
}

// FuzzKMB is the differential test of the on-demand, radius-bounded
// closure rows against the full closure with the cubic Prim step, on
// small random graphs that may be disconnected: both must give the same
// closure MST edges and pruned tree, or panic with the same value. Each
// input runs in three terminal orders on the same two workspaces, so
// rows left from a previous call are in place.
func FuzzKMB(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4}, []byte{0, 4})
	// Two components.
	f.Add(uint8(6), []byte{0, 1, 1, 2, 3, 4, 4, 5}, []byte{0, 2, 5})
	// An isolated terminal.
	f.Add(uint8(7), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5}, []byte{6, 0, 3})
	// The 3x3 mesh.
	f.Add(uint8(9), []byte{0, 1, 1, 2, 3, 4, 4, 5, 6, 7, 7, 8, 0, 3, 3, 6, 1, 4, 4, 7, 2, 5, 5, 8}, []byte{0, 8, 2, 6, 4})
	f.Fuzz(func(t *testing.T, nb uint8, edges, terms []byte) {
		n := 2 + int(nb)%31
		g := graphx.NewGraph(n)
		for i := 0; i+1 < len(edges); i += 2 {
			u, v := int(edges[i])%n, int(edges[i+1])%n
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
		}
		var terminals []int
		for _, b := range terms {
			if v := int(b) % n; !slices.Contains(terminals, v) {
				terminals = append(terminals, v)
			}
		}
		if len(terminals) < 2 {
			return
		}
		ws, ref := NewWorkspace(), NewWorkspace()
		for order := 0; order < 3; order++ {
			got, gotPanic := kmbOutcome(func() int { return ws.KMB(g, terminals) })
			want, wantPanic := kmbOutcome(func() int { return ref.cubicKMB(g, terminals) })
			switch {
			case gotPanic != wantPanic:
				t.Fatalf("order %d: KMB panicked with %v, reference with %v (terminals %v)", order, gotPanic, wantPanic, terminals)
			case gotPanic != nil:
			case !slices.Equal(ws.kclosure, ref.kclosure):
				t.Fatalf("order %d: closure MST %v, want %v (terminals %v)", order, ws.kclosure, ref.kclosure, terminals)
			case got != want || !slices.Equal(ws.kmbPacked, ref.kmbPacked):
				t.Fatalf("order %d: kmbPacked %v, want %v (terminals %v)", order, ws.kmbPacked, ref.kmbPacked, terminals)
			}
			if order == 0 {
				slices.Reverse(terminals)
			} else {
				terminals = append(terminals[1:], terminals[0])
			}
		}
	})
}

// TestKMBSteadyStateAllocationFree checks that a warm workspace routes
// KMB with no heap allocation at the largest terminal count of the
// static study.
func TestKMBSteadyStateAllocationFree(t *testing.T) {
	for _, host := range []topology.Topology{topology.NewMesh2D(32, 32), topology.NewHypercube(10)} {
		g := TopologyGraph(host)
		rng := stats.NewRand(41)
		terms := make([][]int, 8)
		for i := range terms {
			terms[i] = rng.Sample(host.Nodes(), 201)
		}
		ws := NewWorkspace()
		ws.KMB(g, terms[0])
		i := 0
		if allocs := testing.AllocsPerRun(20, func() {
			ws.KMB(g, terms[i%len(terms)])
			i++
		}); allocs != 0 {
			t.Errorf("%s: KMB allocates %.1f times per call on a warm workspace", host.Name(), allocs)
		}
	}
}

// TestKMBSeesEdgesAddedAfterSnapshot is the regression test for a
// workspace that kept its CSR snapshot of a graph after the graph gained
// an edge: KMB on the path 0-1-2-3-4 with terminals {0, 4}, then again
// after AddEdge(0, 4), must answer what a fresh workspace answers.
func TestKMBSeesEdgesAddedAfterSnapshot(t *testing.T) {
	g := graphx.NewGraph(5)
	for v := 0; v < 4; v++ {
		g.AddEdge(v, v+1)
	}
	terminals := []int{0, 4}
	ws := NewWorkspace()
	if got := ws.KMB(g, terminals); got != 4 {
		t.Fatalf("KMB on the path = %d edges, want 4", got)
	}
	g.AddEdge(0, 4)
	got := ws.KMB(g, terminals)
	want := NewWorkspace().KMB(g, terminals)
	if want != 1 || got != want {
		t.Fatalf("after AddEdge(0, 4): reused workspace %d edges, fresh workspace %d, want 1", got, want)
	}
}
