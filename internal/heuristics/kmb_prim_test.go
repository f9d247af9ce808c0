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

// cubicKMB is Workspace.KMB with the O(t³) reference Prim step.
func (ws *Workspace) cubicKMB(g *graphx.Graph, terminals []int) int {
	ws.kmbClosure(g, terminals)
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
