package main

import (
	"fmt"
	"time"

	"multicastnet/internal/core"
	"multicastnet/internal/graphx"
	"multicastnet/internal/heuristics"
	"multicastnet/internal/labeling"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// The Chapter-5 kernels of the static study, in report order; span kind
// spanKernel+i times kernel i.
const (
	kSortedMP = iota
	kGreedyST
	kKMB
	kXFirstMT
	kDividedGreedyMT
	kLEN
)

var kernelNames = [...]string{"SortedMP", "GreedyST", "KMB", "XFirstMT", "DividedGreedyMT", "LEN"}

// staticInputs are the inputs of the static study: uniform multicast
// sets (Section 7.1) over a range of destination counts, drawn on the
// 32x32 mesh and the 10-cube of Figures 7.1-7.7.
type staticInputs struct {
	ks       []int
	setsPerK int
}

// staticHost is one topology of the study with the kernels that apply to
// it, as indexes into kernelNames.
type staticHost struct {
	topo    topology.Topology
	cycle   *labeling.HamiltonCycle
	graph   *graphx.Graph
	kernels []int
	sets    []core.MulticastSet
	terms   [][]int // KMB terminals per set: source then destinations
}

// route runs kernel ki on set si and returns its traffic.
func (h *staticHost) route(ws *heuristics.Workspace, ki, si int) int {
	k := h.sets[si]
	switch ki {
	case kSortedMP:
		return ws.SortedMP(h.topo, h.cycle, k)
	case kGreedyST:
		return ws.GreedyST(h.topo.(heuristics.RegionTopology), k)
	case kKMB:
		return ws.KMB(h.graph, h.terms[si])
	case kXFirstMT:
		return ws.XFirstMT(h.topo.(*topology.Mesh2D), k)
	case kDividedGreedyMT:
		return ws.DividedGreedyMT(h.topo.(*topology.Mesh2D), k)
	}
	return ws.LEN(h.topo.(*topology.Hypercube), k)
}

// staticOutcome is one repetition of the static study.
type staticOutcome struct {
	rep
	setWallMs []float64               // host ms to route one set through its kernels
	checksum  [len(kernelNames)]int64 // per kernel: traffic summed over the batch
	calls     [len(kernelNames)]int   // per kernel: sets routed
}

func newStaticHosts(in staticInputs, seed uint64) ([]*staticHost, error) {
	m := topology.NewMesh2D(32, 32)
	mc, err := labeling.MeshHamiltonCycle(m)
	if err != nil {
		return nil, err
	}
	h := topology.NewHypercube(10)
	hc, err := labeling.CubeHamiltonCycle(h)
	if err != nil {
		return nil, err
	}
	hosts := []*staticHost{
		{topo: m, cycle: mc, kernels: []int{kSortedMP, kGreedyST, kKMB, kXFirstMT, kDividedGreedyMT}},
		{topo: h, cycle: hc, kernels: []int{kSortedMP, kGreedyST, kKMB, kLEN}},
	}
	for _, host := range hosts {
		t := host.topo
		host.graph = heuristics.TopologyGraph(t)
		rng := stats.NewRand(stats.DeriveSeed(seed, "perfbench/static/"+t.Name()))
		for _, k := range in.ks {
			for r := 0; r < in.setsPerK; r++ {
				src := topology.NodeID(rng.Intn(t.Nodes()))
				raw := rng.Sample(t.Nodes(), k, int(src))
				dests := make([]topology.NodeID, k)
				terms := []int{int(src)}
				for i, v := range raw {
					dests[i] = topology.NodeID(v)
					terms = append(terms, v)
				}
				set, err := core.NewMulticastSet(t, src, dests)
				if err != nil {
					return nil, err
				}
				host.sets = append(host.sets, set)
				host.terms = append(host.terms, terms)
			}
		}
	}
	return hosts, nil
}

// staticRep routes the batch through one Workspace: every mesh set, then
// every cube set, each through all kernels that apply to its topology.
// Set-up warms the Workspace on both topologies, ending on the mesh, so
// the timed section rebuilds KMB's graph snapshot exactly once, at the
// switch to the cube.
func staticRep(in staticInputs, seed uint64, tr *tracer) (staticOutcome, error) {
	var out staticOutcome
	setupStart := time.Now()
	hosts, err := newStaticHosts(in, seed)
	if err != nil {
		return out, err
	}
	ws := heuristics.NewWorkspace()
	calls := 0
	for i := len(hosts) - 1; i >= 0; i-- {
		for _, ki := range hosts[i].kernels {
			hosts[i].route(ws, ki, len(hosts[i].sets)-1)
		}
		calls += len(hosts[i].kernels) * len(hosts[i].sets)
	}
	// Reserve every span and sample up front: the timed section then
	// allocates only inside the kernels.
	tr.reserve(calls)
	out.setWallMs = make([]float64, 0, calls)
	out.setup = time.Since(setupStart)

	timed := startTimed()
	id := uint64(0)
	for _, host := range hosts {
		for si, set := range host.sets {
			t0 := timed.now()
			ok := true
			for _, ki := range host.kernels {
				i := tr.begin(spanKernel+spanKind(ki), id)
				traffic := host.route(ws, ki, si)
				tr.end(i)
				out.checksum[ki] += int64(traffic)
				out.calls[ki]++
				if traffic < len(set.Dests) {
					ok = false
					out.problems = append(out.problems, fmt.Sprintf("%s on %s: traffic %d below k=%d",
						kernelNames[ki], host.topo.Name(), traffic, len(set.Dests)))
				}
			}
			out.setWallMs = append(out.setWallMs, float64(timed.now()-t0)/1e6)
			out.attempted++
			if !ok {
				out.failed++
			}
			id++
		}
	}
	timed.stop(&out.rep)
	return out, nil
}

func (o *staticOutcome) sim() map[string]float64 {
	m := map[string]float64{}
	for ki, name := range kernelNames {
		m["heuristics."+name+".traffic_sum"] = float64(o.checksum[ki])
		m["heuristics."+name+".sets"] = float64(o.calls[ki])
	}
	return m
}

func (o *staticOutcome) host() map[string]float64 {
	return map[string]float64{
		"req_wall_p50_ms": percentile(o.setWallMs, 0.50),
		"req_wall_p99_ms": percentile(o.setWallMs, 0.99),
	}
}

func (o *staticOutcome) layer(tr *tracer) map[string]float64 {
	m := shares(tr, o.wall, 0)
	for ki, name := range kernelNames {
		ns, n := tr.total(spanKernel + spanKind(ki))
		m["heuristics."+name+".ns_per_set"] = per(ns, n)
	}
	m["heuristics.allocs_per_set"] = float64(o.allocs) / float64(o.attempted)
	return m
}
