package routing

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/labeling"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// This file keeps the interface-driven form of the routing function R and
// of every label-monotone path scheme — the form the schemes had before
// they planned over core.Tables — as the reference the table kernel must
// reproduce plan for plan. Every hop here reads neighbors through
// Topology.Neighbors and labels through Labeling.Label.

// refNextHop is R over the Topology and Labeling interfaces.
func refNextHop(t topology.Topology, l labeling.Labeling, u, v topology.NodeID) topology.NodeID {
	if u == v {
		panic("ref: NextHop with u == v")
	}
	lu, lv := l.Label(u), l.Label(v)
	du := t.Distance(u, v)
	var (
		best      topology.NodeID
		bestLabel int
		found     bool
	)
	better := func(lp int) bool {
		if !found {
			return true
		}
		if lu < lv {
			return lp > bestLabel
		}
		return lp < bestLabel
	}
	for _, p := range t.Neighbors(u, nil) {
		lp := l.Label(p)
		inWindow := (lu < lv && lp > lu && lp <= lv) || (lu > lv && lp < lu && lp >= lv)
		if inWindow && t.Distance(p, v) == du-1 && better(lp) {
			best, bestLabel, found = p, lp, true
		}
	}
	if found {
		return best
	}
	return refNextHopLiteral(t, l, u, v)
}

// refNextHopLiteral is R exactly as the dissertation's text states it.
func refNextHopLiteral(t topology.Topology, l labeling.Labeling, u, v topology.NodeID) topology.NodeID {
	lu, lv := l.Label(u), l.Label(v)
	var (
		best      topology.NodeID
		bestLabel int
		found     bool
	)
	for _, p := range t.Neighbors(u, nil) {
		lp := l.Label(p)
		if lu < lv {
			if lp <= lv && (!found || lp > bestLabel) {
				best, bestLabel, found = p, lp, true
			}
		} else if lp >= lv && (!found || lp < bestLabel) {
			best, bestLabel, found = p, lp, true
		}
	}
	if !found {
		panic(fmt.Sprintf("ref: R stuck at node %d toward %d", u, v))
	}
	return best
}

// refRouteThrough walks R from start through every destination in order.
func refRouteThrough(t topology.Topology, l labeling.Labeling, start topology.NodeID,
	dests []topology.NodeID) []topology.NodeID {
	nodes := []topology.NodeID{start}
	cur := start
	for _, d := range dests {
		guard := 0
		for cur != d {
			cur = refNextHop(t, l, cur, d)
			nodes = append(nodes, cur)
			if guard++; guard > t.Nodes()+1 {
				panic("ref: R failed to converge")
			}
		}
	}
	return nodes
}

// refHighLow is the D_H/D_L partition with reflection sorts.
func refHighLow(l labeling.Labeling, k core.MulticastSet) (dh, dl []topology.NodeID) {
	l0 := l.Label(k.Source)
	for _, d := range k.Dests {
		if l.Label(d) > l0 {
			dh = append(dh, d)
		} else {
			dl = append(dl, d)
		}
	}
	sort.Slice(dh, func(i, j int) bool { return l.Label(dh[i]) < l.Label(dh[j]) })
	sort.Slice(dl, func(i, j int) bool { return l.Label(dl[i]) > l.Label(dl[j]) })
	return dh, dl
}

func refDualPath(t topology.Topology, l labeling.Labeling, k core.MulticastSet) []dfr.PathRoute {
	dh, dl := refHighLow(l, k)
	var out []dfr.PathRoute
	for _, g := range [][]topology.NodeID{dh, dl} {
		if len(g) > 0 {
			out = append(out, dfr.PathRoute{Nodes: refRouteThrough(t, l, k.Source, g), Dests: g})
		}
	}
	return out
}

func refFixedPath(l labeling.Labeling, k core.MulticastSet) []dfr.PathRoute {
	dh, dl := refHighLow(l, k)
	l0 := l.Label(k.Source)
	var out []dfr.PathRoute
	if len(dh) > 0 {
		var nodes []topology.NodeID
		for lab := l0; lab <= l.Label(dh[len(dh)-1]); lab++ {
			nodes = append(nodes, l.At(lab))
		}
		out = append(out, dfr.PathRoute{Nodes: nodes, Dests: dh})
	}
	if len(dl) > 0 {
		var nodes []topology.NodeID
		for lab := l0; lab >= l.Label(dl[len(dl)-1]); lab-- {
			nodes = append(nodes, l.At(lab))
		}
		out = append(out, dfr.PathRoute{Nodes: nodes, Dests: dl})
	}
	return out
}

func refMultiPathMesh(t topology.Topology, m *topology.Mesh2D, l labeling.Labeling,
	k core.MulticastSet) []dfr.PathRoute {
	dh, dl := refHighLow(l, k)
	x0, y0 := m.XY(k.Source)
	split := func(group []topology.NodeID, higher bool) [][]topology.NodeID {
		if len(group) == 0 {
			return nil
		}
		var horiz topology.NodeID
		hasHoriz := false
		for _, p := range t.Neighbors(k.Source, nil) {
			if _, py := m.XY(p); py == y0 && higher == (l.Label(p) > l.Label(k.Source)) {
				horiz, hasHoriz = p, true
			}
		}
		if !hasHoriz {
			return [][]topology.NodeID{group}
		}
		hx, _ := m.XY(horiz)
		var side, rest []topology.NodeID
		for _, d := range group {
			if dx, _ := m.XY(d); (hx > x0 && dx >= hx) || (hx < x0 && dx <= hx) {
				side = append(side, d)
			} else {
				rest = append(rest, d)
			}
		}
		var out [][]topology.NodeID
		for _, g := range [][]topology.NodeID{side, rest} {
			if len(g) > 0 {
				out = append(out, g)
			}
		}
		return out
	}
	var out []dfr.PathRoute
	for _, g := range append(split(dh, true), split(dl, false)...) {
		out = append(out, dfr.PathRoute{Nodes: refRouteThrough(t, l, k.Source, g), Dests: g})
	}
	return out
}

func refMultiPathCube(t topology.Topology, l labeling.Labeling, k core.MulticastSet) []dfr.PathRoute {
	dh, dl := refHighLow(l, k)
	l0 := l.Label(k.Source)
	var hi, lo []topology.NodeID
	for _, p := range t.Neighbors(k.Source, nil) {
		if l.Label(p) > l0 {
			hi = append(hi, p)
		} else {
			lo = append(lo, p)
		}
	}
	sort.Slice(hi, func(i, j int) bool { return l.Label(hi[i]) < l.Label(hi[j]) })
	sort.Slice(lo, func(i, j int) bool { return l.Label(lo[i]) > l.Label(lo[j]) })
	var out []dfr.PathRoute
	emit := func(group, vs []topology.NodeID, higher bool) {
		if len(group) == 0 {
			return
		}
		if len(vs) == 0 {
			out = append(out, dfr.PathRoute{Nodes: refRouteThrough(t, l, k.Source, group), Dests: group})
			return
		}
		groups := make(map[topology.NodeID][]topology.NodeID)
		for _, d := range group {
			ld := l.Label(d)
			chosen := vs[0]
			for _, v := range vs {
				if lv := l.Label(v); (higher && lv <= ld) || (!higher && lv >= ld) {
					chosen = v
				}
			}
			groups[chosen] = append(groups[chosen], d)
		}
		for _, v := range vs {
			if g := groups[v]; len(g) > 0 {
				nodes := append([]topology.NodeID{k.Source}, refRouteThrough(t, l, v, g)...)
				out = append(out, dfr.PathRoute{Nodes: nodes, Dests: g})
			}
		}
	}
	emit(dh, hi, true)
	emit(dl, lo, false)
	return out
}

func refVirtualChannel(t topology.Topology, l labeling.Labeling, k core.MulticastSet, v int) []dfr.PathRoute {
	dh, dl := refHighLow(l, k)
	var out []dfr.PathRoute
	for parity, g := range [][]topology.NodeID{dh, dl} {
		n := min(v, len(g))
		start := 0
		for i := 0; i < n; i++ {
			size := len(g) / n
			if i < len(g)%n {
				size++
			}
			block := g[start : start+size]
			start += size
			out = append(out, dfr.PathRoute{
				Nodes: refRouteThrough(t, l, k.Source, block), Dests: block, Class: 2*i + parity,
			})
		}
	}
	return out
}

// refAdaptiveNextHop is the adaptive hop choice over the interfaces.
func refAdaptiveNextHop(t topology.Topology, l labeling.Labeling, u, v topology.NodeID,
	oracle dfr.ChannelOracle) topology.NodeID {
	lu, lv := l.Label(u), l.Label(v)
	du := t.Distance(u, v)
	bestFree, bestAny := topology.NodeID(-1), topology.NodeID(-1)
	better := func(lp int, cur topology.NodeID) bool {
		if cur < 0 {
			return true
		}
		if lu < lv {
			return lp > l.Label(cur)
		}
		return lp < l.Label(cur)
	}
	for _, p := range t.Neighbors(u, nil) {
		lp := l.Label(p)
		inWindow := (lu < lv && lp > lu && lp <= lv) || (lu > lv && lp < lu && lp >= lv)
		if !inWindow || t.Distance(p, v) != du-1 {
			continue
		}
		if better(lp, bestAny) {
			bestAny = p
		}
		if !oracle.Busy(dfr.Channel{From: u, To: p}) && better(lp, bestFree) {
			bestFree = p
		}
	}
	switch {
	case bestFree >= 0:
		return bestFree
	case bestAny >= 0:
		return bestAny
	}
	return refNextHop(t, l, u, v)
}

func refAdaptiveDualPath(t topology.Topology, l labeling.Labeling, k core.MulticastSet,
	oracle dfr.ChannelOracle) []dfr.PathRoute {
	dh, dl := refHighLow(l, k)
	var out []dfr.PathRoute
	for _, g := range [][]topology.NodeID{dh, dl} {
		if len(g) == 0 {
			continue
		}
		nodes := []topology.NodeID{k.Source}
		cur := k.Source
		for _, d := range g {
			for guard := 0; cur != d; guard++ {
				if guard > t.Nodes() {
					panic("ref: adaptive routing failed to converge")
				}
				cur = refAdaptiveNextHop(t, l, cur, d, oracle)
				nodes = append(nodes, cur)
			}
		}
		out = append(out, dfr.PathRoute{Nodes: nodes, Dests: g})
	}
	return out
}

// refPlan routes k by the named path scheme through the reference.
func refPlan(scheme string, opts Options, t topology.Topology, l labeling.Labeling,
	k core.MulticastSet) Plan {
	star := func(paths []dfr.PathRoute) dfr.Star { return dfr.Star{Source: k.Source, Paths: paths} }
	switch scheme {
	case "dual-path":
		return Plan{Paths: refDualPath(t, l, k)}
	case "dual-path-double":
		return Plan{Paths: legacyDouble(star(refDualPath(t, l, k)))}
	case "fixed-path":
		return Plan{Paths: refFixedPath(l, k)}
	case "multi-path", "multi-path-double":
		var paths []dfr.PathRoute
		if m, ok := meshOf(t); ok {
			paths = refMultiPathMesh(t, m, l, k)
		} else {
			paths = refMultiPathCube(t, l, k)
		}
		if scheme == "multi-path-double" {
			paths = legacyDouble(star(paths))
		}
		return Plan{Paths: paths}
	case "virtual-channel":
		return Plan{Paths: refVirtualChannel(t, l, k, opts.VirtualChannels)}
	case "adaptive-dual-path":
		return Plan{Paths: refAdaptiveDualPath(t, l, k, dfr.IdleOracle())}
	}
	panic("ref: no reference for scheme " + scheme)
}

// samePlan reports whether two plans route identically: the same paths
// with the same node sequences, destinations and classes, and the same
// trees.
func samePlan(a, b Plan) bool {
	if len(a.Paths) != len(b.Paths) || !reflect.DeepEqual(a.Trees, b.Trees) {
		return false
	}
	for i := range a.Paths {
		pa, pb := a.Paths[i], b.Paths[i]
		if !slicesEqual(pa.Nodes, pb.Nodes) || !slicesEqual(pa.Dests, pb.Dests) ||
			pa.Class != pb.Class || !reflect.DeepEqual(pa.Classes, pb.Classes) {
			return false
		}
	}
	return true
}

func slicesEqual(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refOrPanic runs the reference, reporting false where it panics (a mask
// stranding R), as planOrPanic does for the kernel.
func refOrPanic(scheme string, opts Options, t topology.Topology, l labeling.Labeling,
	k core.MulticastSet) (p Plan, ok bool) {
	defer func() {
		if recover() != nil {
			p, ok = Plan{}, false
		}
	}()
	return refPlan(scheme, opts, t, l, k), true
}

// pathSchemes lists every label-monotone path scheme with the option
// sets it is checked under.
var pathSchemes = []struct {
	name string
	opts Options
}{
	{"dual-path", Options{}},
	{"dual-path-double", Options{}},
	{"fixed-path", Options{}},
	{"multi-path", Options{}},
	{"multi-path-double", Options{}},
	{"adaptive-dual-path", Options{}},
	{"virtual-channel", Options{VirtualChannels: 1}},
	{"virtual-channel", Options{VirtualChannels: 2}},
	{"virtual-channel", Options{VirtualChannels: 3}},
}

// diffAgainstReference plans sets random multicast sets over st with
// every path scheme the topology supports and requires the table kernel
// and the reference to agree: identical plans, or both stranded.
func diffAgainstReference(t *testing.T, st *State, base topology.Topology, sets int, seed uint64) {
	t.Helper()
	tp, l := st.Topology(), st.Labeling()
	rng := stats.NewRand(seed)
	ks := make([]core.MulticastSet, sets)
	for i := range ks {
		ks[i] = randomSet(base, rng, 1+rng.Intn(min(24, base.Nodes()-1)))
	}
	checked := 0
	for _, sc := range pathSchemes {
		r, err := NewWithOptions(sc.name, st, sc.opts)
		if err != nil {
			continue // multi-path needs a 2D mesh or hypercube
		}
		checked++
		for _, k := range ks {
			got, okGot := planOrPanic(r, k)
			want, okWant := refOrPanic(sc.name, sc.opts, tp, l, k)
			if okGot != okWant {
				t.Fatalf("%s %+v on %s: kernel ok=%v, reference ok=%v for src %d dests %v",
					sc.name, sc.opts, tp.Name(), okGot, okWant, k.Source, k.Dests)
			}
			if okGot && !samePlan(got, want) {
				t.Fatalf("%s %+v on %s diverges for src %d dests %v:\nkernel    %+v\nreference %+v",
					sc.name, sc.opts, tp.Name(), k.Source, k.Dests, got, want)
			}
		}
	}
	if checked == 0 {
		t.Fatalf("no path scheme builds on %s", tp.Name())
	}
}

// TestTableKernelMatchesReference is the differential test of the table
// kernel: every path scheme, on 2D and 3D meshes, hypercubes and a
// k-ary n-cube, plans exactly as the interface-driven reference.
func TestTableKernelMatchesReference(t *testing.T) {
	topos := []topology.Topology{
		topology.NewMesh2D(8, 8),
		topology.NewMesh2D(16, 5),
		topology.NewMesh2D(1, 7),
		topology.NewMesh3D(4, 3, 4),
		topology.NewHypercube(7),
		topology.NewKAryNCube(4, 3),
		topology.NewKAryNCube(5, 2),
	}
	for i, tp := range topos {
		st, err := NewState(tp)
		if err != nil {
			t.Fatal(err)
		}
		diffAgainstReference(t, st, tp, 300, uint64(100+i))
	}
}

// TestTableKernelMatchesReferenceNonCanonical runs the differential test
// under the "poor" comb Hamilton-path labeling of Fig. 6.10, where R
// falls back to its literal rule and legs outgrow their distance-sized
// hint.
func TestTableKernelMatchesReferenceNonCanonical(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	c, err := labeling.MeshHamiltonCycle(m)
	if err != nil {
		t.Fatal(err)
	}
	diffAgainstReference(t, NewStateWithLabeling(m, labeling.PathLabeling{Cycle: c}), m, 300, 7)
}

// TestTableKernelMatchesReferenceMasked runs the differential test over
// Masked views with dead links and dead nodes, where R can be stranded.
func TestTableKernelMatchesReferenceMasked(t *testing.T) {
	for i, base := range []topology.Topology{topology.NewMesh2D(8, 8), topology.NewHypercube(6)} {
		healthy, err := NewState(base)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRand(uint64(31 + i))
		links := enumerateLinksTest(base)
		var deadLinks []topology.Link
		for j := 0; j < 6; j++ {
			deadLinks = append(deadLinks, links[rng.Intn(len(links))])
		}
		deadNodes := []topology.NodeID{topology.NodeID(rng.Intn(base.Nodes())), topology.NodeID(rng.Intn(base.Nodes()))}
		masked := topology.NewMasked(base, deadNodes, deadLinks)
		diffAgainstReference(t, NewStateWithLabeling(masked, healthy.Labeling()), base, 300, uint64(200+i))
	}
}

// TestTableKernelMatchesReferenceLive runs the differential test over a
// LiveState after several Apply deltas, so the kernel reads adjacency
// rows the deltas patched in place.
func TestTableKernelMatchesReferenceLive(t *testing.T) {
	for i, base := range []topology.Topology{topology.NewMesh2D(8, 8), topology.NewHypercube(6)} {
		healthy, err := NewState(base)
		if err != nil {
			t.Fatal(err)
		}
		ls := NewLiveState(healthy)
		rng := stats.NewRand(uint64(41 + i))
		links := enumerateLinksTest(base)
		var failed []topology.Link
		for step := 0; step < 5; step++ {
			var d topology.GraphDelta
			for j := 0; j < 3; j++ {
				l := links[rng.Intn(len(links))]
				d.FailLinks = append(d.FailLinks, l)
				failed = append(failed, l)
			}
			if step == 2 {
				d.FailNodes = []topology.NodeID{topology.NodeID(rng.Intn(base.Nodes()))}
			}
			if step == 3 {
				d.RepairLinks = failed[:2]
			}
			ls.Apply(d)
			diffAgainstReference(t, ls.State(), base, 100, uint64(300+10*i+step))
		}
	}
}

// TestDualPathPlanAllocs pins dual-path PlanSet on the 8x8 mesh to the
// table kernel's allocation count: the partition buffer, one node array
// for both paths, and the path slice.
func TestDualPathPlanAllocs(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	st, err := NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New("dual-path", st)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(711)
	sets := make([]core.MulticastSet, 64)
	for i := range sets {
		sets[i] = randomSet(m, rng, 1+rng.Intn(19))
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		r.PlanSet(sets[i%len(sets)])
		i++
	})
	if allocs > 4 {
		t.Errorf("dual-path PlanSet on 8x8 costs %.1f allocs, want <= 4", allocs)
	}
}
