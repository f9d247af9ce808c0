package wormsim

import (
	"fmt"
	"math"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// TestKilledSleeperMakesNoProgress pins the drain-timer bookkeeping
// under faults. A fully routed worm sleeps until its next event; when a
// fault kills it asleep, the network must stop reporting progress at
// once, report idle, and the dead worm's timer entry — still in the heap
// — must never wake the worm that later reuses its arena slot.
func TestKilledSleeperMakesNoProgress(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	n := NewNetwork(m)
	const L = 128
	n.InjectMulticast([]dfr.PathRoute{pathTo(0, 1)}, nil, L)
	if !n.Step() {
		t.Fatal("header advance not reported as progress")
	}
	const slot = wormRef(0)
	if n.slots[slot].wakeAt == 0 || n.sleepers != 1 {
		t.Fatalf("fully routed worm not asleep (wakeAt %d, sleepers %d)", n.slots[slot].wakeAt, n.sleepers)
	}
	staleAt := n.slots[slot].wakeAt
	if !n.Step() || n.Idle() {
		t.Fatal("a sleeping drainer must count as progress and as movable")
	}
	if killed := n.FailWhere(func(c dfr.Channel) bool { return c.From == 0 && c.To == 1 }); killed != 1 {
		t.Fatalf("fault killed %d worms, want the sleeper", killed)
	}
	if n.Step() {
		t.Error("Step reports progress after the only sleeper was killed")
	}
	if !n.Idle() {
		t.Error("network with a killed sleeper and nothing else is not idle")
	}

	// Retire enough one-flit unicasts to compact the in-flight list, which
	// frees the killed sleeper's slot; reuse starts two cycles later.
	var paths []dfr.PathRoute
	for v := topology.NodeID(8); v < 64; v++ {
		if v%8 != 7 {
			paths = append(paths, pathTo(v, v+1))
		}
	}
	for _, p := range paths {
		n.InjectMulticast([]dfr.PathRoute{p}, nil, 1)
	}
	if !runUntilQuiet(n, 100) {
		t.Fatal("unicasts did not drain")
	}
	n.Step()
	n.Step()

	var lat int64 = -1
	n.OnDelivery(func(_ topology.NodeID, c int64) { lat = c })
	n.InjectMulticast([]dfr.PathRoute{pathTo(2, 3)}, nil, L)
	if got := n.worms[len(n.worms)-1]; got != slot {
		t.Fatalf("new worm landed in slot %d, want the killed sleeper's slot %d", got, slot)
	}
	start := n.Cycle()
	for n.ActiveWorms() > 0 {
		if !n.Step() {
			t.Fatalf("cycle %d: lone drainer made no progress", n.Cycle())
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if start >= staleAt || n.Cycle() <= staleAt {
		t.Fatalf("the stale entry (cycle %d) did not fall inside the new worm's drain [%d, %d]",
			staleAt, start, n.Cycle())
	}
	if lat != 1+L-1 {
		t.Errorf("new worm delivered at latency %d, want %d: the stale timer woke it", lat, 1+L-1)
	}
	if n.sleepers != 0 || !n.Idle() {
		t.Errorf("drained network: sleepers %d, idle %v", n.sleepers, n.Idle())
	}
}

// zeroLoadWant is the flit-clock closed form of one multicast on an idle
// network: each destination is delivered at its route position (tree:
// depth) plus L-1 cycles, the multicast completes at the largest of
// those, and the last worm retires once its tail has left its last
// channel, route length plus L-1 cycles after injection.
type zeroLoadWant struct {
	lat   map[topology.NodeID]int64
	done  int64 // completion latency
	drain int64 // cycles until the last worm retires
	sum   int64 // sum of the per-destination latencies
}

func zeroLoadClosedForm(p routing.Plan, L int) zeroLoadWant {
	w := zeroLoadWant{lat: map[topology.NodeID]int64{}}
	add := func(d topology.NodeID, pos int) {
		c := int64(pos + L - 1)
		w.lat[d] = c
		w.sum += c
		w.done = max(w.done, c)
	}
	for _, pr := range p.Paths {
		if len(pr.Nodes) < 2 {
			continue
		}
		for _, d := range pr.Dests {
			for i, v := range pr.Nodes {
				if v == d {
					add(d, i)
					break
				}
			}
		}
		w.drain = max(w.drain, int64(len(pr.Nodes)-1+L-1))
	}
	for _, tr := range p.Trees {
		depth := map[topology.NodeID]int{tr.Root: 0}
		maxd := 0
		for _, e := range tr.Edges {
			depth[e.To] = depth[e.From] + 1
			maxd = max(maxd, depth[e.To])
		}
		for _, d := range tr.Dests {
			add(d, depth[d])
		}
		if len(tr.Edges) > 0 {
			w.drain = max(w.drain, int64(maxd+L-1))
		}
	}
	return w
}

// TestZeroLoadClosedForm checks the simulator against the flit-clock
// closed form rather than its own earlier outputs: for every registry
// scheme on a mesh, a hypercube and a k-ary n-cube, and message lengths
// from one flit to the paper's 128, a lone multicast must deliver and
// complete exactly when zeroLoadClosedForm says. It drives each case
// twice: by hand Steps (every cycle must report progress, sleeping
// drainers included) and through Run, whose fast-forward jumps the
// stretches where only sleeping drainers move.
func TestZeroLoadClosedForm(t *testing.T) {
	topos := []topology.Topology{
		topology.NewMesh2D(8, 8),
		topology.NewHypercube(6),
		topology.NewKAryNCube(4, 3),
	}
	for _, topo := range topos {
		st, err := routing.NewState(topo)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRand(11)
		var sets []core.MulticastSet
		for _, avg := range []int{-1, 3, 12} {
			for i := 0; i < 2; i++ {
				src := topology.NodeID(rng.Intn(topo.Nodes()))
				sets = append(sets, randomMulticast(topo, rng, src, avg))
			}
		}
		for _, name := range routing.Names() {
			r, err := routing.New(name, st)
			if err != nil {
				continue // scheme does not build on this topology
			}
			for si, k := range sets {
				for ui, p := range zeroLoadUnits(r.PlanSet(k)) {
					for _, L := range []int{1, 2, 7, 128} {
						label := fmt.Sprintf("%s/%s/set%d/unit%d/L=%d", topo.Name(), name, si, ui, L)
						want := zeroLoadClosedForm(p, L)
						zeroLoadByStep(t, label, topo, p, L, want)
						zeroLoadByRun(t, label, topo, p, L, want)
					}
				}
			}
		}
	}
}

// zeroLoadUnits returns the plan whole when its worms use disjoint
// channels, and otherwise one single-worm plan per worm: worms of one
// multicast that share a channel (multi-path on a mesh can send two
// paths over the same first hops) queue behind each other, so only each
// worm alone meets an idle network.
func zeroLoadUnits(p routing.Plan) []routing.Plan {
	seen := map[dfr.Channel]bool{}
	disjoint := true
	use := func(c dfr.Channel) {
		disjoint = disjoint && !seen[c]
		seen[c] = true
	}
	for _, pr := range p.Paths {
		for i := 1; i < len(pr.Nodes); i++ {
			use(dfr.Channel{From: pr.Nodes[i-1], To: pr.Nodes[i], Class: pr.HopClass(i - 1)})
		}
	}
	for _, tr := range p.Trees {
		for _, e := range tr.Edges {
			use(e)
		}
	}
	if disjoint {
		return []routing.Plan{p}
	}
	var units []routing.Plan
	for _, pr := range p.Paths {
		units = append(units, routing.Plan{Paths: []dfr.PathRoute{pr}})
	}
	for _, tr := range p.Trees {
		units = append(units, routing.Plan{Trees: []dfr.TreeRoute{tr}})
	}
	return units
}

func zeroLoadByStep(t *testing.T, label string, topo topology.Topology, p routing.Plan, L int, want zeroLoadWant) {
	t.Helper()
	n := NewNetwork(topo)
	n.FastForward(5) // a nonzero spawn cycle
	got := map[topology.NodeID]int64{}
	n.OnDelivery(func(d topology.NodeID, c int64) { got[d] = c })
	var done int64 = -1
	n.OnComplete(func(c int64) { done = c })
	n.InjectMulticast(p.Paths, p.Trees, L)
	start := n.Cycle()
	for n.ActiveWorms() > 0 {
		if !n.Step() {
			t.Fatalf("%s: cycle %d: a lone multicast made no progress", label, n.Cycle())
		}
		if n.Cycle()-start > want.drain {
			t.Fatalf("%s: still in flight after %d cycles", label, want.drain)
		}
	}
	for d, c := range want.lat {
		if got[d] != c {
			t.Errorf("%s: destination %d delivered after %d cycles, want %d", label, d, got[d], c)
		}
	}
	if len(got) != len(want.lat) {
		t.Errorf("%s: %d deliveries, want %d", label, len(got), len(want.lat))
	}
	if done != want.done {
		t.Errorf("%s: completion after %d cycles, want %d", label, done, want.done)
	}
	if drained := n.Cycle() - start; drained != want.drain {
		t.Errorf("%s: drained after %d cycles, want %d", label, drained, want.drain)
	}
}

func zeroLoadByRun(t *testing.T, label string, topo topology.Topology, p routing.Plan, L int, want zeroLoadWant) {
	t.Helper()
	const at = 9
	sent := false
	res, err := Run(Config{
		Topology: topo,
		Route: func(core.MulticastSet) Injection {
			return Injection{Paths: p.Paths, Trees: p.Trees}
		},
		MessageBytes: L,
		Workload: func() (int64, core.MulticastSet, bool) {
			if sent {
				return 0, core.MulticastSet{}, false
			}
			sent = true
			return at, core.MulticastSet{}, true
		},
		BatchSize:  1 << 20,
		MinBatches: 1 << 30,
		Check:      true,
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	const flitUs = 1.0 / 20
	nd := len(want.lat)
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	switch {
	case res.Deadlocked || res.Delivered != nd:
		t.Errorf("%s: Run delivered %d of %d (deadlocked %v)", label, res.Delivered, nd, res.Deadlocked)
	case res.Cycles != at+want.drain:
		t.Errorf("%s: Run ended at cycle %d, want %d", label, res.Cycles, at+want.drain)
	case !near(res.AvgLatencyMicros, float64(want.sum)/float64(nd)*flitUs):
		t.Errorf("%s: Run mean latency %v us, want %v", label, res.AvgLatencyMicros, float64(want.sum)/float64(nd)*flitUs)
	case !near(res.AvgCompletionMicros, float64(want.done)*flitUs):
		t.Errorf("%s: Run completion %v us, want %v", label, res.AvgCompletionMicros, float64(want.done)*flitUs)
	}
}
