package dfr

import (
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/labeling"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

// randomOracle marks a random subset of channels busy.
type randomOracle struct {
	rng  *stats.Rand
	prob float64
	mem  map[Channel]bool
}

func (o *randomOracle) Busy(c Channel) bool {
	if o.mem == nil {
		o.mem = make(map[Channel]bool)
	}
	if v, ok := o.mem[c]; ok {
		return v
	}
	v := o.rng.Float64() < o.prob
	o.mem[c] = v
	return v
}

// TestAdaptiveDualPathIdleEqualsDeterministic pins the degenerate case:
// with every channel free, adaptive dual-path produces exactly the
// deterministic dual-path routes.
func TestAdaptiveDualPathIdleEqualsDeterministic(t *testing.T) {
	topos := []struct {
		t topology.Topology
		l labeling.Labeling
	}{
		{topology.NewMesh2D(8, 8), labeling.NewMeshBoustrophedon(topology.NewMesh2D(8, 8))},
		{topology.NewHypercube(5), labeling.NewHypercubeGray(topology.NewHypercube(5))},
	}
	rng := stats.NewRand(7)
	for _, tc := range topos {
		for trial := 0; trial < 100; trial++ {
			k := randomSet(tc.t, rng, 1+rng.Intn(10))
			det := DualPath(tc.t, tc.l, k)
			ada := AdaptiveDualPath(tc.t, tc.l, k, IdleOracle())
			if len(det.Paths) != len(ada.Paths) {
				t.Fatalf("%s trial %d: path counts differ", tc.t.Name(), trial)
			}
			for i := range det.Paths {
				if len(det.Paths[i].Nodes) != len(ada.Paths[i].Nodes) {
					t.Fatalf("%s trial %d: path %d lengths differ", tc.t.Name(), trial, i)
				}
				for j := range det.Paths[i].Nodes {
					if det.Paths[i].Nodes[j] != ada.Paths[i].Nodes[j] {
						t.Fatalf("%s trial %d: path %d diverges at hop %d", tc.t.Name(), trial, i, j)
					}
				}
			}
		}
	}
}

// TestAdaptiveDualPathUnderCongestion checks the extension's core
// properties under random congestion: routes stay valid, stay
// label-monotone (hence deadlock-free), keep shortest legs, and the
// combined dependency graph over many adaptive routings stays acyclic.
func TestAdaptiveDualPathUnderCongestion(t *testing.T) {
	m := topology.NewMesh2D(8, 8)
	l := labeling.NewMeshBoustrophedon(m)
	rng := stats.NewRand(19)
	rec := NewDependencyRecorder()
	for trial := 0; trial < 300; trial++ {
		k := randomSet(m, rng, 1+rng.Intn(12))
		oracle := &randomOracle{rng: rng, prob: 0.4}
		s := AdaptiveDualPath(m, l, k, oracle)
		if err := s.Validate(m, k); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Per-leg shortest and whole-path monotone.
		det := DualPath(m, l, k)
		if s.Traffic() != det.Traffic() {
			t.Fatalf("trial %d: adaptive traffic %d differs from deterministic %d (legs must stay shortest)",
				trial, s.Traffic(), det.Traffic())
		}
		for _, p := range s.Paths {
			up := l.Label(p.Nodes[len(p.Nodes)-1]) > l.Label(p.Nodes[0])
			for i := 1; i < len(p.Nodes); i++ {
				a, b := l.Label(p.Nodes[i-1]), l.Label(p.Nodes[i])
				if up && a >= b || !up && a <= b {
					t.Fatalf("trial %d: adaptive path not label-monotone", trial)
				}
			}
		}
		rec.AddStar(s)
	}
	if cyc := rec.FindCycle(); cyc != nil {
		t.Errorf("adaptive dual-path CDG has cycle %v", cyc)
	}
}

// TestAdaptiveNextHopAvoidsBusy pins the adaptive choice: on a 4-cube,
// from 1100 (label 8) toward 1011 (label 13), the distance-reducing
// in-window candidates are 1110 (label 11) and 1101 (label 9); R picks
// 1110. With [1100,1110] busy the adaptive hop takes 1101, and with both
// candidates busy it falls back to R's choice (stalling there rather
// than leaving the window).
func TestAdaptiveNextHopAvoidsBusy(t *testing.T) {
	h := topology.NewHypercube(4)
	tb := core.NewTables(h, labeling.NewHypercubeGray(h))
	src, dst := topology.NodeID(0b1100), topology.NodeID(0b1011)

	det := AdaptiveNextHop(tb, src, dst, 0, IdleOracle())
	if det != 0b1110 {
		t.Fatalf("deterministic hop = %04b, expected 1110", det)
	}
	oracle := &fixedOracle{busy: map[Channel]bool{{From: src, To: 0b1110}: true}}
	if got := AdaptiveNextHop(tb, src, dst, 0, oracle); got != 0b1101 {
		t.Errorf("adaptive hop = %04b, want 1101 (the free in-window alternative)", got)
	}
	allBusy := &fixedOracle{busy: map[Channel]bool{
		{From: src, To: 0b1110}: true,
		{From: src, To: 0b1101}: true,
	}}
	if got := AdaptiveNextHop(tb, src, dst, 0, allBusy); got != det {
		t.Errorf("all-busy hop = %04b, want R's %04b", got, det)
	}
}

type fixedOracle struct{ busy map[Channel]bool }

func (o *fixedOracle) Busy(c Channel) bool { return o.busy[c] }
