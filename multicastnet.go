// Package multicastnet is a Go implementation of the multicast
// communication system of Xiaola Lin's dissertation "Multicast
// Communication in Multicomputer Networks" (Michigan State University,
// 1991; ICPP 1990): multicast routing models for wormhole-switched
// multicomputer networks, the Chapter 5 heuristic routing algorithms, the
// Chapter 6 deadlock-free multicast wormhole routing schemes, and the
// flit-level network simulator behind the Chapter 7 performance study.
//
// The package is a facade over the implementation packages:
//
//	topology    host graphs (2D/3D mesh, hypercube, k-ary n-cube)
//	labeling    Hamiltonian-path labelings and Hamilton cycles
//	core        multicast models (path/cycle/tree/star) and routing function R
//	heuristics  sorted MP/MC, greedy ST, X-first and divided-greedy MT, baselines
//	dfr         deadlock-free dual-path/multi-path/fixed-path/tree routing, CDG checks
//	wormsim     flit-clock wormhole network simulator
//	experiments the Chapter 7 tables and figures
//
// The System type bundles a topology with its canonical labeling and
// Hamilton cycle and exposes every routing scheme with one call; see
// examples/quickstart.
package multicastnet

import (
	"fmt"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/heuristics"
	"multicastnet/internal/labeling"
	"multicastnet/internal/mcastsvc"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// Re-exported fundamental types.
type (
	// NodeID identifies a node of a topology.
	NodeID = topology.NodeID
	// Topology is the host-graph interface.
	Topology = topology.Topology
	// Mesh2D is the two-dimensional mesh.
	Mesh2D = topology.Mesh2D
	// Mesh3D is the three-dimensional mesh.
	Mesh3D = topology.Mesh3D
	// Hypercube is the binary n-cube.
	Hypercube = topology.Hypercube
	// KAryNCube is the general k-ary n-cube.
	KAryNCube = topology.KAryNCube

	// MulticastSet is a source plus destination set.
	MulticastSet = core.MulticastSet
	// Path is a multicast path (Definition 3.1).
	Path = core.Path
	// Cycle is a multicast cycle (Definition 3.2).
	Cycle = core.Cycle
	// Star is the deadlock-free multicast star route.
	Star = dfr.Star
	// TreeRoute is a tree-shaped wormhole route.
	TreeRoute = dfr.TreeRoute
	// Channel is a unidirectional network channel.
	Channel = dfr.Channel
	// STResult is a multicast tree routing pattern with traffic and
	// delivery metrics.
	STResult = heuristics.STResult

	// Service is the system-supported multicast service of Section 8.2:
	// multicast, broadcast, barrier, and reduction primitives over the
	// deadlock-free routing layer.
	Service = mcastsvc.Service
	// ServiceConfig parameterizes NewService.
	ServiceConfig = mcastsvc.Config
	// Group is a process group for the service's primitives.
	Group = mcastsvc.Group
	// Cost is the routing-level cost of one service primitive.
	Cost = mcastsvc.Cost
	// Measured is a simulator-measured primitive execution.
	Measured = mcastsvc.Measured

	// SimConfig configures a dynamic wormhole simulation.
	SimConfig = wormsim.Config
	// SimResult is the outcome of a dynamic simulation.
	SimResult = wormsim.Result
	// RouteFunc routes multicast sets for the simulator.
	RouteFunc = wormsim.RouteFunc
	// LiveRouteFunc routes with sight of live channel occupancy.
	LiveRouteFunc = wormsim.LiveRouteFunc
	// Injection is a routed multicast handed to the simulator.
	Injection = wormsim.Injection
)

// NewMesh2D returns a width x height mesh topology.
func NewMesh2D(width, height int) *Mesh2D { return topology.NewMesh2D(width, height) }

// NewMesh3D returns a 3D mesh topology.
func NewMesh3D(w, h, d int) *Mesh3D { return topology.NewMesh3D(w, h, d) }

// NewHypercube returns an n-cube topology.
func NewHypercube(n int) *Hypercube { return topology.NewHypercube(n) }

// NewKAryNCube returns a k-ary n-cube topology.
func NewKAryNCube(k, n int) *KAryNCube { return topology.NewKAryNCube(k, n) }

// NewMulticastSet validates and builds a multicast set over t.
func NewMulticastSet(t Topology, source NodeID, dests []NodeID) (MulticastSet, error) {
	return core.NewMulticastSet(t, source, dests)
}

// Simulate runs a dynamic wormhole simulation (Section 7.2).
func Simulate(cfg SimConfig) (SimResult, error) { return wormsim.Run(cfg) }

// Service scheme selectors (see mcastsvc.Scheme).
const (
	ServiceDualPath  = mcastsvc.DualPathScheme
	ServiceMultiPath = mcastsvc.MultiPathScheme
	ServiceFixedPath = mcastsvc.FixedPathScheme
)

// NewService builds the multicast service over a topology.
func NewService(cfg ServiceConfig) (*Service, error) { return mcastsvc.New(cfg) }

// System bundles a topology with its canonical Hamiltonian labeling
// (Section 6.2.2 for meshes, 6.3 for hypercubes) and Hamilton cycle
// (Section 5.1), giving one handle on every routing algorithm of the
// dissertation. Meshes and hypercubes are supported.
type System struct {
	topo   topology.Topology
	mesh   *topology.Mesh2D    // nil unless a 2D mesh
	mesh3d *topology.Mesh3D    // nil unless a 3D mesh
	cube   *topology.Hypercube // nil unless a hypercube
	label  labeling.Labeling
	tab    *core.Tables // label and adjacency tables the path schemes plan over
	ham    *labeling.HamiltonCycle
}

// NewMeshSystem builds a System over a width x height mesh. The sorted
// MP/MC algorithms need a Hamilton cycle, which exists only when at least
// one dimension is even; for odd x odd meshes the System is still usable
// for every other algorithm and SortedMP returns an error.
func NewMeshSystem(width, height int) (*System, error) {
	m := topology.NewMesh2D(width, height)
	s := withTables(&System{topo: m, mesh: m, label: labeling.NewMeshBoustrophedon(m)})
	if c, err := labeling.MeshHamiltonCycle(m); err == nil {
		s.ham = c
	}
	return s, nil
}

// NewCubeSystem builds a System over an n-cube.
func NewCubeSystem(n int) (*System, error) {
	h := topology.NewHypercube(n)
	c, err := labeling.CubeHamiltonCycle(h)
	if err != nil {
		return nil, err
	}
	return withTables(&System{topo: h, cube: h, label: labeling.NewHypercubeGray(h), ham: c}), nil
}

// NewMesh3DSystem builds a System over a 3D mesh (the Section 4.3
// extension): the path-based deadlock-free schemes and the baselines are
// available; the mesh-specific tree algorithms and the sorted MP/MC
// algorithms (which need a Hamilton cycle construction) are not.
func NewMesh3DSystem(width, height, depth int) (*System, error) {
	m := topology.NewMesh3D(width, height, depth)
	return withTables(&System{topo: m, mesh3d: m, label: labeling.NewMesh3DBoustrophedon(m)}), nil
}

// withTables flattens the system's labeling and adjacency once, so every
// path-scheme call plans over tables instead of rebuilding them.
func withTables(s *System) *System {
	s.tab = core.NewTables(s.topo, s.label)
	return s
}

// Topology returns the underlying host graph.
func (s *System) Topology() Topology { return s.topo }

// Set builds a validated multicast set.
func (s *System) Set(source NodeID, dests ...NodeID) (MulticastSet, error) {
	return core.NewMulticastSet(s.topo, source, dests)
}

// SortedMP runs the sorted multicast path algorithm (Section 5.1).
func (s *System) SortedMP(k MulticastSet) (Path, error) {
	if s.ham == nil {
		return Path{}, fmt.Errorf("multicastnet: %s has no Hamilton cycle for sorted MP", s.topo.Name())
	}
	return heuristics.SortedMP(s.topo, s.ham, k), nil
}

// SortedMC runs the sorted multicast cycle algorithm (Section 5.1).
func (s *System) SortedMC(k MulticastSet) (Cycle, error) {
	if s.ham == nil {
		return Cycle{}, fmt.Errorf("multicastnet: %s has no Hamilton cycle for sorted MC", s.topo.Name())
	}
	return heuristics.SortedMC(s.topo, s.ham, k), nil
}

// GreedyST runs the greedy Steiner tree algorithm (Section 5.2). The
// constant-time shortest-path-region primitive it needs exists on 2D
// meshes, 3D meshes, and hypercubes.
func (s *System) GreedyST(k MulticastSet) (*STResult, error) {
	switch {
	case s.mesh != nil:
		return heuristics.GreedyST(s.mesh, k), nil
	case s.cube != nil:
		return heuristics.GreedyST(s.cube, k), nil
	case s.mesh3d != nil:
		return heuristics.GreedyST(s.mesh3d, k), nil
	default:
		return nil, fmt.Errorf("multicastnet: greedy ST unsupported on %s", s.topo.Name())
	}
}

// XFirstMT runs the X-first multicast tree algorithm (mesh only).
func (s *System) XFirstMT(k MulticastSet) (*STResult, error) {
	if s.mesh == nil {
		return nil, fmt.Errorf("multicastnet: X-first MT requires a mesh")
	}
	return heuristics.XFirstMT(s.mesh, k), nil
}

// DividedGreedyMT runs the divided greedy multicast tree algorithm (mesh
// only).
func (s *System) DividedGreedyMT(k MulticastSet) (*STResult, error) {
	if s.mesh == nil {
		return nil, fmt.Errorf("multicastnet: divided greedy MT requires a mesh")
	}
	return heuristics.DividedGreedyMT(s.mesh, k), nil
}

// XYZFirstMT runs the dimension-ordered multicast tree on a 3D mesh.
func (s *System) XYZFirstMT(k MulticastSet) (*STResult, error) {
	if s.mesh3d == nil {
		return nil, fmt.Errorf("multicastnet: XYZ-first MT requires a 3D mesh")
	}
	return heuristics.XYZFirstMT(s.mesh3d, k), nil
}

// LEN runs the Lan–Esfahanian–Ni multicast tree baseline (cube only).
func (s *System) LEN(k MulticastSet) (*STResult, error) {
	if s.cube == nil {
		return nil, fmt.Errorf("multicastnet: LEN requires a hypercube")
	}
	return heuristics.LEN(s.cube, k), nil
}

// DualPath runs the deadlock-free dual-path algorithm (Section 6.2.2/6.3).
func (s *System) DualPath(k MulticastSet) Star { return dfr.DualPathOn(s.tab, k) }

// MultiPath runs the deadlock-free multi-path algorithm.
func (s *System) MultiPath(k MulticastSet) (Star, error) {
	switch {
	case s.mesh != nil:
		return dfr.MultiPathMeshOn(s.tab, s.mesh, k), nil
	case s.cube != nil:
		return dfr.MultiPathCubeOn(s.tab, k), nil
	default:
		return Star{}, fmt.Errorf("multicastnet: multi-path unsupported on %s", s.topo.Name())
	}
}

// FixedPath runs the deadlock-free fixed-path algorithm.
func (s *System) FixedPath(k MulticastSet) Star { return dfr.FixedPathOn(s.tab, k) }

// DoubleChannelXFirst runs the deadlock-free tree scheme (mesh only).
func (s *System) DoubleChannelXFirst(k MulticastSet) ([]TreeRoute, error) {
	if s.mesh == nil {
		return nil, fmt.Errorf("multicastnet: double-channel X-first requires a mesh")
	}
	return dfr.DoubleChannelXFirst(s.mesh, k), nil
}

// MultiUnicastTraffic returns the traffic of the multiple one-to-one
// baseline.
func (s *System) MultiUnicastTraffic(k MulticastSet) int {
	return heuristics.MultiUnicastTraffic(s.topo, k)
}

// DualPathRouteFunc adapts the dual-path scheme for Simulate.
func (s *System) DualPathRouteFunc() RouteFunc {
	return wormsim.DualPathScheme(s.topo, s.label)
}

// MultiPathRouteFunc adapts the multi-path scheme for Simulate.
func (s *System) MultiPathRouteFunc() (RouteFunc, error) {
	switch {
	case s.mesh != nil:
		return wormsim.MultiPathMeshScheme(s.mesh, s.label), nil
	case s.cube != nil:
		return wormsim.MultiPathCubeScheme(s.cube, s.label), nil
	default:
		return nil, fmt.Errorf("multicastnet: multi-path unsupported on %s", s.topo.Name())
	}
}

// FixedPathRouteFunc adapts the fixed-path scheme for Simulate.
func (s *System) FixedPathRouteFunc() RouteFunc {
	return wormsim.FixedPathScheme(s.topo, s.label)
}

// AdaptiveDualPathRouteFunc adapts the congestion-adaptive dual-path
// extension for Simulate: assign the result to SimConfig.LiveRoute.
func (s *System) AdaptiveDualPathRouteFunc() LiveRouteFunc {
	return wormsim.AdaptiveDualPathScheme(s.topo, s.label)
}

// TreeRouteFunc adapts the double-channel X-first tree scheme for
// Simulate (mesh only).
func (s *System) TreeRouteFunc() (RouteFunc, error) {
	if s.mesh == nil {
		return nil, fmt.Errorf("multicastnet: tree scheme requires a mesh")
	}
	return wormsim.DoubleChannelTreeScheme(s.mesh), nil
}

// VirtualChannelPath runs the Section 8.2 virtual-channel extension:
// destinations are spread over v channel copies, giving up to 2v
// label-monotone paths. v = 1 is dual-path routing.
func (s *System) VirtualChannelPath(k MulticastSet, v int) Star {
	return dfr.VirtualChannelPathOn(s.tab, k, v)
}

// VirtualChannelRouteFunc adapts the virtual-channel scheme for Simulate.
func (s *System) VirtualChannelRouteFunc(v int) RouteFunc {
	return wormsim.VirtualChannelScheme(s.topo, s.label, v)
}

// VerifyDeadlockFree builds the complete unicast channel dependency graph
// of the system's routing function and returns an error naming a channel
// cycle if one exists (it never does for the canonical labelings; the
// check is exposed so users extending the library with new labelings can
// validate them).
func (s *System) VerifyDeadlockFree() error {
	if cyc := dfr.UnicastCDG(s.topo, s.label).FindCycle(); cyc != nil {
		return fmt.Errorf("multicastnet: channel dependency cycle %v", cyc)
	}
	return nil
}
