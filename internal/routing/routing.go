// Package routing is the unified routing-engine layer of the repository:
// a single seam between the Chapter 5/6 route-construction algorithms and
// every consumer that needs routes — the wormhole simulator, the multicast
// service, the experiment figures, and the CLIs.
//
// The engine has three parts:
//
//   - State: immutable per-topology precomputed routing state (the
//     Hamiltonian labeling as dense label/position tables plus adjacency
//     lists), constructed once and safely shared across goroutines.
//   - A named scheme registry (Register / Lookup / Names) covering the
//     deadlock-free schemes of Chapter 6 and the Section 8.2 extensions;
//     each scheme builds a Router over a State.
//   - A bounded, sharded, concurrency-safe plan cache (PlanCache, Cached)
//     keyed on the router identity and the canonicalized multicast set,
//     so parallel sweeps and the multicast service stop re-deriving
//     identical routes.
//
// Concurrency contract: State and Router are immutable after construction
// and safe for unlimited concurrent use. Plans returned by Plan/PlanSet
// are shared (possibly cache-resident) values; callers must treat every
// slice reachable from a Plan as read-only.
package routing

import (
	"fmt"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// Plan is one routed multicast: any mix of path routes and tree routes.
// It is the unit the plan cache stores and the simulator injects.
type Plan struct {
	Paths []dfr.PathRoute
	Trees []dfr.TreeRoute
}

// Traffic returns the total number of channel transmissions.
func (p Plan) Traffic() int {
	total := 0
	for _, pr := range p.Paths {
		total += len(pr.Nodes) - 1
	}
	for _, tr := range p.Trees {
		total += tr.Traffic()
	}
	return total
}

// MaxDistance returns the worst source-to-destination hop count.
func (p Plan) MaxDistance() int {
	maxd := dfr.Star{Paths: p.Paths}.MaxDistance()
	for _, tr := range p.Trees {
		if d := tr.MaxDistance(); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// Messages returns the number of wormhole messages the plan injects.
func (p Plan) Messages() int { return len(p.Paths) + len(p.Trees) }

// Validate checks that the plan delivers every destination of k exactly
// once over channels of t.
func (p Plan) Validate(t topology.Topology, k core.MulticastSet) error {
	delivered := make(map[topology.NodeID]int)
	for i, pr := range p.Paths {
		if len(pr.Nodes) == 0 || pr.Nodes[0] != k.Source {
			return fmt.Errorf("routing: path %d does not start at source", i)
		}
		for j := 1; j < len(pr.Nodes); j++ {
			if !t.Adjacent(pr.Nodes[j-1], pr.Nodes[j]) {
				return fmt.Errorf("routing: path %d uses non-edge (%d,%d)",
					i, pr.Nodes[j-1], pr.Nodes[j])
			}
		}
		onPath := make(map[topology.NodeID]bool, len(pr.Nodes))
		for _, n := range pr.Nodes {
			onPath[n] = true
		}
		for _, d := range pr.Dests {
			if !onPath[d] {
				return fmt.Errorf("routing: path %d does not visit destination %d", i, d)
			}
			delivered[d]++
		}
	}
	for i, tr := range p.Trees {
		if err := tr.Validate(t, core.MulticastSet{Source: k.Source, Dests: tr.Dests}); err != nil {
			return fmt.Errorf("routing: tree %d: %w", i, err)
		}
		for _, d := range tr.Dests {
			delivered[d]++
		}
	}
	for _, d := range k.Dests {
		if delivered[d] != 1 {
			return fmt.Errorf("routing: destination %d delivered %d times", d, delivered[d])
		}
	}
	return nil
}

// Router plans multicast routes for one scheme over one State. Routers
// are immutable and safe for concurrent use.
type Router interface {
	// Scheme returns the registry name the router was built from.
	Scheme() string
	// ID returns the router's full identity — the scheme name plus any
	// option that changes its routes (e.g. the virtual-channel copy
	// count). Equal IDs over equal states produce equal plans; the plan
	// cache namespaces its keys by ID.
	ID() string
	// State returns the precomputed topology state the router plans over.
	State() *State
	// Plan validates (source, dests) as a multicast set and routes it.
	Plan(src topology.NodeID, dests []topology.NodeID) (Plan, error)
	// PlanSet routes an already-validated multicast set. It is the hot
	// path used by the simulator adapters and the plan cache.
	PlanSet(k core.MulticastSet) Plan
}

// LiveRouter is a Router that can additionally route with sight of live
// network state (the Section 8.2 adaptive extension). PlanLive results
// depend on the oracle and must never be cached.
type LiveRouter interface {
	Router
	// PlanLive routes k, preferring channels the oracle reports free.
	PlanLive(k core.MulticastSet, oracle dfr.ChannelOracle) Plan
}

// State is the immutable precomputed routing state of one topology: the
// Hamiltonian labeling flattened into dense label and position tables,
// plus per-node adjacency rows (core.Tables). Every path scheme plans
// over these tables, so a plan reads labels and neighbors by index.
// Construct it once per topology (or use SharedState) and share it
// freely across goroutines.
type State struct {
	tab *core.Tables
}

// NewState precomputes routing state for t under its canonical
// Hamiltonian labeling (core.LabelingFor). It errors on topologies with
// no known Hamiltonian labeling.
func NewState(t topology.Topology) (*State, error) {
	l, err := core.LabelingFor(t)
	if err != nil {
		return nil, err
	}
	return NewStateWithLabeling(t, l), nil
}

// NewStateWithLabeling precomputes routing state for t under an explicit
// labeling (e.g. the ablation labelings of Fig. 6.10). The labeling is
// flattened into tables, so an expensive Label implementation is paid
// once per topology, not once per hop.
func NewStateWithLabeling(t topology.Topology, l labeling.Labeling) *State {
	return &State{tab: core.NewTables(t, l)}
}

// Topology returns the topology the state was built over.
func (s *State) Topology() topology.Topology { return s.tab.Topology() }

// Tables returns the dense routing tables the schemes plan over.
func (s *State) Tables() *core.Tables { return s.tab }

// Labeling returns the precomputed (table-backed) Hamiltonian labeling.
func (s *State) Labeling() labeling.Labeling { return s.tab }

// Label returns the Hamiltonian-path position of v.
func (s *State) Label(v topology.NodeID) int { return s.tab.Label(v) }

// At returns the node at the given Hamiltonian-path position.
func (s *State) At(label int) topology.NodeID { return s.tab.At(label) }

// Neighbors returns the precomputed adjacency list of v. Callers must
// not modify the returned slice.
func (s *State) Neighbors(v topology.NodeID) []topology.NodeID { return s.tab.Neighbors(v) }
