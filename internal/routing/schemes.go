package routing

import (
	"fmt"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/topology"
)

// This file registers the Chapter 6 deadlock-free schemes and the
// Section 8.2 extensions. Every builder captures the precomputed State,
// and every path scheme plans over its core.Tables, so per-plan work is
// pure route construction over dense label and adjacency tables.

// router is the common Router implementation: a name, an identity, the
// state, and a plan function. live is non-nil for adaptive schemes.
type router struct {
	scheme string
	id     string
	st     *State
	plan   func(k core.MulticastSet) Plan
	live   func(k core.MulticastSet, oracle dfr.ChannelOracle) Plan
}

// Scheme implements Router.
func (r *router) Scheme() string { return r.scheme }

// ID implements Router.
func (r *router) ID() string { return r.id }

// State implements Router.
func (r *router) State() *State { return r.st }

// Plan implements Router.
func (r *router) Plan(src topology.NodeID, dests []topology.NodeID) (Plan, error) {
	k, err := core.NewMulticastSet(r.st.Topology(), src, dests)
	if err != nil {
		return Plan{}, err
	}
	return r.plan(k), nil
}

// PlanSet implements Router.
func (r *router) PlanSet(k core.MulticastSet) Plan { return r.plan(k) }

// liveRouter adds PlanLive; only adaptive schemes build it.
type liveRouter struct {
	router
}

// PlanLive implements LiveRouter.
func (r *liveRouter) PlanLive(k core.MulticastSet, oracle dfr.ChannelOracle) Plan {
	return r.live(k, oracle)
}

// classifyDouble assigns double-channel classes to the paths of a star
// for the Fig. 7.8 comparison: traffic is spread across the two channel
// copies by source parity, halving contention per copy. Every copy
// network carries only label-monotone paths, so each remains acyclic and
// the assignment preserves deadlock freedom. The star is freshly planned,
// so its paths are classed in place.
func classifyDouble(s dfr.Star) []dfr.PathRoute {
	for i := range s.Paths {
		s.Paths[i].Class = (int(s.Source) + i) % 2
	}
	return s.Paths
}

func init() {
	MustRegister(Info{
		Name:         "dual-path",
		Description:  "dual-path routing: at most two label-monotone paths (Section 6.2.2)",
		DeadlockFree: true,
		Build: func(s *State, _ Options) (Router, error) {
			return &router{scheme: "dual-path", id: "dual-path", st: s,
				plan: func(k core.MulticastSet) Plan {
					return Plan{Paths: dfr.DualPathOn(s.tab, k).Paths}
				}}, nil
		},
	})
	MustRegister(Info{
		Name:         "dual-path-double",
		Description:  "dual-path on the double-channel network (Fig. 7.8 comparison)",
		DeadlockFree: true,
		Build: func(s *State, _ Options) (Router, error) {
			return &router{scheme: "dual-path-double", id: "dual-path-double", st: s,
				plan: func(k core.MulticastSet) Plan {
					return Plan{Paths: classifyDouble(dfr.DualPathOn(s.tab, k))}
				}}, nil
		},
	})
	MustRegister(Info{
		Name:         "multi-path",
		Description:  "multi-path routing: up to degree-many label-monotone paths (Figs. 6.14, 6.20)",
		DeadlockFree: true,
		Build: func(s *State, _ Options) (Router, error) {
			star, err := multiPathFn(s)
			if err != nil {
				return nil, err
			}
			return &router{scheme: "multi-path", id: "multi-path", st: s,
				plan: func(k core.MulticastSet) Plan {
					return Plan{Paths: star(k).Paths}
				}}, nil
		},
	})
	MustRegister(Info{
		Name:         "multi-path-double",
		Description:  "multi-path on the double-channel network (Fig. 7.8 comparison)",
		DeadlockFree: true,
		Build: func(s *State, _ Options) (Router, error) {
			star, err := multiPathFn(s)
			if err != nil {
				return nil, err
			}
			return &router{scheme: "multi-path-double", id: "multi-path-double", st: s,
				plan: func(k core.MulticastSet) Plan {
					return Plan{Paths: classifyDouble(star(k))}
				}}, nil
		},
	})
	MustRegister(Info{
		Name:         "fixed-path",
		Description:  "fixed-path routing along the Hamiltonian path (Section 6.2.2)",
		DeadlockFree: true,
		Build: func(s *State, _ Options) (Router, error) {
			return &router{scheme: "fixed-path", id: "fixed-path", st: s,
				plan: func(k core.MulticastSet) Plan {
					return Plan{Paths: dfr.FixedPathOn(s.tab, k).Paths}
				}}, nil
		},
	})
	MustRegister(Info{
		Name:         "tree",
		Description:  "double-channel X-first multicast tree (Section 6.2.1, 2D mesh)",
		DeadlockFree: true,
		Build: func(s *State, _ Options) (Router, error) {
			m, ok := meshOf(s.Topology())
			if !ok {
				return nil, fmt.Errorf("routing: tree scheme needs a 2D mesh, got %s", s.Topology().Name())
			}
			return &router{scheme: "tree", id: "tree", st: s,
				plan: func(k core.MulticastSet) Plan {
					return Plan{Trees: dfr.DoubleChannelXFirst(m, k)}
				}}, nil
		},
	})
	MustRegister(Info{
		Name:         "naive-tree",
		Description:  "single-channel X-first tree — deadlock-PRONE (Section 6.1 demonstration)",
		DeadlockFree: false,
		Build: func(s *State, _ Options) (Router, error) {
			m, ok := meshOf(s.Topology())
			if !ok {
				return nil, fmt.Errorf("routing: naive-tree scheme needs a 2D mesh, got %s", s.Topology().Name())
			}
			return &router{scheme: "naive-tree", id: "naive-tree", st: s,
				plan: func(k core.MulticastSet) Plan {
					return Plan{Trees: dfr.XFirstTrees(m, k)}
				}}, nil
		},
	})
	MustRegister(Info{
		Name:         "adaptive-dual-path",
		Description:  "congestion-adaptive dual-path routing (Section 8.2 extension)",
		DeadlockFree: true,
		Build: func(s *State, _ Options) (Router, error) {
			live := func(k core.MulticastSet, oracle dfr.ChannelOracle) Plan {
				return Plan{Paths: dfr.AdaptiveDualPathOn(s.tab, k, oracle).Paths}
			}
			return &liveRouter{router{scheme: "adaptive-dual-path", id: "adaptive-dual-path", st: s,
				plan: func(k core.MulticastSet) Plan {
					return live(k, dfr.IdleOracle())
				},
				live: live}}, nil
		},
	})
	MustRegister(Info{
		Name:         "virtual-channel",
		Description:  "virtual-channel network partitioning into 2v monotone subnetworks (Section 8.2)",
		DeadlockFree: true,
		Build: func(s *State, opts Options) (Router, error) {
			v := opts.VirtualChannels
			if v == 0 {
				v = 2
			}
			if v < 1 {
				return nil, fmt.Errorf("routing: virtual-channel needs v >= 1, got %d", v)
			}
			return &router{scheme: "virtual-channel",
				id: fmt.Sprintf("virtual-channel?v=%d", v), st: s,
				plan: func(k core.MulticastSet) Plan {
					return Plan{Paths: dfr.VirtualChannelPathOn(s.tab, k, v).Paths}
				}}, nil
		},
	})
}

// multiPathFn dispatches the multi-path algorithm by topology. Masked
// views are routed over the mask but split by the underlying geometry.
func multiPathFn(s *State) (func(k core.MulticastSet) dfr.Star, error) {
	if m, ok := meshOf(s.Topology()); ok {
		return func(k core.MulticastSet) dfr.Star {
			return dfr.MultiPathMeshOn(s.tab, m, k)
		}, nil
	}
	if _, ok := cubeOf(s.Topology()); ok {
		return func(k core.MulticastSet) dfr.Star {
			return dfr.MultiPathCubeOn(s.tab, k)
		}, nil
	}
	return nil, fmt.Errorf("routing: multi-path needs a 2D mesh or hypercube, got %s", s.Topology().Name())
}

// meshOf unwraps the 2D mesh beneath t, looking through a Masked view,
// so geometry-dependent schemes stay buildable over faulty meshes (the
// degraded router validates and repairs their blind spots).
func meshOf(t topology.Topology) (*topology.Mesh2D, bool) {
	m, ok := baseOf(t).(*topology.Mesh2D)
	return m, ok
}

// cubeOf unwraps the hypercube beneath t, looking through a Masked view.
func cubeOf(t topology.Topology) (*topology.Hypercube, bool) {
	h, ok := baseOf(t).(*topology.Hypercube)
	return h, ok
}

// baseOf looks through masked views — immutable Masked and incremental
// LiveMasked alike — to the underlying healthy topology.
func baseOf(t topology.Topology) topology.Topology {
	switch v := t.(type) {
	case *topology.Masked:
		return v.Base()
	case *topology.LiveMasked:
		return v.Base()
	}
	return t
}
