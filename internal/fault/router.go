package fault

import (
	"errors"
	"fmt"
	"sync"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// ErrPartitioned is the sentinel matched by errors.Is when a fault mask
// severs destinations from the source. Plans returned alongside it still
// cover every reachable destination and are still deadlock-free; only
// the listed unreachable destinations are undeliverable.
var ErrPartitioned = errors.New("fault: network partitioned")

// PartitionError reports the destinations a fault mask severed from the
// source. It wraps ErrPartitioned for errors.Is.
type PartitionError struct {
	Scheme      string
	Source      topology.NodeID
	Unreachable []topology.NodeID
}

// Error implements error.
func (e *PartitionError) Error() string {
	return fmt.Sprintf("fault: %s from node %d: %d destination(s) unreachable %v",
		e.Scheme, e.Source, len(e.Unreachable), e.Unreachable)
}

// Is reports ErrPartitioned identity for errors.Is.
func (e *PartitionError) Is(target error) bool { return target == ErrPartitioned }

// PlanStats describes how hard the degraded router had to work for one
// plan — the per-operation degraded-mode accounting surfaced through
// mcastsvc.
type PlanStats struct {
	// FellBack reports the original scheme failed over the masked state
	// and a fallback path scheme produced the plan.
	FellBack bool
	// Repaired reports escape-segment repair was needed for at least one
	// destination.
	Repaired bool
	// Unreachable counts destinations severed from the source.
	Unreachable int
}

// Degraded reports whether the plan needed any degraded-mode treatment.
func (s PlanStats) Degraded() bool { return s.FellBack || s.Repaired || s.Unreachable > 0 }

// Router wraps one registry scheme with degraded-mode routing over a
// fault mask. It implements routing.Router (PlanSet silently drops
// unreachable destinations; use PlanDegraded for the typed partition
// error and accounting).
//
// Plan derivation tries, in order:
//
//  1. The original scheme over the masked State (same labeling, masked
//     adjacency). Most fault patterns are absorbed here: the routing
//     function R simply steers around the dead hardware.
//  2. The masked dual-path and multi-path schemes — the path schemes
//     degrade gracefully because any label-monotone masked walk stays
//     inside the scheme's acyclic subnetworks.
//  3. Escape-segment repair: deterministic BFS legs over the masked
//     graph, split into label-monotone segments with the channel class
//     escalated at every direction reversal (see repair.go). This always
//     succeeds for reachable destinations.
//
// Every accepted plan is re-validated against the mask: channels must be
// alive and every path must keep a non-decreasing class sequence that is
// label-monotone within each equal-class run — the invariant that keeps
// the union channel dependency graph acyclic (verified in the tests via
// internal/dfr).
//
// Tree schemes keep their intact (fully alive) quadrant trees and repair
// the destinations of broken trees with escape segments starting above
// the tree's channel classes, so tree dependencies and repair
// dependencies can never form a mixed cycle.
type Router struct {
	scheme     string
	id         string
	healthy    *routing.State
	mask       *Mask
	masked     maskedView
	mstate     *routing.State
	inner      routing.Router
	fallbacks  []routing.Router
	repairBase int
	treeFamily bool
}

// maskedView is the masked-graph surface degraded routing needs: both
// the immutable topology.Masked snapshot of the static path and the
// delta-patched topology.LiveMasked of the live path satisfy it.
type maskedView interface {
	topology.Topology
	Reachable(u, v topology.NodeID) bool
}

// NewRouter builds degraded-mode routing for the named registry scheme
// over the healthy state and the given mask (nil or empty mask routes
// exactly like the plain scheme).
func NewRouter(scheme string, healthy *routing.State, mask *Mask) (*Router, error) {
	return NewRouterWithOptions(scheme, healthy, mask, routing.Options{})
}

// NewRouterWithOptions is NewRouter with registry options (e.g. the
// virtual-channel copy count).
func NewRouterWithOptions(scheme string, healthy *routing.State, mask *Mask,
	opts routing.Options) (*Router, error) {
	return newRouterWithState(scheme, healthy, mask, opts, maskedStateFor)
}

// NewRouterRebuild is NewRouterWithOptions with the masked-state memo
// bypassed: the masked topology and routing state are always recomputed
// from scratch. It exists as the full-rebuild baseline for the churn
// study and benchmarks — production callers want the memoized
// constructor (or a LiveRouter).
func NewRouterRebuild(scheme string, healthy *routing.State, mask *Mask,
	opts routing.Options) (*Router, error) {
	return newRouterWithState(scheme, healthy, mask, opts,
		func(h *routing.State, m *Mask) (*topology.Masked, *routing.State) {
			masked := m.MaskTopology()
			return masked, routing.NewStateWithLabeling(masked, h.Labeling())
		})
}

func newRouterWithState(scheme string, healthy *routing.State, mask *Mask,
	opts routing.Options,
	stateFor func(*routing.State, *Mask) (*topology.Masked, *routing.State)) (*Router, error) {
	hr, err := routing.NewWithOptions(scheme, healthy, opts)
	if err != nil {
		return nil, err
	}
	base, treeFam := repairBaseFor(scheme, opts)
	r := &Router{
		scheme:     scheme,
		id:         hr.ID(),
		healthy:    healthy,
		mask:       mask,
		repairBase: base,
		treeFamily: treeFam,
	}
	if mask == nil || mask.Empty() {
		r.mask = nil
		r.mstate = healthy
		r.inner = hr
		return r, nil
	}
	masked, mstate := stateFor(healthy, mask)
	r.masked = masked
	r.mstate = mstate
	r.id = hr.ID() + "@" + masked.Name()
	if inner, err := routing.NewWithOptions(scheme, r.mstate, opts); err == nil {
		r.inner = inner
	}
	for _, fb := range []string{"dual-path", "multi-path"} {
		if fb == scheme {
			continue
		}
		if fr, err := routing.New(fb, r.mstate); err == nil {
			r.fallbacks = append(r.fallbacks, fr)
		}
	}
	return r, nil
}

// maskedStateMemo caches (Masked, masked State) pairs across routers so
// building several scheme routers — or rebuilding one — over the same
// mask reuses the all-pairs distance table and labeling tables instead of
// recomputing them per call. Keyed by the healthy state identity plus the
// masked topology's fingerprinted name; bounded by wholesale reset.
var maskedStateMemo struct {
	sync.Mutex
	entries map[maskedStateKey]maskedStateVal
}

type maskedStateKey struct {
	healthy *routing.State
	deadSet string
}

type maskedStateVal struct {
	masked *topology.Masked
	mstate *routing.State
}

// maskedStateMemoCap bounds the memo; on overflow the map resets rather
// than tracking recency (mask churn workloads revisit few distinct masks,
// and a reset only costs rebuilds, never correctness).
const maskedStateMemoCap = 128

// maskedStateFor returns the masked topology and masked routing state
// for (healthy, mask), memoized across identical masks. The key is the
// mask's canonical dead-set encoding, computed without building the
// Masked view — the all-pairs distance table (the expensive part of
// MaskTopology) is only ever computed once per distinct mask.
func maskedStateFor(healthy *routing.State, mask *Mask) (*topology.Masked, *routing.State) {
	key := maskedStateKey{healthy: healthy, deadSet: mask.deadSetKey()}
	m := &maskedStateMemo
	m.Lock()
	if v, ok := m.entries[key]; ok {
		m.Unlock()
		return v.masked, v.mstate
	}
	m.Unlock()
	masked := mask.MaskTopology()
	mstate := routing.NewStateWithLabeling(masked, healthy.Labeling())
	m.Lock()
	if m.entries == nil || len(m.entries) >= maskedStateMemoCap {
		m.entries = make(map[maskedStateKey]maskedStateVal)
	}
	m.entries[key] = maskedStateVal{masked: masked, mstate: mstate}
	m.Unlock()
	return masked, mstate
}

// repairBaseFor returns the first channel class free for escape-segment
// repair under the named scheme — one above every class the scheme's own
// monotone paths use — and whether the scheme routes trees.
func repairBaseFor(scheme string, opts routing.Options) (base int, tree bool) {
	switch scheme {
	case "dual-path", "multi-path", "fixed-path", "adaptive-dual-path":
		return 1, false
	case "dual-path-double", "multi-path-double":
		return 2, false
	case "virtual-channel":
		v := opts.VirtualChannels
		if v == 0 {
			v = 2
		}
		return 2 * v, false
	case "tree":
		return 2, true
	case "naive-tree":
		return 1, true
	default:
		// Unknown future scheme: leave generous headroom; validation
		// still gates every plan.
		return 8, false
	}
}

// Scheme implements routing.Router.
func (r *Router) Scheme() string { return r.scheme }

// ID implements routing.Router; it includes the mask fingerprint, so
// cached plans never leak across fault epochs.
func (r *Router) ID() string { return r.id }

// State implements routing.Router: the masked state plans are derived
// over (the healthy state when the mask is empty).
func (r *Router) State() *routing.State { return r.mstate }

// Masked returns the immutable masked topology snapshot, or nil for an
// empty mask or a live (delta-driven) view.
func (r *Router) Masked() *topology.Masked {
	if mk, ok := r.masked.(*topology.Masked); ok {
		return mk
	}
	return nil
}

// Plan implements routing.Router. Unreachable destinations yield a
// PartitionError (errors.Is ErrPartitioned) alongside a plan covering
// the reachable ones.
func (r *Router) Plan(src topology.NodeID, dests []topology.NodeID) (routing.Plan, error) {
	k, err := core.NewMulticastSet(r.healthy.Topology(), src, dests)
	if err != nil {
		return routing.Plan{}, err
	}
	plan, _, err := r.PlanDegraded(k)
	return plan, err
}

// PlanSet implements routing.Router: the hot path for the simulator.
// Unreachable destinations are silently dropped from the plan; callers
// needing the typed error use PlanDegraded.
func (r *Router) PlanSet(k core.MulticastSet) routing.Plan {
	plan, _, _ := r.PlanDegraded(k)
	return plan
}

// PlanDegraded routes k around the mask. The returned plan covers every
// destination still reachable from the source; severed destinations are
// reported via a *PartitionError (matching errors.Is(err,
// ErrPartitioned)). The plan and stats are valid even when err != nil.
func (r *Router) PlanDegraded(k core.MulticastSet) (routing.Plan, PlanStats, error) {
	// Empty() re-checks dynamically for the live path: when repairs have
	// drained the mask, planning bypasses the degraded machinery entirely
	// and is byte-identical to the healthy scheme, exactly like a router
	// built with no mask.
	if r.mask == nil || (r.mask.Empty() && r.inner != nil) {
		return r.inner.PlanSet(k), PlanStats{}, nil
	}
	if r.mask.NodeDead(k.Source) {
		lost := append([]topology.NodeID(nil), k.Dests...)
		return routing.Plan{}, PlanStats{Unreachable: len(lost)},
			&PartitionError{Scheme: r.scheme, Source: k.Source, Unreachable: lost}
	}
	var live, lost []topology.NodeID
	for _, d := range k.Dests {
		if r.masked.Reachable(k.Source, d) {
			live = append(live, d)
		} else {
			lost = append(lost, d)
		}
	}
	st := PlanStats{Unreachable: len(lost)}
	var perr error
	if len(lost) > 0 {
		perr = &PartitionError{Scheme: r.scheme, Source: k.Source, Unreachable: lost}
	}
	if len(live) == 0 {
		return routing.Plan{}, st, perr
	}
	lk := core.MulticastSet{Source: k.Source, Dests: live}

	if r.treeFamily {
		plan, repaired := r.planTrees(lk)
		st.Repaired = repaired
		return plan, st, perr
	}
	if r.inner != nil {
		if plan, ok := attemptPlan(r.inner, lk); ok && r.planValid(plan, lk) {
			return plan, st, perr
		}
	}
	for _, fb := range r.fallbacks {
		if plan, ok := attemptPlan(fb, lk); ok && r.planValid(plan, lk) {
			st.FellBack = true
			return plan, st, perr
		}
	}
	st.Repaired = true
	return routing.Plan{Paths: r.repairPaths(lk, 0)}, st, perr
}

// planTrees routes a tree-family multicast: quadrant trees untouched by
// the mask are kept; destinations of broken trees are served by escape
// paths whose classes start above the tree classes, keeping the two
// dependency families disjoint.
func (r *Router) planTrees(k core.MulticastSet) (routing.Plan, bool) {
	var out routing.Plan
	var broken []topology.NodeID
	plan, ok := routing.Plan{}, false
	if r.inner != nil {
		plan, ok = attemptPlan(r.inner, k)
	}
	if !ok {
		broken = k.Dests
	} else {
		for _, tr := range plan.Trees {
			if r.treeAlive(tr) {
				out.Trees = append(out.Trees, tr)
			} else {
				broken = append(broken, tr.Dests...)
			}
		}
	}
	if len(broken) == 0 {
		return out, false
	}
	bk := core.MulticastSet{Source: k.Source, Dests: broken}
	out.Paths = r.repairPaths(bk, r.repairBase)
	return out, true
}

// treeAlive reports whether a tree route survives the mask intact:
// well-formed over the masked graph with every channel copy alive.
func (r *Router) treeAlive(tr dfr.TreeRoute) bool {
	if err := tr.Validate(r.masked, core.MulticastSet{Source: tr.Root, Dests: tr.Dests}); err != nil {
		return false
	}
	for _, e := range tr.Edges {
		if r.mask.ChannelDead(e) {
			return false
		}
	}
	return true
}

// attemptPlan runs a routing attempt, absorbing panics: the healthy
// routing kernels fail loudly when a masked graph strands them (R
// "stuck" or not converging in core.Tables.AppendRoute), which the
// degraded router treats as "this scheme cannot serve this mask".
func attemptPlan(rt routing.Router, k core.MulticastSet) (plan routing.Plan, ok bool) {
	defer func() {
		if recover() != nil {
			plan, ok = routing.Plan{}, false
		}
	}()
	return rt.PlanSet(k), true
}

// planValid gates every scheme- or fallback-produced plan: it must
// deliver k over the masked graph, use only live channel copies, and
// every path must satisfy the class-run invariant — non-decreasing
// classes, strictly label-monotone inside each equal-class run — that
// keeps the union channel dependency graph acyclic.
func (r *Router) planValid(p routing.Plan, k core.MulticastSet) bool {
	if p.Validate(r.masked, k) != nil {
		return false
	}
	for _, pr := range p.Paths {
		if !r.pathSafe(pr) {
			return false
		}
		for i := 1; i < len(pr.Nodes); i++ {
			c := dfr.Channel{From: pr.Nodes[i-1], To: pr.Nodes[i], Class: pr.HopClass(i - 1)}
			if r.mask.ChannelDead(c) {
				return false
			}
		}
	}
	for _, tr := range p.Trees {
		for _, e := range tr.Edges {
			if r.mask.ChannelDead(e) {
				return false
			}
		}
	}
	return true
}

// pathSafe checks the class-run invariant on one path: the class
// sequence never decreases, and within one class the labels move
// strictly in one direction. A masked-graph walk that lost monotonicity
// (the routing function R can wander when the Hamiltonian sub-path is
// severed) is rejected here and repaired instead.
func (r *Router) pathSafe(pr dfr.PathRoute) bool {
	prevClass := -1
	dir := 0
	for i := 0; i+1 < len(pr.Nodes); i++ {
		c := pr.HopClass(i)
		if c < prevClass {
			return false
		}
		if c != prevClass {
			dir = 0
		}
		lu := r.healthy.Label(pr.Nodes[i])
		lv := r.healthy.Label(pr.Nodes[i+1])
		d := 1
		if lv < lu {
			d = -1
		} else if lv == lu {
			return false
		}
		if dir == 0 {
			dir = d
		} else if d != dir {
			return false
		}
		prevClass = c
	}
	return true
}
