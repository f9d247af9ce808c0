package routing

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/topology"
)

// cacheShards is the shard count of every PlanCache: a power of two so
// shard selection is a mask, large enough that parallel sweeps rarely
// contend on one mutex.
const cacheShards = 16

// PlanCache is a bounded, sharded, concurrency-safe cache of routed
// plans. Keys combine the router identity with the canonicalized
// multicast set (source plus sorted destinations), so routers for
// different schemes — or the same scheme with different options — can
// share one cache without collisions. Each shard evicts in FIFO order
// once full, bounding memory under adversarial key streams.
//
// A fault delta evicts exactly the plans that traverse dead hardware
// (Invalidate tests each entry's stored plan, route or CSR form, against
// the killed links) instead of nuking the whole cache; entries for
// unaffected traffic — and their ~25x cached speedup — survive the epoch
// change.
//
// Cached plans are shared: callers must treat them as immutable.
type PlanCache struct {
	shards        [cacheShards]cacheShard
	perShard      int
	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
}

// CacheStats is the cumulative counter snapshot of a PlanCache.
type CacheStats struct {
	// Hits and Misses count lookups.
	Hits, Misses uint64
	// Evictions counts entries dropped by the FIFO capacity bound.
	Evictions uint64
	// Invalidations counts entries evicted by Invalidate/InvalidateAll —
	// plans whose channels a fault delta killed (or, for InvalidateAll,
	// the nuke-everything baseline).
	Invalidations uint64
}

// HitRate returns Hits / (Hits + Misses), or 1 with no lookups.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// cacheEntry is one cached plan in the representation its key encodes:
// route form (plan) or dense CSR form (flat). Exactly one of plan/flat is
// set.
type cacheEntry struct {
	plan Plan
	flat *FlatPlan
	// aux is an opaque caller word stored with the entry (see PutPlanAux)
	// — e.g. the fault router's per-plan degraded accounting, so a cache
	// hit reproduces the accounting of the original planning byte for
	// byte.
	aux uint64
	// seq is the shard insertion sequence number the entry was put
	// under; it matches exactly one FIFO slot, the entry's own.
	seq uint64
}

// touchesAny reports whether the entry's plan traverses any of the given
// directed links (ChannelPair values, sorted ascending). The links are
// folded from the stored plan on demand, so caching a plan costs nothing
// extra and both representations are matched alike.
func (e *cacheEntry) touchesAny(killed []uint64) bool {
	dead := func(from, to topology.NodeID) bool {
		_, found := slices.BinarySearch(killed, ChannelPair(from, to))
		return found
	}
	if f := e.flat; f != nil {
		for p := 0; p < f.Paths(); p++ {
			row := f.PathNodes[f.PathOff[p]:f.PathOff[p+1]]
			for i := 1; i < len(row); i++ {
				if dead(topology.NodeID(row[i-1]), topology.NodeID(row[i])) {
					return true
				}
			}
		}
		for i := range f.TreeFrom {
			if dead(topology.NodeID(f.TreeFrom[i]), topology.NodeID(f.TreeTo[i])) {
				return true
			}
		}
		return false
	}
	for _, pr := range e.plan.Paths {
		for i := 1; i < len(pr.Nodes); i++ {
			if dead(pr.Nodes[i-1], pr.Nodes[i]) {
				return true
			}
		}
	}
	for _, tr := range e.plan.Trees {
		for _, ed := range tr.Edges {
			if dead(ed.From, ed.To) {
				return true
			}
		}
	}
	return false
}

type cacheShard struct {
	mu    sync.Mutex
	plans map[string]cacheEntry
	// fifo is the insertion order, for eviction. Invalidate deletes
	// entries without rewriting it, so a slot is live only while its seq
	// matches the entry under its key: a key invalidated and put again
	// leaves a stale first slot that must not evict the fresh entry.
	fifo []fifoSlot
	seq  uint64 // last insertion sequence number handed out
}

// fifoSlot is one FIFO position: a key and the sequence number of the
// insertion that created it.
type fifoSlot struct {
	key string
	seq uint64
}

// live reports whether slot is the FIFO position of its key's current
// entry.
func (s *cacheShard) live(slot fifoSlot) bool {
	e, ok := s.plans[slot.key]
	return ok && e.seq == slot.seq
}

// compact drops stale FIFO slots once they outnumber live ones, so
// invalidation churn cannot grow the FIFO without bound.
func (s *cacheShard) compact() {
	if len(s.fifo) <= 2*len(s.plans) {
		return
	}
	kept := s.fifo[:0]
	for _, slot := range s.fifo {
		if s.live(slot) {
			kept = append(kept, slot)
		}
	}
	clear(s.fifo[len(kept):])
	s.fifo = kept
}

// Plan representation tags, appended to every cache key so a cache
// populated with one representation never serves the other shape: a
// pre-flattening consumer asking for the route form must not receive a
// CSR entry, and vice versa.
const (
	reprPlan byte = 'p'
	reprFlat byte = 'f'
)

// NewPlanCache returns a cache holding at most capacity plans (rounded
// up to a multiple of the shard count). capacity <= 0 selects a default
// of 4096.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = 4096
	}
	perShard := (capacity + cacheShards - 1) / cacheShards
	c := &PlanCache{perShard: perShard}
	for i := range c.shards {
		c.shards[i].plans = make(map[string]cacheEntry)
	}
	return c
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.plans)
		s.mu.Unlock()
	}
	return total
}

// Stats returns the cumulative counter snapshot.
func (c *PlanCache) Stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// ChannelPair encodes the directed link from -> to as the uint64 key
// Invalidate matches plans against. Channel classes are deliberately folded
// away: a link fault kills every class of both directions and a node
// fault every incident link, so matching on the directed link is exact
// for them; for a single virtual-channel fault it over-invalidates the
// other classes of that direction — conservative, never unsafe.
func ChannelPair(from, to topology.NodeID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// Invalidate evicts every cached plan that traverses any of the given
// directed links (as ChannelPair values, any order) and returns the
// number evicted. This is the targeted eviction a fault delta triggers:
// plans over surviving hardware keep their entries. Repairs need no
// invalidation at all — a plan that avoided a link stays valid when the
// link returns — so delta consumers call this only with killed channels.
func (c *PlanCache) Invalidate(pairs []uint64) int {
	if len(pairs) == 0 {
		return 0
	}
	sorted := slices.Clone(pairs)
	slices.Sort(sorted)
	evicted := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, e := range s.plans {
			if e.touchesAny(sorted) {
				delete(s.plans, key)
				evicted++
			}
		}
		s.compact()
		s.mu.Unlock()
	}
	c.invalidations.Add(uint64(evicted))
	return evicted
}

// InvalidateAll evicts every cached plan and returns the number evicted —
// the nuke-everything baseline targeted invalidation is measured against.
func (c *PlanCache) InvalidateAll() int {
	evicted := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		evicted += len(s.plans)
		s.plans = make(map[string]cacheEntry)
		s.fifo = nil
		s.mu.Unlock()
	}
	c.invalidations.Add(uint64(evicted))
	return evicted
}

// shardFor selects a shard by FNV-1a over the key.
func (c *PlanCache) shardFor(key string) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h&(cacheShards-1)]
}

// shardForBytes is shardFor over a byte-buffer key (same FNV-1a).
func (c *PlanCache) shardForBytes(key []byte) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h&(cacheShards-1)]
}

// getBytes is get for a key held in a reusable byte buffer. The map
// access converts the buffer without allocating (the compiler's
// map[string(b)] special case), so a cache hit on the scheduling hot
// path costs no allocation.
func (c *PlanCache) getBytes(key []byte) (cacheEntry, bool) {
	s := c.shardForBytes(key)
	s.mu.Lock()
	e, ok := s.plans[string(key)]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

func (c *PlanCache) get(key string) (cacheEntry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.plans[key]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

func (c *PlanCache) put(key string, e cacheEntry) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.plans[key]; dup {
		// A concurrent planner beat us to it; the plans are identical
		// (deterministic routing), keep the incumbent.
		return
	}
	for len(s.plans) >= c.perShard {
		oldest := s.fifo[0]
		s.fifo = s.fifo[1:]
		if s.live(oldest) {
			delete(s.plans, oldest.key)
			c.evictions.Add(1)
		}
	}
	s.seq++
	e.seq = s.seq
	s.plans[key] = e
	s.fifo = append(s.fifo, fifoSlot{key: key, seq: s.seq})
}

// planKey canonicalizes a multicast set into a cache key: the plan
// representation tag, the router identity, the source, and the
// destinations in sorted order, all varint-encoded (appendPlanKeySorted).
// Destination order never changes a scheme's routes (every scheme
// re-sorts by label), so sets that differ only in listing order share one
// entry. The representation tag keeps route-form and CSR entries for the
// same (router, set) distinct. Sorted destinations are encoded in place;
// unsorted ones through a sorted copy.
func planKey(id string, k core.MulticastSet, repr byte) string {
	if !destsSorted(k.Dests) {
		k.Dests = slices.Clone(k.Dests)
		slices.Sort(k.Dests)
	}
	var buf [128]byte
	return string(appendPlanKeySorted(buf[:0], id, k, repr))
}

// appendPlanKeySorted appends the cache key of (repr, id, k) to dst and
// returns the grown buffer. It requires k.Dests already sorted ascending;
// it is the one key encoder, so entries built through planKey or a
// reused buffer share one cache slot. It copies and sorts nothing: with a
// reused buffer the key build is allocation-free.
func appendPlanKeySorted(dst []byte, id string, k core.MulticastSet, repr byte) []byte {
	dst = append(dst, repr)
	dst = append(dst, id...)
	dst = append(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(k.Source))
	for _, d := range k.Dests {
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	return dst
}

// destsSorted reports whether dests is sorted ascending — the
// precondition of appendPlanKeySorted.
func destsSorted(dests []topology.NodeID) bool {
	for i := 1; i < len(dests); i++ {
		if dests[i-1] > dests[i] {
			return false
		}
	}
	return true
}

// GetPlan looks up the route-form plan cached under (id, k). It is the
// exported lookup for callers that manage caching themselves — the
// degraded-mode fault router caches only fully-served plans, a policy the
// generic Cached wrapper cannot express.
func (c *PlanCache) GetPlan(id string, k core.MulticastSet) (Plan, bool) {
	p, _, ok := c.GetPlanAux(id, k)
	return p, ok
}

// PutPlan caches a route-form plan under (id, k).
func (c *PlanCache) PutPlan(id string, k core.MulticastSet, p Plan) {
	c.PutPlanAux(id, k, p, 0)
}

// GetPlanAux is GetPlan returning the opaque aux word stored with the
// entry (0 when none was recorded).
func (c *PlanCache) GetPlanAux(id string, k core.MulticastSet) (Plan, uint64, bool) {
	e, ok := c.get(planKey(id, k, reprPlan))
	if !ok {
		return Plan{}, 0, false
	}
	return e.plan, e.aux, true
}

// PutPlanAux is PutPlan with an opaque aux word stored alongside the
// plan — the degraded fault router records each plan's accounting flags
// here, so a later cache hit reports the same stats the original
// planning did.
func (c *PlanCache) PutPlanAux(id string, k core.MulticastSet, p Plan, aux uint64) {
	c.put(planKey(id, k, reprPlan), cacheEntry{plan: p, aux: aux})
}

// cachedRouter memoizes PlanSet through a PlanCache.
type cachedRouter struct {
	Router
	cache *PlanCache
}

// PlanSet implements Router, consulting the cache first.
func (r *cachedRouter) PlanSet(k core.MulticastSet) Plan {
	key := planKey(r.Router.ID(), k, reprPlan)
	if e, ok := r.cache.get(key); ok {
		return e.plan
	}
	p := r.Router.PlanSet(k)
	r.cache.put(key, cacheEntry{plan: p})
	return p
}

// Plan implements Router through the cached PlanSet.
func (r *cachedRouter) Plan(src topology.NodeID, dests []topology.NodeID) (Plan, error) {
	k, err := core.NewMulticastSet(r.State().Topology(), src, dests)
	if err != nil {
		return Plan{}, err
	}
	return r.PlanSet(k), nil
}

// cachedLiveRouter is cachedRouter for adaptive schemes: deterministic
// plans are cached, live (oracle-dependent) plans never are.
type cachedLiveRouter struct {
	cachedRouter
	live LiveRouter
}

// PlanLive implements LiveRouter, bypassing the cache.
func (r *cachedLiveRouter) PlanLive(k core.MulticastSet, oracle dfr.ChannelOracle) Plan {
	return r.live.PlanLive(k, oracle)
}

// Cached wraps a router with a plan cache. Multiple routers — of any
// scheme — may share one cache; keys are namespaced by router identity.
// Live (adaptive) plans are never cached: wrapping a LiveRouter returns
// a LiveRouter whose PlanLive passes straight through.
func Cached(r Router, c *PlanCache) Router {
	if lr, ok := r.(LiveRouter); ok {
		return &cachedLiveRouter{cachedRouter: cachedRouter{Router: r, cache: c}, live: lr}
	}
	return &cachedRouter{Router: r, cache: c}
}
