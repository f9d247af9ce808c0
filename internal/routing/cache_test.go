package routing

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/dfr"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

func testRouter(t *testing.T, name string) (Router, *State, topology.Topology) {
	t.Helper()
	m := topology.NewMesh2D(6, 6)
	st, err := NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(name, st)
	if err != nil {
		t.Fatal(err)
	}
	return r, st, m
}

func TestCacheHitsAndEquality(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	c := NewPlanCache(64)
	cr := Cached(r, c)
	k := core.MustMulticastSet(m, 3, []topology.NodeID{10, 20, 30})
	first := cr.PlanSet(k)
	second := cr.PlanSet(k)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("Stats() = (%d hits, %d misses), want (1, 1)", st.Hits, st.Misses)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached plan differs from computed plan")
	}
	if !reflect.DeepEqual(first, r.PlanSet(k)) {
		t.Fatal("cached plan differs from the uncached router's plan")
	}
	if c.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", c.Len())
	}
}

func TestCacheCanonicalizesDestOrder(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	c := NewPlanCache(64)
	cr := Cached(r, c)
	a := core.MustMulticastSet(m, 3, []topology.NodeID{10, 20, 30})
	b := core.MustMulticastSet(m, 3, []topology.NodeID{30, 10, 20})
	cr.PlanSet(a)
	cr.PlanSet(b)
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("reordered destinations missed the cache (hits = %d)", st.Hits)
	}
}

func TestCacheNamespacesByRouterID(t *testing.T) {
	m := topology.NewMesh2D(6, 6)
	st, err := NewState(m)
	if err != nil {
		t.Fatal(err)
	}
	c := NewPlanCache(64)
	dual, _ := New("dual-path", st)
	fixed, _ := New("fixed-path", st)
	k := core.MustMulticastSet(m, 3, []topology.NodeID{10, 20, 30})
	p1 := Cached(dual, c).PlanSet(k)
	p2 := Cached(fixed, c).PlanSet(k)
	if reflect.DeepEqual(p1, p2) {
		t.Fatal("dual-path and fixed-path returned identical plans — ID namespacing untestable")
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("expected 2 misses for 2 schemes, got %d", st.Misses)
	}
	if !reflect.DeepEqual(Cached(fixed, c).PlanSet(k), p2) {
		t.Fatal("fixed-path plan corrupted by dual-path entry")
	}
}

func TestCacheBounded(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	capacity := 32
	c := NewPlanCache(capacity)
	cr := Cached(r, c)
	rng := stats.NewRand(11)
	for i := 0; i < 500; i++ {
		cr.PlanSet(randomSet(m, rng, 1+rng.Intn(8)))
	}
	if c.Len() > capacity {
		t.Fatalf("cache grew to %d entries, capacity %d", c.Len(), capacity)
	}
}

func TestCacheDefaultCapacity(t *testing.T) {
	c := NewPlanCache(0)
	if c.perShard*cacheShards < 4096 {
		t.Fatalf("default capacity %d < 4096", c.perShard*cacheShards)
	}
}

func TestCachedPlanValidatesSet(t *testing.T) {
	r, _, _ := testRouter(t, "dual-path")
	cr := Cached(r, NewPlanCache(8))
	if _, err := cr.Plan(0, []topology.NodeID{0}); err == nil {
		t.Error("cached Plan accepted the source as a destination")
	}
	if _, err := cr.Plan(0, []topology.NodeID{4, 8}); err != nil {
		t.Error(err)
	}
}

func TestCachedLiveRouterBypassesCache(t *testing.T) {
	r, _, m := testRouter(t, "adaptive-dual-path")
	c := NewPlanCache(64)
	cr := Cached(r, c)
	lr, ok := cr.(LiveRouter)
	if !ok {
		t.Fatal("Cached dropped the LiveRouter interface")
	}
	k := core.MustMulticastSet(m, 3, []topology.NodeID{10, 20, 30})
	lr.PlanLive(k, dfr.IdleOracle())
	lr.PlanLive(k, dfr.IdleOracle())
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("PlanLive touched the cache: (%d hits, %d misses)", st.Hits, st.Misses)
	}
	cr.PlanSet(k)
	cr.PlanSet(k)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("deterministic PlanSet not cached: (%d hits, %d misses)", st.Hits, st.Misses)
	}
}

func TestCachedRouterNotLiveForDeterministicSchemes(t *testing.T) {
	r, _, _ := testRouter(t, "dual-path")
	if _, ok := Cached(r, NewPlanCache(8)).(LiveRouter); ok {
		t.Fatal("Cached invented a LiveRouter from a deterministic scheme")
	}
}

func TestCacheConcurrent(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	c := NewPlanCache(128)
	cr := Cached(r, c)
	sets := make([]core.MulticastSet, 64)
	rng := stats.NewRand(23)
	for i := range sets {
		sets[i] = randomSet(m, rng, 1+rng.Intn(8))
	}
	want := make([]Plan, len(sets))
	for i, k := range sets {
		want[i] = r.PlanSet(k)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				idx := (g*31 + i) % len(sets)
				got := cr.PlanSet(sets[idx])
				if !reflect.DeepEqual(got, want[idx]) {
					t.Errorf("concurrent plan %d diverged", idx)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 {
		t.Error("concurrent workload produced no cache hits")
	}
	if st.Hits+st.Misses != 8*200 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}

// TestPlanCacheStatsConcurrent hammers one cache from three directions at
// once — planners, targeted (and full) invalidation, and Stats readers —
// and checks that every Stats snapshot is consistent: counters only grow,
// and after the dust settles hits+misses equals exactly the number of
// lookups issued. Run under -race this also proves the snapshot path
// takes no lock the mutators miss.
func TestPlanCacheStatsConcurrent(t *testing.T) {
	r, _, m := testRouter(t, "dual-path")
	c := NewPlanCache(128)
	cr := Cached(r, c)
	sets := make([]core.MulticastSet, 64)
	rng := stats.NewRand(41)
	for i := range sets {
		sets[i] = randomSet(m, rng, 1+rng.Intn(8))
	}

	const planners, iters = 6, 500
	var done atomic.Bool
	var wg, aux sync.WaitGroup
	for g := 0; g < planners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cr.PlanSet(sets[(g*17+i)%len(sets)])
			}
		}(g)
	}
	aux.Add(1)
	go func() { // invalidator: the fault-delta path racing the planners
		defer aux.Done()
		irng := stats.NewRand(7)
		for i := 0; !done.Load(); i++ {
			if i%8 == 7 {
				c.InvalidateAll()
				continue
			}
			pairs := make([]uint64, 0, 4)
			for j := 0; j < 4; j++ {
				u := topology.NodeID(irng.Intn(m.Nodes() - 1))
				pairs = append(pairs, ChannelPair(u, u+1), ChannelPair(u+1, u))
			}
			c.Invalidate(pairs)
		}
	}()
	aux.Add(1)
	go func() { // stats reader: snapshots must be monotone
		defer aux.Done()
		var prev CacheStats
		for !done.Load() {
			s := c.Stats()
			if s.Hits < prev.Hits || s.Misses < prev.Misses ||
				s.Evictions < prev.Evictions || s.Invalidations < prev.Invalidations {
				t.Errorf("stats went backwards: %+v after %+v", s, prev)
				return
			}
			prev = s
		}
	}()
	wg.Wait()
	done.Store(true)
	aux.Wait()

	st := c.Stats()
	if got, want := st.Hits+st.Misses, uint64(planners*iters); got != want {
		t.Errorf("hits+misses = %d, want %d lookups", got, want)
	}
	// On a single-core scheduler the racing invalidator may never catch a
	// live entry; pin the eviction accounting deterministically instead.
	c.PutPlan("hammer", sets[0], r.PlanSet(sets[0]))
	if c.InvalidateAll() == 0 {
		t.Error("InvalidateAll evicted nothing despite a cached plan")
	}
	if got := c.Stats().Invalidations; got == 0 {
		t.Error("invalidations counter did not advance")
	}
}

// linkPlan is a one-hop route-form plan over the link (a, b), so a test
// can invalidate exactly the entries it chooses.
func linkPlan(a, b topology.NodeID) Plan {
	return Plan{Paths: []dfr.PathRoute{{Nodes: []topology.NodeID{a, b}, Dests: []topology.NodeID{b}}}}
}

// TestCacheFIFOBoundedUnderInvalidation: put/invalidate cycles must not
// grow the eviction FIFO past the live entries it orders — the cache's
// bounded-memory promise.
func TestCacheFIFOBoundedUnderInvalidation(t *testing.T) {
	c := NewPlanCache(64)
	dead := []uint64{ChannelPair(0, 1)}
	for i := 0; i < 10000; i++ {
		k := core.MulticastSet{Source: 0, Dests: []topology.NodeID{topology.NodeID(1 + i%500)}}
		c.PutPlan("r", k, linkPlan(0, 1))
		c.Invalidate(dead)
	}
	fifo := 0
	for i := range c.shards {
		fifo += len(c.shards[i].fifo)
	}
	if live := c.Len(); live != 0 || fifo > 2*live {
		t.Fatalf("after 10000 put/invalidate cycles: %d live entries, %d FIFO slots", live, fifo)
	}
}

// TestCacheReinsertedPlanNotEvictedEarly: a plan invalidated and put
// again is the newest entry of its shard, so the next eviction must take
// the oldest live entry, not the re-inserted one through its stale first
// FIFO slot.
func TestCacheReinsertedPlanNotEvictedEarly(t *testing.T) {
	c := NewPlanCache(2 * cacheShards) // two entries per shard
	// Three multicast sets whose keys share one shard.
	var ks []core.MulticastSet
	var shard *cacheShard
	for d := topology.NodeID(1); len(ks) < 3; d++ {
		k := core.MulticastSet{Source: 0, Dests: []topology.NodeID{d}}
		s := c.shardFor(planKey("r", k, reprPlan))
		if shard == nil {
			shard = s
		}
		if s == shard {
			ks = append(ks, k)
		}
	}
	a, b, cc := ks[0], ks[1], ks[2]
	c.PutPlan("r", a, linkPlan(0, 1))
	c.PutPlan("r", b, linkPlan(2, 3))
	if n := c.Invalidate([]uint64{ChannelPair(0, 1)}); n != 1 {
		t.Fatalf("invalidated %d entries, want 1", n)
	}
	c.PutPlan("r", a, linkPlan(4, 5))  // a is now the newest entry
	c.PutPlan("r", cc, linkPlan(6, 7)) // full shard: evict the oldest live, b
	if _, ok := c.GetPlan("r", a); !ok {
		t.Error("re-inserted plan evicted ahead of an older entry")
	}
	if _, ok := c.GetPlan("r", b); ok {
		t.Error("oldest live entry survived the eviction")
	}
	if _, ok := c.GetPlan("r", cc); !ok {
		t.Error("newest plan missing")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("%d evictions, want 1", ev)
	}
}

// TestPlanKeyEncodings: planKey and appendPlanKeySorted give identical
// bytes for the same set however its destinations are listed, and the
// encoding is the committed one (tag, router id, NUL, uvarint source,
// uvarint destinations ascending).
func TestPlanKeyEncodings(t *testing.T) {
	unsorted := core.MulticastSet{Source: 5, Dests: []topology.NodeID{300, 2, 17}}
	sorted := core.MulticastSet{Source: 5, Dests: []topology.NodeID{2, 17, 300}}
	const want = "pdual-path\x00\x05\x02\x11\xac\x02"
	if got := planKey("dual-path", unsorted, reprPlan); got != want {
		t.Fatalf("planKey(unsorted) = %q, want %q", got, want)
	}
	if got := planKey("dual-path", sorted, reprPlan); got != want {
		t.Fatalf("planKey(sorted) = %q, want %q", got, want)
	}
	if got := string(appendPlanKeySorted(nil, "dual-path", sorted, reprPlan)); got != want {
		t.Fatalf("appendPlanKeySorted = %q, want %q", got, want)
	}
	if unsorted.Dests[0] != 300 {
		t.Fatal("planKey reordered the caller's destinations")
	}
	rng := stats.NewRand(9)
	m := topology.NewMesh2D(16, 16)
	for i := 0; i < 200; i++ {
		k := randomSet(m, rng, 1+rng.Intn(30))
		s := core.MulticastSet{Source: k.Source, Dests: append([]topology.NodeID(nil), k.Dests...)}
		slices.Sort(s.Dests)
		if a, b := planKey("x", k, reprFlat), string(appendPlanKeySorted(nil, "x", s, reprFlat)); a != b {
			t.Fatalf("encoders disagree for %v: %q vs %q", k.Dests, a, b)
		}
	}
}
