// Package wormsim is a flit-clock wormhole network simulator — the
// from-scratch replacement for the CSIM-based simulation program of
// Section 7.2. One simulation cycle equals one flit time on a channel.
// Worms (in-flight messages) acquire channels one hop per cycle; a
// blocked worm stalls in place holding everything it has acquired, which
// is exactly the wormhole behaviour that creates deadlock (Section 6.1).
//
// Path worms model the path-based multicast schemes: a single header
// acquires the route channel by channel and the body follows in a
// pipeline.
//
// Tree worms model tree-like multicast routing as Section 6.1 describes
// it: the header flit is replicated at branch nodes and all branches
// proceed forward in lock-step, so the whole frontier (one tree level)
// must be secured before any branch advances. The worm claims whatever
// frontier channels are free — holding them — while it waits for the
// busy ones ("all of the required channels must be available before
// transmission on any of them may take place"). Blockage of any branch
// therefore stalls the entire tree while it keeps channels occupied, the
// behaviour that makes naive tree multicast slow under contention and
// deadlock-prone (Figs. 6.1 and 6.4).
//
// Channel arbitration is first-come first-served: a worm that finds a
// channel busy enqueues on it and acquires it, in order, once free.
// Deadlock is detected via wait-for-graph cycles and reported rather than
// hidden.
//
// # Performance architecture
//
// The simulator is indexed, event-driven and data-oriented (see
// DESIGN.md, "Simulator data layout"):
//
//   - Channels are interned to dense int32 ids at injection time, so the
//     per-cycle inner loop indexes flat parallel arrays instead of
//     hashing dfr.Channel map keys.
//   - Worms live in a slot arena (Network.slots) and are referenced by
//     dense int32 indices (wormRef) everywhere — the in-flight list, the
//     active list, wake queues, channel owner and FIFO state, shard round
//     entries. The scheduling hot loop therefore moves int32s, not
//     pointers: no GC write barriers on queue/list writes, 2-8x denser
//     queues, and nothing extra for the collector to trace.
//   - Per-channel state is struct-of-arrays: chanOwner / chanQHead /
//     chanQueue are parallel flat slices indexed by channel id. The
//     dead-channel flag is folded into the owner word (deadChan
//     sentinel), so the uncontended availability check is one int32 load.
//   - Blocked worms are parked: they leave the active list and are woken
//     only when a channel they wait on is released to them (FIFO heads
//     only), instead of being re-polled every cycle. Wakeups are merged
//     into the active scan in ascending worm-id order, which keeps the
//     cycle-level semantics bit-identical to the original every-worm scan
//     (worms were always processed in injection order).
//   - Drain timers: a fully routed worm only counts flits until its next
//     delivery or tail release, so it leaves the active list and sleeps
//     on a min-heap timer keyed by the cycle of that event. The timer
//     wakes it through wokenNext (the ascending-id merge), its progress
//     catches up by the cycles it slept, and Step keeps reporting
//     progress while any live worm sleeps. Run's idle fast-forward also
//     jumps stretches in which only sleepers would move, up to the next
//     timer.
//   - Delivery cursor: each worm keeps nextDue, a lower bound on the
//     progress of its next undelivered destination, and rescans its
//     deliveries only once progress reaches it.
//   - Reduced wait-for graph: DetectDeadlock builds nodes only for worms
//     whose header still waits, and one edge per waited channel (to the
//     waiter just ahead in its FIFO, or to the owner). A cycle exists in
//     it exactly when one exists in the full graph, where a worm waits
//     for the owner and every waiter ahead of it.
//   - The cold audits reuse epoch-stamped scratch (DetectDeadlock,
//     CheckInvariants, FailWhere), so periodic checks neither allocate
//     nor distort profiles.
//
// Observer callbacks (OnDelivery, OnComplete, OnLost, ...) are
// notifications: they must not inject traffic or step the network.
package wormsim

import (
	"fmt"
	"math"

	"multicastnet/internal/dfr"
	"multicastnet/internal/routing"
	"multicastnet/internal/topology"
)

// wormKind distinguishes path worms from lock-step tree worms.
type wormKind uint8

const (
	pathWorm wormKind = iota
	treeWorm
)

// wormRef is a dense index into the worm arena (Network.slots). Slots are
// recycled (arena.go), so a wormRef identifies a worm only while that
// worm is live or within the two-cycle retirement grace period; the
// stable diagnostic identity is worm.id.
type wormRef = int32

const (
	// noWorm is the empty reference: no owner, no waiter.
	noWorm wormRef = -1
	// deadChan is the channel-owner sentinel for failed hardware. Folding
	// the dead flag into the owner word keeps the hot-path availability
	// check a single int32 compare — a dead channel is never noWorm, so
	// it can never be granted.
	deadChan wormRef = -2
)

// delivery marks a destination and where its router sits: the channel
// index along the path (path worms) or the depth of the arrival channel
// (tree worms).
type delivery struct {
	dest topology.NodeID
	idx  int // path: 1-based position; tree: depth of the arrival channel
	done bool
}

// treeLevel is one frontier of a tree worm: all channels at one depth.
// The lock-step header advances a full level at a time, claiming free
// channels immediately and waiting (while holding them) for the rest.
type treeLevel struct {
	channels []int32 // interned channel ids
	taken    []bool
	missing  int
	queued   bool
}

// worm is one in-flight wormhole message, stored by value in the slot
// arena. The id is stable across the worm's lifetime and identifies it in
// deadlock reports; the slot index (wormRef) is the reference every other
// structure uses.
type worm struct {
	kind wormKind
	id   int

	// Path worms.
	chans    []int32 // interned channel ids along the route
	headIdx  int     // next channel index to acquire
	queuedAt int     // headIdx value already enqueued for (-1: none)
	progress int     // total head advances, including drain into the final destination
	released int     // leading channels already released

	// Tree worms.
	levels []treeLevel

	deliveries []delivery
	undeliv    int
	// nextDue is the delivery cursor: a lower bound on the smallest
	// idx+length-1 among the undelivered destinations. Deliveries are
	// rescanned only once progress reaches it; a stale-low value (0 at
	// injection, or after a sharded worker delivered) just forces a scan.
	nextDue int
	length  int   // message length in flits
	spawned int64 // cycle at which the multicast was initiated

	// Scheduling state (see Step): a parked worm is blocked and off the
	// active list; waking is idempotent per cycle via wakePending.
	parked      bool
	wakePending bool
	done        bool  // retired; awaiting compaction out of n.worms
	doneCycle   int64 // cycle of retirement, gating freelist reuse (arena.go)
	// A sleeping drainer (sleepDrain) is off the active list until cycle
	// wakeAt (0: awake); it fell asleep at cycle sleptAt, and its progress
	// lags by the cycles since then until the timer fires.
	wakeAt  int64
	sleptAt int64

	// mask is the set of shard regions (bit per worker) the worm's next
	// advance touches; maintained only when sharded stepping is enabled
	// (see shard.go) and recomputed whenever the head moves.
	mask uint64

	mcast int32 // multicast record index (Network.mcSlots), -1 when unset
}

// mcastState tracks one multicast (possibly several worms) for
// whole-multicast latency. Records live in Network.mcSlots and are
// referenced by index.
type mcastState struct {
	spawned   int64
	size      int    // destination count of the whole multicast
	remaining int    // undelivered destinations across all worms
	lost      int    // destinations lost to fault-killed worms
	worms     int    // worms still referencing this record (arena recycling)
	tag       uint64 // caller-chosen id reported by OnCompleteTag
}

// Network is the simulated wormhole network.
type Network struct {
	topo topology.Topology

	// Channel interning: dfr.Channel keys are resolved to dense ids once
	// at injection time; every per-cycle access is a slice index.
	chanIDs map[dfr.Channel]int32

	// Channel state, struct-of-arrays: parallel flat slices indexed by
	// the interned channel id. chanOwner is the only array the
	// uncontended advance touches; the FIFO arrays join in only under
	// contention. Queues are head-indexed: dequeuing advances the cursor
	// instead of reslicing, so the backing arrays keep their capacity and
	// steady-state wait episodes allocate nothing.
	chanOwner []wormRef   // owning worm, noWorm, or deadChan
	chanQHead []int32     // FIFO cursor into chanQueue[id]
	chanQueue [][]wormRef // per-channel FIFO backing, front at chanQHead
	// chanDead mirrors the deadChan sentinel: it changes only between
	// cycles (FailWhere, intern), so sharded workers may read it for
	// channels outside their region — chanOwner words of foreign regions
	// are being written concurrently during a round.
	chanDead []bool

	// Worm arena: every worm lives in slots and is referenced by index.
	// Pointers into slots are taken locally only and never held across an
	// allocWorm call (appends may move the backing array).
	slots []worm

	worms    []wormRef // in-flight worms, ascending id, lazily compacted
	inFlight int       // live entries in worms
	nextID   int
	cycle    int64
	progress bool // did any worm advance this cycle

	// Event scheduling: active holds the worms that may move this cycle
	// (ascending id). Releases wake parked FIFO heads; a wake lands in
	// wokenNow when the target's id is still ahead of the scan position
	// (it moves this cycle, as it would under the full scan) or in
	// wokenNext otherwise (it moves next cycle).
	active    []wormRef
	nextBuf   []wormRef
	wokenNow  wormHeap
	wokenNext []wormRef
	scanID    int  // id of the worm being processed by Step
	inStep    bool // routes wakes between wokenNow and wokenNext

	// Drain timers (sleepDrain): sleeping fully routed worms keyed by the
	// cycle they must next advance. Entries of killed sleepers stay in the
	// heap until they surface and are then skipped, so sleepers — the exact
	// count of live sleeping worms — is what counts as movement.
	timers   eventHeap
	sleepers int

	// Fault state: predicates applied to every channel — existing and
	// future-interned — by FailWhere; killed counts fault-killed worms.
	deadPreds []func(dfr.Channel) bool
	killed    int

	// FailWhere victim dedup: epoch stamps over worm slots replace the
	// per-activation map (faults.go).
	victimStamp []int64
	victimEpoch int64
	victimBuf   []wormRef

	// Sharded parallel stepping (shard.go); the zero value is the serial
	// engine.
	shard shardState

	// Worm arena freelist (arena.go): retired slots and multicast records
	// are recycled; the epoch-stamped node scratch replaces per-injection
	// position/depth maps.
	free         []wormRef
	freeHead     int
	mcSlots      []mcastState
	mcFree       []int32
	scratchStamp []int64
	scratchVal   []int32
	scratchEpoch int64

	// Reusable audit scratch (allocation-free steady state).
	dd ddScratch // DetectDeadlock
	ck ckScratch // CheckInvariants (check.go)

	// Observers.
	onDelivery       func(dest topology.NodeID, latencyCycles int64)
	onDeliveryDetail func(dest topology.NodeID, latencyCycles int64, mcastSize int)
	onComplete       func(latencyCycles int64)
	onCompleteTag    func(tag uint64, latencyCycles int64)
	onLost           func(dest topology.NodeID, mcastSize int)
}

// NewNetwork returns an empty network over topo. Channels are created
// lazily, so any channel class used by the injected routes is accepted.
func NewNetwork(topo topology.Topology) *Network {
	return &Network{topo: topo, chanIDs: make(map[dfr.Channel]int32)}
}

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// ActiveWorms returns the number of in-flight worms.
func (n *Network) ActiveWorms() int { return n.inFlight }

// awake reports whether a worm will be visited next cycle: the active
// list, this cycle's residual wakes, or next cycle's wakes are non-empty.
// With nothing awake and no pending injections, only sleeping drainers
// change state before the next timer, which Run exploits to fast-forward.
func (n *Network) awake() bool {
	return len(n.active) > 0 || len(n.wokenNow) > 0 || len(n.wokenNext) > 0
}

// movable reports whether any worm can advance without external input:
// an awake worm, or a sleeping drainer (it advances every cycle in the
// flit-clock model, only its bookkeeping is deferred). With no movable
// worms the network state is frozen until new traffic arrives.
func (n *Network) movable() bool {
	return n.awake() || n.sleepers > 0
}

// Idle reports whether the network is frozen: no worm can advance until
// new traffic is injected. Note an idle network may still hold parked
// worms (ActiveWorms > 0 while Idle is a wait-for deadlock).
func (n *Network) Idle() bool { return !n.movable() }

// FastForward jumps the clock to target, the externally driven analogue
// of Run's idle fast-forward. It is a no-op unless the network is idle
// and target is ahead of the current cycle — a frozen network's state is
// invariant under clock advances, so results are identical to stepping
// cycle by cycle.
func (n *Network) FastForward(target int64) {
	if target > n.cycle && !n.movable() {
		n.cycle = target
	}
}

// Busy implements dfr.ChannelOracle: it reports whether a channel is
// currently held by a worm, letting adaptive schemes route around live
// congestion at injection time.
func (n *Network) Busy(c dfr.Channel) bool {
	id, ok := n.chanIDs[c]
	return ok && n.chanOwner[id] >= 0
}

// OnDelivery registers a callback invoked for every destination delivery
// with the per-destination latency in cycles.
func (n *Network) OnDelivery(fn func(dest topology.NodeID, latencyCycles int64)) {
	n.onDelivery = fn
}

// OnDeliveryDetail registers a delivery callback that also receives the
// destination count of the delivering multicast, so unicast (size 1) and
// multicast traffic can be measured separately (the Section 8.2
// interaction study).
func (n *Network) OnDeliveryDetail(fn func(dest topology.NodeID, latencyCycles int64, mcastSize int)) {
	n.onDeliveryDetail = fn
}

// OnComplete registers a callback invoked when the last destination of a
// multicast is delivered, with the multicast's completion latency.
func (n *Network) OnComplete(fn func(latencyCycles int64)) { n.onComplete = fn }

// OnCompleteTag registers a completion callback that also receives the
// caller-chosen tag of InjectFlatTag, letting a service correlate each
// completion with the request that produced it. Multicasts injected
// without a tag report tag 0.
func (n *Network) OnCompleteTag(fn func(tag uint64, latencyCycles int64)) { n.onCompleteTag = fn }

// intern resolves a channel key to its dense id, creating (and
// validating) the state slots on first use. Validation therefore happens
// once per distinct channel rather than once per injection.
func (n *Network) intern(c dfr.Channel) int32 {
	if id, ok := n.chanIDs[c]; ok {
		return id
	}
	if !n.topo.Adjacent(c.From, c.To) {
		panic(fmt.Sprintf("wormsim: route uses non-channel %v", c))
	}
	id := int32(len(n.chanOwner))
	n.chanIDs[c] = id
	owner := noWorm
	for _, pred := range n.deadPreds {
		if pred(c) {
			owner = deadChan
			break
		}
	}
	n.chanOwner = append(n.chanOwner, owner)
	n.chanQHead = append(n.chanQHead, 0)
	n.chanQueue = append(n.chanQueue, nil)
	n.chanDead = append(n.chanDead, owner == deadChan)
	return id
}

// chanEnqueue appends wi to channel id's FIFO; callers guarantee
// at-most-once per wait episode via the worm-side queued markers, keeping
// stalls O(1) per cycle.
func (n *Network) chanEnqueue(id int32, wi wormRef) {
	n.chanQueue[id] = append(n.chanQueue[id], wi)
}

// chanWaiters is the live FIFO content of channel id, front first.
func (n *Network) chanWaiters(id int32) []wormRef {
	return n.chanQueue[id][n.chanQHead[id]:]
}

// chanFront returns the first waiter of channel id, or noWorm.
func (n *Network) chanFront(id int32) wormRef {
	q := n.chanQueue[id]
	if h := n.chanQHead[id]; int(h) < len(q) {
		return q[h]
	}
	return noWorm
}

// chanFreeFor reports whether wi is first in line for channel id (or the
// queue is empty because wi never had to wait). The caller has already
// established the channel is unowned and alive (chanOwner == noWorm).
func (n *Network) chanFreeFor(id int32, wi wormRef) bool {
	q := n.chanQueue[id]
	h := n.chanQHead[id]
	return int(h) == len(q) || q[h] == wi
}

// chanAvailableTo reports whether wi may take channel id now: alive,
// free, and wi is first in line.
func (n *Network) chanAvailableTo(id int32, wi wormRef) bool {
	return n.chanOwner[id] == noWorm && n.chanFreeFor(id, wi)
}

// chanAvailableToQueued is chanAvailableTo for a worm known to be
// enqueued.
func (n *Network) chanAvailableToQueued(id int32, wi wormRef) bool {
	if n.chanOwner[id] != noWorm {
		return false
	}
	q := n.chanQueue[id]
	h := n.chanQHead[id]
	return int(h) < len(q) && q[h] == wi
}

// chanTake grants channel id to wi, popping it from the FIFO head if it
// was queued. The queue resets in place whenever it drains, keeping the
// backing array's capacity.
func (n *Network) chanTake(id int32, wi wormRef) {
	q := n.chanQueue[id]
	h := n.chanQHead[id]
	if int(h) < len(q) && q[h] == wi {
		h++
		if int(h) == len(q) {
			n.chanQueue[id] = q[:0]
			h = 0
		}
		n.chanQHead[id] = h
	}
	n.chanOwner[id] = wi
}

// addWorm registers a freshly injected worm: it joins both the in-flight
// list and the active list (ids are strictly increasing, so appends keep
// both sorted).
func (n *Network) addWorm(wi wormRef) {
	n.worms = append(n.worms, wi)
	n.inFlight++
	n.active = append(n.active, wi)
	w := &n.slots[wi]
	n.mcSlots[w.mcast].worms++
	if n.shard.n > 1 {
		w.mask = n.regionMask(w)
	}
}

// InjectMulticast injects one multicast routed as a set of path routes
// and/or tree routes, all spawned at the current cycle. lengthFlits is
// the message length in flits.
func (n *Network) InjectMulticast(paths []dfr.PathRoute, trees []dfr.TreeRoute, lengthFlits int) {
	if lengthFlits < 1 {
		panic("wormsim: message must have at least one flit")
	}
	mci := n.allocMcast()
	mc := &n.mcSlots[mci]
	mc.spawned = n.cycle
	for _, p := range paths {
		mc.size += len(p.Dests)
	}
	for _, t := range trees {
		mc.size += len(t.Dests)
	}
	for _, p := range paths {
		if len(p.Nodes) < 2 {
			// Degenerate: source-only path with no channels; its
			// destinations could only be the source, which MulticastSet
			// forbids.
			continue
		}
		wi := n.allocWorm()
		w := &n.slots[wi]
		w.kind = pathWorm
		w.id = n.nextID
		n.nextID++
		w.length = lengthFlits
		w.spawned = n.cycle
		w.queuedAt = -1
		w.mcast = mci
		for i := 1; i < len(p.Nodes); i++ {
			w.chans = append(w.chans, n.intern(dfr.Channel{From: p.Nodes[i-1], To: p.Nodes[i], Class: p.HopClass(i - 1)}))
		}
		// First-occurrence path positions via the epoch scratch.
		n.beginScratch()
		for i, node := range p.Nodes {
			n.nodeMark(int(node), int32(i))
		}
		for _, d := range p.Dests {
			idx := n.nodeVal(int(d))
			if idx <= 0 {
				panic(fmt.Sprintf("wormsim: path does not visit destination %d", d))
			}
			w.deliveries = append(w.deliveries, delivery{dest: d, idx: int(idx)})
			w.undeliv++
			mc.remaining++
		}
		n.addWorm(wi)
	}
	for _, t := range trees {
		if len(t.Edges) == 0 {
			continue
		}
		n.addWorm(n.buildTreeWorm(t, lengthFlits, mci))
	}
}

// InjectFlat injects one multicast from its dense CSR plan
// (routing.Flatten): positions and depths were resolved at flattening
// time, so injection walks packed arrays with no per-injection maps.
// Behaviour is identical to InjectMulticast of the originating plan.
func (n *Network) InjectFlat(fp *routing.FlatPlan, lengthFlits int) {
	n.InjectFlatTag(fp, lengthFlits, 0)
}

// InjectFlatTag is InjectFlat with a caller-chosen tag reported back by
// OnCompleteTag when the multicast's last destination is delivered.
func (n *Network) InjectFlatTag(fp *routing.FlatPlan, lengthFlits int, tag uint64) {
	if lengthFlits < 1 {
		panic("wormsim: message must have at least one flit")
	}
	mci := n.allocMcast()
	mc := &n.mcSlots[mci]
	mc.spawned = n.cycle
	mc.size = int(fp.TotalDests)
	mc.tag = tag
	for p := 0; p < fp.Paths(); p++ {
		wi := n.allocWorm()
		w := &n.slots[wi]
		w.kind = pathWorm
		w.id = n.nextID
		n.nextID++
		w.length = lengthFlits
		w.spawned = n.cycle
		w.queuedAt = -1
		w.mcast = mci
		lo, hi := fp.PathOff[p], fp.PathOff[p+1]
		clo := lo - int32(p)
		for i := lo + 1; i < hi; i++ {
			w.chans = append(w.chans, n.intern(dfr.Channel{
				From:  topology.NodeID(fp.PathNodes[i-1]),
				To:    topology.NodeID(fp.PathNodes[i]),
				Class: int(fp.PathClass[clo+i-lo-1]),
			}))
		}
		dlo, dhi := fp.PathDestOff[p], fp.PathDestOff[p+1]
		for d := dlo; d < dhi; d++ {
			w.deliveries = append(w.deliveries, delivery{
				dest: topology.NodeID(fp.PathDest[d]),
				idx:  int(fp.PathDestPos[d]),
			})
			w.undeliv++
			mc.remaining++
		}
		n.addWorm(wi)
	}
	for t := 0; t < fp.Trees(); t++ {
		wi := n.allocWorm()
		w := &n.slots[wi]
		w.kind = treeWorm
		w.id = n.nextID
		n.nextID++
		w.length = lengthFlits
		w.spawned = n.cycle
		w.queuedAt = -1
		w.mcast = mci
		llo, lhi := fp.TreeOff[t], fp.TreeOff[t+1]
		w.levels = growLevels(w.levels, int(lhi-llo))
		for l := llo; l < lhi; l++ {
			clo, chi := fp.TreeLevelOff[l], fp.TreeLevelOff[l+1]
			lv := &w.levels[l-llo]
			for c := clo; c < chi; c++ {
				lv.channels = append(lv.channels, n.intern(dfr.Channel{
					From:  topology.NodeID(fp.TreeFrom[c]),
					To:    topology.NodeID(fp.TreeTo[c]),
					Class: int(fp.TreeClass[c]),
				}))
			}
			for len(lv.taken) < len(lv.channels) {
				lv.taken = append(lv.taken, false)
			}
			lv.missing = len(lv.channels)
		}
		dlo, dhi := fp.TreeDestOff[t], fp.TreeDestOff[t+1]
		for d := dlo; d < dhi; d++ {
			w.deliveries = append(w.deliveries, delivery{
				dest: topology.NodeID(fp.TreeDest[d]),
				idx:  int(fp.TreeDestDepth[d]),
			})
			w.undeliv++
			mc.remaining++
		}
		n.addWorm(wi)
	}
}

// buildTreeWorm converts a TreeRoute into a tree worm with per-depth
// frontier levels. Node depths come from the epoch scratch (edges are
// parent-before-child, so one pass resolves them) and the worm's level
// and channel arrays are arena-recycled.
func (n *Network) buildTreeWorm(t dfr.TreeRoute, lengthFlits int, mci int32) wormRef {
	n.beginScratch()
	n.nodeMark(int(t.Root), 0)
	maxd := 0
	for _, e := range t.Edges {
		d := n.nodeVal(int(e.From)) + 1
		n.nodeMark(int(e.To), d)
		if int(d) > maxd {
			maxd = int(d)
		}
	}
	wi := n.allocWorm()
	w := &n.slots[wi]
	w.kind = treeWorm
	w.id = n.nextID
	n.nextID++
	w.length = lengthFlits
	w.spawned = n.cycle
	w.queuedAt = -1
	w.mcast = mci
	w.levels = growLevels(w.levels, maxd)
	for _, e := range t.Edges {
		l := &w.levels[n.nodeVal(int(e.To))-1]
		l.channels = append(l.channels, n.intern(e))
	}
	for i := range w.levels {
		l := &w.levels[i]
		for len(l.taken) < len(l.channels) {
			l.taken = append(l.taken, false)
		}
		l.missing = len(l.channels)
	}
	for _, d := range t.Dests {
		dep := n.nodeVal(int(d))
		if dep <= 0 {
			panic(fmt.Sprintf("wormsim: tree does not reach destination %d", d))
		}
		w.deliveries = append(w.deliveries, delivery{dest: d, idx: int(dep)})
		w.undeliv++
		n.mcSlots[mci].remaining++
	}
	return wi
}

// release frees channel id held by wi and wakes the FIFO head waiting on
// it, if any. Availability only ever arises at release time (a take sets
// an owner), so waking queue heads here is the complete wake condition.
// Dead channels are never released: their owner word is deadChan, which
// never matches wi.
func (n *Network) release(id int32, wi wormRef) {
	if n.chanOwner[id] != wi {
		return
	}
	n.chanOwner[id] = noWorm
	if f := n.chanFront(id); f != noWorm {
		n.wake(f)
	}
}

// wake schedules a parked worm to be processed again. If its id is still
// ahead of the current scan position it runs this very cycle — exactly
// when the full scan would have polled it — otherwise next cycle.
func (n *Network) wake(wi wormRef) {
	w := &n.slots[wi]
	if w.done || !w.parked || w.wakePending {
		return
	}
	w.wakePending = true
	if n.inStep && w.id > n.scanID {
		n.wokenPush(wi)
	} else {
		n.wokenNext = append(n.wokenNext, wi)
	}
}

// Step advances the simulation by one cycle. It returns true if any worm
// made progress.
//
// Only movable worms are visited: the active list (worms that advanced
// last cycle) merged, in ascending id order, with worms woken by channel
// releases. Parked worms cost nothing until a release reaches them.
func (n *Network) Step() bool {
	if n.shard.n > 1 {
		return n.stepSharded()
	}
	n.cycle++
	n.progress = false
	n.fireTimers()
	n.mergeWokenNext()

	n.inStep = true
	next := n.nextBuf[:0]
	i := 0
	for {
		var wi wormRef
		if len(n.wokenNow) > 0 && (i >= len(n.active) || n.slots[n.wokenNow[0]].id < n.slots[n.active[i]].id) {
			wi = n.wokenPop()
			w := &n.slots[wi]
			w.wakePending = false
			w.parked = false
		} else if i < len(n.active) {
			wi = n.active[i]
			i++
		} else {
			break
		}
		w := &n.slots[wi]
		if w.done {
			continue // killed by a fault while on the active list
		}
		n.scanID = w.id
		var live bool
		if w.kind == pathWorm {
			live = n.advancePath(wi, w)
		} else {
			live = n.advanceTree(wi, w)
		}
		if !live {
			n.retire(wi)
		} else if !w.parked && !n.sleepDrain(wi, w) {
			next = append(next, wi)
		}
	}
	n.inStep = false
	n.nextBuf = n.active[:0]
	n.active = next
	return n.progress || n.sleepers > 0
}

// routeLen is the number of header steps of the worm's route: path
// channels or tree levels.
func (w *worm) routeLen() int {
	if w.kind == treeWorm {
		return len(w.levels)
	}
	return len(w.chans)
}

// sleepDrain takes a fully routed worm off the active list until the
// cycle its progress reaches its next delivery or tail release: in
// between, each cycle would only count one more drained flit. The timer
// wakes it through wokenNext, so it rejoins the scan at its id's place
// (fireTimers). It reports whether the worm went to sleep. Shared by the
// serial Step and the sharded fold, so the engines cannot diverge.
func (n *Network) sleepDrain(wi wormRef, w *worm) bool {
	route := w.routeLen()
	if w.headIdx < route {
		return false
	}
	next := math.MaxInt
	if w.released < route {
		next = w.released + w.length
	}
	if w.undeliv > 0 {
		if w.nextDue <= w.progress {
			// Stale-low cursor (a sharded worker delivered): everything
			// due has been delivered, so this only moves the cursor.
			n.deliverDue(w)
		}
		next = min(next, w.nextDue)
	}
	if next <= w.progress+1 {
		return false // acts next cycle anyway
	}
	w.sleptAt = n.cycle
	w.wakeAt = n.cycle + int64(next-w.progress)
	n.sleepers++
	n.timers.push(event{at: w.wakeAt, ref: wi})
	return true
}

// fireTimers moves the sleepers due this cycle to wokenNext, catching
// their progress up to where one more advance reaches the event they
// slept towards. Entries whose worm was killed while asleep (its slot may
// since hold another worm) are skipped: a live sleeper's wakeAt always
// matches its own entry.
func (n *Network) fireTimers() {
	for len(n.timers) > 0 && n.timers[0].at <= n.cycle {
		e := n.timers.pop()
		w := &n.slots[e.ref]
		if w.wakeAt != e.at {
			continue
		}
		w.progress += int(n.cycle - 1 - w.sleptAt)
		w.wakeAt = 0
		n.sleepers--
		n.wokenNext = append(n.wokenNext, e.ref)
	}
}

// nextTimer returns the cycle of the earliest live sleeper's timer,
// dropping stale entries from the top of the heap; callers check
// sleepers > 0 first.
func (n *Network) nextTimer() int64 {
	for {
		e := n.timers[0]
		if n.slots[e.ref].wakeAt == e.at {
			return e.at
		}
		n.timers.pop()
	}
}

// mergeWokenNext folds last cycle's deferred wakes into the active list,
// preserving ascending id order. Shared by the serial and sharded step
// paths.
func (n *Network) mergeWokenNext() {
	if len(n.wokenNext) == 0 {
		return
	}
	n.sortRefsByID(n.wokenNext)
	merged := n.nextBuf[:0]
	i, j := 0, 0
	for i < len(n.active) && j < len(n.wokenNext) {
		if n.slots[n.active[i]].id < n.slots[n.wokenNext[j]].id {
			merged = append(merged, n.active[i])
			i++
		} else {
			wi := n.wokenNext[j]
			w := &n.slots[wi]
			w.wakePending = false
			w.parked = false
			merged = append(merged, wi)
			j++
		}
	}
	merged = append(merged, n.active[i:]...)
	for ; j < len(n.wokenNext); j++ {
		wi := n.wokenNext[j]
		w := &n.slots[wi]
		w.wakePending = false
		w.parked = false
		merged = append(merged, wi)
	}
	n.nextBuf = n.active[:0]
	n.active = merged
	n.wokenNext = n.wokenNext[:0]
}

// retire removes a drained worm from the in-flight accounting; the worms
// list is compacted lazily once half of it is dead. Idempotent: a worm
// killed by a fault mid-advance is already retired when Step sees it.
func (n *Network) retire(wi wormRef) {
	w := &n.slots[wi]
	if w.done {
		return
	}
	w.done = true
	w.doneCycle = n.cycle
	if w.wakeAt != 0 {
		// Killed asleep: it stops counting as movement now; its timer
		// entry goes stale (fireTimers).
		w.wakeAt = 0
		n.sleepers--
	}
	n.inFlight--
	if dead := len(n.worms) - n.inFlight; dead > 32 && dead > n.inFlight {
		live := n.worms[:0]
		for _, v := range n.worms {
			if !n.slots[v].done {
				live = append(live, v)
			} else {
				n.recycleWorm(v)
			}
		}
		n.worms = live
	}
}

// advancePath moves a path worm one cycle; false retires it.
func (n *Network) advancePath(wi wormRef, w *worm) bool {
	moved := false
	if w.headIdx < len(w.chans) {
		id := w.chans[w.headIdx]
		owner := n.chanOwner[id]
		if owner == deadChan {
			// The header reached failed hardware: the message is dropped
			// and its in-flight flits are flushed (Section 2.3.4 flow
			// control has no way to back up past an acquired channel).
			n.killWorm(wi)
			return false
		}
		if owner == noWorm && n.chanFreeFor(id, wi) {
			n.chanTake(id, wi)
			w.headIdx++
			w.progress++
			moved = true
		} else {
			if w.queuedAt != w.headIdx {
				n.chanEnqueue(id, wi)
				w.queuedAt = w.headIdx
			}
			w.parked = true
		}
	} else {
		// Fully routed; the body drains at one flit per cycle.
		w.progress++
		moved = true
	}
	if moved {
		n.progress = true
		// Deliveries: the last flit crosses the arrival channel at
		// progress idx + length - 1.
		if w.progress >= w.nextDue {
			n.deliverDue(w)
		}
		// Releases: the tail crosses channel index i at progress i + length.
		for w.released < len(w.chans) && w.progress >= w.released+w.length {
			n.release(w.chans[w.released], wi)
			w.released++
		}
	}
	return w.released < len(w.chans) || w.undeliv > 0
}

// advanceTree moves a tree worm one cycle; false retires it. The header
// frontier is the level at index w.headIdx: the worm claims whatever
// frontier channels are free (holding them) and crosses the level — one
// level per cycle, lock-step — only when the whole frontier is secured.
// w.progress counts crossed levels plus drain cycles, exactly like a path
// worm's channel count, so delivery and release timing share the path
// formulas with depth in place of path position.
func (n *Network) advanceTree(wi wormRef, w *worm) bool {
	moved := false
	if w.headIdx < len(w.levels) {
		l := &w.levels[w.headIdx]
		for _, id := range l.channels {
			if n.chanOwner[id] == deadChan {
				// Lock-step trees need the whole frontier; one dead
				// branch channel drops the whole message.
				n.killWorm(wi)
				return false
			}
		}
		if !l.queued {
			for _, id := range l.channels {
				n.chanEnqueue(id, wi)
			}
			l.queued = true
		}
		for i, id := range l.channels {
			if l.taken[i] {
				continue
			}
			if n.chanAvailableToQueued(id, wi) {
				n.chanTake(id, wi)
				l.taken[i] = true
				l.missing--
			}
		}
		if l.missing == 0 {
			w.headIdx++
			w.progress++
			moved = true
		} else {
			w.parked = true
		}
	} else {
		// Fully acquired; the replicated body drains one flit per cycle.
		w.progress++
		moved = true
	}
	if moved {
		n.progress = true
		if w.progress >= w.nextDue {
			n.deliverDue(w)
		}
		for w.released < len(w.levels) && w.progress >= w.released+w.length {
			for _, id := range w.levels[w.released].channels {
				n.release(id, wi)
			}
			w.released++
		}
	}
	return w.released < len(w.levels) || w.undeliv > 0
}

// deliverDue delivers, in route order, every undelivered destination
// whose last flit has arrived at the worm's progress, and moves the
// delivery cursor to the earliest one still outstanding.
func (n *Network) deliverDue(w *worm) {
	due := math.MaxInt
	for i := range w.deliveries {
		d := &w.deliveries[i]
		if d.done {
			continue
		}
		if at := d.idx + w.length - 1; w.progress >= at {
			n.deliver(w, d)
		} else {
			due = min(due, at)
		}
	}
	w.nextDue = due
}

// deliver records one destination delivery.
func (n *Network) deliver(w *worm, d *delivery) {
	d.done = true
	w.undeliv--
	mci := w.mcast
	lat := n.cycle - w.spawned
	if n.onDelivery != nil {
		n.onDelivery(d.dest, lat)
	}
	if n.onDeliveryDetail != nil {
		n.onDeliveryDetail(d.dest, lat, n.mcSlots[mci].size)
	}
	mc := &n.mcSlots[mci]
	mc.remaining--
	// A multicast that lost any destination to a fault never completes;
	// completion latency is only defined for fully delivered multicasts.
	if mc.remaining == 0 && mc.lost == 0 {
		if n.onComplete != nil {
			n.onComplete(n.cycle - mc.spawned)
		}
		if n.onCompleteTag != nil {
			n.onCompleteTag(mc.tag, n.cycle-mc.spawned)
		}
	}
}

// DeadlockedWormIDs returns the ids of the worms on one wait-for cycle,
// or nil; a diagnostic alias of DetectDeadlock.
func (n *Network) DeadlockedWormIDs() []int {
	return n.DetectDeadlock()
}

// ddScratch is DetectDeadlock's reusable state: epoch-stamped
// slot-indexed scratch and a CSR adjacency, so the periodic deadlock
// audit (every 64 cycles under Run) allocates nothing in steady state.
type ddScratch struct {
	nodes  []wormRef // waiting worms, ascending id
	pos    []int32   // slot -> index into nodes, valid when stamp == epoch
	stamp  []int64
	epoch  int64
	adjOff []int32 // node u's wait-for edges are adj[adjOff[u]:adjOff[u+1]]
	adj    []int32
	color  []uint8
	parent []int32
	stack  []ddFrame
}

// ddFrame is one explicit DFS frame: the iterative traversal keeps very
// large in-flight worm populations from overflowing the goroutine stack
// (the recursion depth equals the wait-for chain length).
type ddFrame struct {
	u    int32
	next int32 // index into adj of u's next edge to explore
}

// DetectDeadlock searches the wait-for graph for a cycle: worm A waits
// for worm B when B owns a channel A's header needs, or when B is queued
// ahead of A on it. Because a blocked worm holds every channel it has
// acquired until its header advances (wormhole flow control,
// Section 2.3.4), a wait-for cycle is a permanent deadlock. It returns
// the ids of the worms on one such cycle, or nil. Steady-state calls
// allocate nothing (a found cycle — which ends the run — is the only
// allocation).
//
// The audit searches a reduced graph. Only worms whose header still
// waits get a node: a fully routed worm waits for no one, so it is a
// sink and never on a cycle. Each waited channel gives one edge: to the
// waiter just ahead in the channel's FIFO, to the FIFO's tail when the
// worm has not queued yet, or to the owner when the worm is at the front
// (or nobody queues). Every edge of the full graph — to the owner and to
// each waiter ahead — is a chain of these edges through the FIFO, since
// each queued waiter itself waits on the channel, and every reduced edge
// is a full-graph edge. So a cycle exists here exactly when one exists
// in the full graph, and any cycle returned is a cycle of both.
func (n *Network) DetectDeadlock() []int {
	dd := &n.dd
	dd.epoch++
	if len(dd.stamp) < len(n.slots) {
		dd.stamp = append(dd.stamp, make([]int64, len(n.slots)-len(dd.stamp))...)
		dd.pos = append(dd.pos, make([]int32, len(n.slots)-len(dd.pos))...)
	}
	nodes := dd.nodes[:0]
	for _, wi := range n.worms {
		if w := &n.slots[wi]; !w.done && w.headIdx < w.routeLen() {
			dd.stamp[wi] = dd.epoch
			dd.pos[wi] = int32(len(nodes))
			nodes = append(nodes, wi)
		}
	}
	dd.nodes = nodes
	adjOff := append(dd.adjOff[:0], 0)
	adj := dd.adj[:0]
	for _, wi := range nodes {
		w := &n.slots[wi]
		if w.kind == pathWorm {
			adj = n.ddAddWait(adj, wi, w.chans[w.headIdx])
		} else {
			l := &w.levels[w.headIdx]
			for ci, id := range l.channels {
				if !l.taken[ci] {
					adj = n.ddAddWait(adj, wi, id)
				}
			}
		}
		adjOff = append(adjOff, int32(len(adj)))
	}
	dd.adjOff, dd.adj = adjOff, adj
	const (
		white = 0
		gray  = 1
		black = 2
	)
	if cap(dd.color) < len(nodes) {
		dd.color = make([]uint8, len(nodes))
		dd.parent = make([]int32, len(nodes))
	}
	color := dd.color[:len(nodes)]
	parent := dd.parent[:len(nodes)]
	for i := range color {
		color[i] = white
		parent[i] = -1
	}
	stack := dd.stack[:0]
	for start := range nodes {
		if color[start] != white {
			continue
		}
		color[start] = gray
		stack = append(stack[:0], ddFrame{u: int32(start), next: adjOff[start]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < adjOff[f.u+1] {
				v := adj[f.next]
				f.next++
				switch color[v] {
				case white:
					parent[v] = f.u
					color[v] = gray
					stack = append(stack, ddFrame{u: v, next: adjOff[v]})
				case gray:
					cycle := []int{n.slots[nodes[v]].id}
					for x := f.u; x != v; x = parent[x] {
						cycle = append(cycle, n.slots[nodes[x]].id)
					}
					dd.stack = stack[:0]
					return cycle
				}
			} else {
				color[f.u] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	dd.stack = stack[:0]
	return nil
}

// ddAddWait appends the reduced wait-for edge of worm wi on channel id
// (see DetectDeadlock). Targets without a node — draining worms, free or
// dead channels, wi itself — add no edge.
func (n *Network) ddAddWait(adj []int32, wi wormRef, id int32) []int32 {
	t := n.chanOwner[id]
	if q := n.chanWaiters(id); len(q) > 0 {
		t = q[len(q)-1]
		for k, x := range q {
			if x == wi {
				if k > 0 {
					t = q[k-1]
				} else {
					t = n.chanOwner[id]
				}
				break
			}
		}
	}
	if t >= 0 && t != wi && n.dd.stamp[t] == n.dd.epoch {
		adj = append(adj, n.dd.pos[t])
	}
	return adj
}

// wormHeap is a binary min-heap of worm slot indices keyed by worm id,
// used to merge same-cycle wakeups into the ascending-id active scan.
// Push/pop live on Network (wokenPush/wokenPop) because the ordering key
// is slots[ref].id.
type wormHeap []wormRef

func (n *Network) wokenPush(wi wormRef) {
	h := append(n.wokenNow, wi)
	s := n.slots
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if s[h[p]].id <= s[h[i]].id {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	n.wokenNow = h
}

func (n *Network) wokenPop() wormRef {
	h := n.wokenNow
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	n.wokenNow = h
	s := n.slots
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && s[h[l]].id < s[h[min]].id {
			min = l
		}
		if r < len(h) && s[h[r]].id < s[h[min]].id {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}
