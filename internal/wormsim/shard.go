package wormsim

// Sharded parallel stepping: the interned channel id space is partitioned
// into regions owned by worker goroutines, and one simulation cycle runs
// as a parallel scan over the active worms followed by a serial
// commit-in-order fold — the same run/commit discipline the sweep layer
// (experiments.RunSweep) uses across runs, applied inside one run.
//
// Determinism argument (see DESIGN.md, "Sharded parallel stepping"):
// the serial engine's observable behaviour is fixed by the order of
// operations applied to each channel, and that order is always ascending
// worm id within a cycle. Every channel belongs to exactly one region, a
// region is scanned by exactly one worker in ascending id order, and
// everything a worker may not decide alone — releases, deliveries,
// completion callbacks, kills, whole-frontier moves of trees that span
// regions — is buffered and committed by the fold, which walks the worms
// in the exact order the serial scan would (ascending id, merged with
// same-cycle wakeups). A worker that misses an acquisition because the
// releasing worm's commit is still buffered simply enqueues on the
// channel; the fold's release then wakes it into this very cycle, exactly
// as the serial engine would have, so the end-of-cycle state — owners,
// queues, statistics, RNG-visible event order — is byte-identical at any
// shard count.
//
// Workers only ever mutate state they exclusively own during the round:
// the channel-state array slots of their region, and fields of worms
// whose whole footprint (the region mask) lies in their region. The worm
// arena never grows during a round (injection happens between cycles), so
// workers may hold *worm pointers into slots for the round. Tree worms
// whose frontier spans regions are advanced cooperatively: every involved
// worker enqueues/claims only its region's frontier channels (writing
// disjoint l.taken slots), the lowest-region worker doubles as primary
// and records the outcome, and the fold aggregates the claims and decides
// the lock-step move.

import (
	"math/bits"
	"sync"

	"multicastnet/internal/topology"
)

// regionBlockShift groups 2^regionBlockShift consecutive interned channel
// ids into one region block. Blocking improves locality (channels of one
// neighbourhood intern together); the mapping is correctness-free — any
// id→region function yields identical results.
const regionBlockShift = 5

// maxShards bounds the shard count so a region set fits one uint64 mask.
const maxShards = 64

// shardRec is the per-worm outcome of the parallel round, written by the
// worm's primary worker and consumed by the fold.
const (
	recNone   uint8 = iota // not worker-processed: fold advances serially
	recMoved               // head advanced; events/releases buffered
	recParked              // blocked in place (enqueued as needed)
	recKilled              // head touched dead hardware; fold runs killWorm
	recSplit               // cross-region tree frontier; fold folds claims
)

type shardRec struct {
	state   uint8
	worker  uint8 // worker owning the buffered event/release ranges
	retired bool  // recMoved: worm fully drained, fold retires it
	claims  int32 // recSplit: frontier channels claimed by the primary
	evLo    int32 // buffered delivery range in the worker's event list
	evHi    int32
	relLo   int32 // buffered release range in the worker's release list
	relHi   int32
}

// shardEvent is one buffered destination delivery; mc indexes
// Network.mcSlots.
type shardEvent struct {
	dest    topology.NodeID
	latency int64
	mc      int32
}

// splitClaim reports frontier channels a non-primary worker claimed for a
// cross-region tree worm at round position pos.
type splitClaim struct {
	pos    int32
	claims int32
}

// roundEntry snapshots one active worm and its region mask for the cycle;
// masks are snapshotted so workers never read a mask another worker is
// updating after a move.
type roundEntry struct {
	wi   wormRef
	mask uint64
}

type shardWorker struct {
	n      *Network
	idx    int
	events []shardEvent
	rels   []int32
	splits []splitClaim
	start  chan struct{}
}

// shardState is the Network's parallel-stepping state; the zero value
// selects the serial engine.
type shardState struct {
	n           int // shard count; < 2 = serial
	workers     []*shardWorker
	round       []roundEntry
	records     []shardRec
	splitCursor []int
	wg          sync.WaitGroup
	closed      bool
}

// SetShards enables sharded stepping across s worker goroutines. It must
// be called on a fresh network, before any injection. s < 2 leaves the
// serial engine in place; s is capped at 64. Callers that enable shards
// must Close the network to stop the workers.
func (n *Network) SetShards(s int) {
	if n.shard.workers != nil {
		panic("wormsim: SetShards called twice")
	}
	if len(n.worms) > 0 || n.cycle != 0 {
		panic("wormsim: SetShards must be called before any injection")
	}
	if s > maxShards {
		s = maxShards
	}
	if s < 2 {
		return
	}
	n.shard.n = s
	n.shard.workers = make([]*shardWorker, s)
	n.shard.splitCursor = make([]int, s)
	for i := range n.shard.workers {
		wk := &shardWorker{n: n, idx: i, start: make(chan struct{}, 1)}
		n.shard.workers[i] = wk
		go wk.loop()
	}
}

// Shards returns the effective shard count (1 = serial engine).
func (n *Network) Shards() int {
	if n.shard.n < 2 {
		return 1
	}
	return n.shard.n
}

// Close stops the shard worker goroutines. It is a no-op for serial
// networks and idempotent.
func (n *Network) Close() {
	if n.shard.closed || n.shard.workers == nil {
		return
	}
	n.shard.closed = true
	for _, wk := range n.shard.workers {
		close(wk.start)
	}
}

// region maps an interned channel id to its owning shard.
func (n *Network) region(id int32) int {
	return int(uint32(id)>>regionBlockShift) % n.shard.n
}

// regionMask returns the set of regions the worm's next advance touches:
// the head channel's region (path), the whole frontier's regions (tree),
// or an arbitrary stable region for draining worms that touch no channel.
func (n *Network) regionMask(w *worm) uint64 {
	if w.kind == pathWorm {
		if w.headIdx < len(w.chans) {
			return 1 << uint(n.region(w.chans[w.headIdx]))
		}
	} else if w.headIdx < len(w.levels) {
		var m uint64
		for _, id := range w.levels[w.headIdx].channels {
			m |= 1 << uint(n.region(id))
		}
		return m
	}
	return 1 << (uint(w.id) % uint(n.shard.n))
}

// stepSharded is Step for shard.n > 1: snapshot the round, run the
// parallel scan when it pays, then fold the outcomes in serial id order.
func (n *Network) stepSharded() bool {
	n.cycle++
	n.progress = false
	n.fireTimers()
	n.mergeWokenNext()

	s := &n.shard
	s.round = s.round[:0]
	for _, wi := range n.active {
		w := &n.slots[wi]
		if w.done {
			continue // killed by a fault while on the active list
		}
		s.round = append(s.round, roundEntry{wi: wi, mask: w.mask})
	}
	// Below one worm per worker the dispatch overhead cannot pay; the
	// fold then advances every worm itself (recNone), which is exactly
	// the serial engine.
	dispatched := len(s.round) >= s.n
	if dispatched {
		if cap(s.records) < len(s.round) {
			s.records = make([]shardRec, len(s.round))
		}
		s.records = s.records[:len(s.round)]
		for i := range s.records {
			s.records[i] = shardRec{}
		}
		for _, wk := range s.workers {
			wk.events = wk.events[:0]
			wk.rels = wk.rels[:0]
			wk.splits = wk.splits[:0]
		}
		s.wg.Add(s.n)
		for _, wk := range s.workers {
			wk.start <- struct{}{}
		}
		s.wg.Wait()
	}
	n.fold(dispatched)
	return n.progress || n.sleepers > 0
}

// fold commits the round in ascending worm-id order, merged with worms
// woken mid-fold by committed releases — the exact scan order of the
// serial engine, so every callback, wake and state change lands in the
// serial position.
func (n *Network) fold(dispatched bool) {
	s := &n.shard
	for i := range s.splitCursor {
		s.splitCursor[i] = 0
	}
	n.inStep = true
	next := n.nextBuf[:0]
	i := 0
	for {
		var wi wormRef
		pos := -1
		if len(n.wokenNow) > 0 && (i >= len(s.round) || n.slots[n.wokenNow[0]].id < n.slots[s.round[i].wi].id) {
			wi = n.wokenPop()
			w := &n.slots[wi]
			w.wakePending = false
			if w.done || !w.parked {
				// A worm woken by a fold release before its own round
				// record was committed may have moved (or died) at that
				// record; the wake is then already served.
				continue
			}
			w.parked = false
		} else if i < len(s.round) {
			pos = i
			wi = s.round[i].wi
			i++
			if n.slots[wi].done {
				continue
			}
		} else {
			break
		}
		w := &n.slots[wi]
		n.scanID = w.id
		if pos >= 0 && dispatched && s.records[pos].state != recNone {
			n.foldRecord(pos, wi, &next)
			continue
		}
		// No worker record (undispatched round, or a mid-fold wake): the
		// fold position is the serial scan position, so the serial
		// advance applies verbatim.
		var live bool
		if w.kind == pathWorm {
			live = n.advancePath(wi, w)
		} else {
			live = n.advanceTree(wi, w)
		}
		if !live {
			n.retire(wi)
		} else if !w.parked {
			w.mask = n.regionMask(w)
			if !n.sleepDrain(wi, w) {
				next = append(next, wi)
			}
		}
	}
	n.inStep = false
	n.nextBuf = n.active[:0]
	n.active = next
}

// foldRecord commits one worker-produced round outcome at the worm's
// serial scan position.
func (n *Network) foldRecord(pos int, wi wormRef, next *[]wormRef) {
	s := &n.shard
	rec := &s.records[pos]
	w := &n.slots[wi]
	switch rec.state {
	case recParked:
		// Blocked in place. A later fold release may still wake it into
		// this cycle through the heap, as in the serial engine.
	case recMoved:
		n.progress = true
		wk := s.workers[rec.worker]
		for _, ev := range wk.events[rec.evLo:rec.evHi] {
			n.emitDelivery(ev)
		}
		for _, id := range wk.rels[rec.relLo:rec.relHi] {
			n.release(id, wi)
		}
		if rec.retired {
			n.retire(wi)
		} else if !n.sleepDrain(wi, w) {
			*next = append(*next, wi)
		}
	case recKilled:
		n.killWorm(wi)
	case recSplit:
		// Aggregate the frontier channels every involved worker claimed,
		// then rerun the serial tree advance: it skips the already-queued
		// and already-taken channels, picks up any frontier channel a
		// fold release just freed (exactly what the serial scan would see
		// at this position), and performs the lock-step move with its
		// deliveries and releases inline.
		l := &w.levels[w.headIdx]
		taken := int(rec.claims)
		for m := s.round[pos].mask &^ (1 << uint(rec.worker)); m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			wk := s.workers[k]
			for s.splitCursor[k] < len(wk.splits) && wk.splits[s.splitCursor[k]].pos < int32(pos) {
				s.splitCursor[k]++
			}
			if s.splitCursor[k] < len(wk.splits) && wk.splits[s.splitCursor[k]].pos == int32(pos) {
				taken += int(wk.splits[s.splitCursor[k]].claims)
				s.splitCursor[k]++
			}
		}
		l.missing -= taken
		l.queued = true
		w.parked = false
		if live := n.advanceTree(wi, w); !live {
			n.retire(wi)
		} else if !w.parked {
			w.mask = n.regionMask(w)
			if !n.sleepDrain(wi, w) {
				*next = append(*next, wi)
			}
		}
	}
}

// emitDelivery fires the delivery observers and multicast accounting for
// one buffered delivery — deliver() with the worm-side bookkeeping
// already done by the worker.
func (n *Network) emitDelivery(ev shardEvent) {
	if n.onDelivery != nil {
		n.onDelivery(ev.dest, ev.latency)
	}
	if n.onDeliveryDetail != nil {
		n.onDeliveryDetail(ev.dest, ev.latency, n.mcSlots[ev.mc].size)
	}
	mc := &n.mcSlots[ev.mc]
	mc.remaining--
	if mc.remaining == 0 && mc.lost == 0 {
		if n.onComplete != nil {
			n.onComplete(n.cycle - mc.spawned)
		}
		if n.onCompleteTag != nil {
			n.onCompleteTag(mc.tag, n.cycle-mc.spawned)
		}
	}
}

func (wk *shardWorker) loop() {
	for range wk.start {
		wk.scan()
		wk.n.shard.wg.Done()
	}
}

// scan is one worker's parallel round: advance every round worm whose
// mask intersects this region — alone for single-region worms,
// cooperatively for trees whose frontier spans regions. Slots never grows
// during a round, so the *worm taken per entry stays valid.
func (wk *shardWorker) scan() {
	n := wk.n
	round := n.shard.round
	bit := uint64(1) << uint(wk.idx)
	for i := range round {
		e := &round[i]
		if e.mask&bit == 0 {
			continue
		}
		w := &n.slots[e.wi]
		if e.mask&(e.mask-1) == 0 {
			if w.kind == pathWorm {
				wk.advancePath(i, e.wi, w)
			} else {
				wk.advanceTree(i, e.wi, w)
			}
		} else {
			wk.advanceSplit(i, e.wi, w, e.mask)
		}
	}
}

// advancePath is advancePath for a worker: identical state transitions on
// region-local channels, with deliveries, releases and kills buffered for
// the fold.
func (wk *shardWorker) advancePath(pos int, wi wormRef, w *worm) {
	n := wk.n
	rec := shardRec{worker: uint8(wk.idx), evLo: int32(len(wk.events)), relLo: int32(len(wk.rels))}
	if w.headIdx < len(w.chans) {
		id := w.chans[w.headIdx]
		owner := n.chanOwner[id]
		if owner == deadChan {
			rec.state = recKilled
			n.shard.records[pos] = rec
			return
		}
		if owner == noWorm && n.chanFreeFor(id, wi) {
			n.chanTake(id, wi)
			w.headIdx++
			w.progress++
		} else {
			if w.queuedAt != w.headIdx {
				n.chanEnqueue(id, wi)
				w.queuedAt = w.headIdx
			}
			w.parked = true
			rec.state = recParked
			n.shard.records[pos] = rec
			return
		}
	} else {
		w.progress++
	}
	for i := range w.deliveries {
		d := &w.deliveries[i]
		if !d.done && w.progress >= d.idx+w.length-1 {
			d.done = true
			w.undeliv--
			wk.events = append(wk.events, shardEvent{dest: d.dest, latency: n.cycle - w.spawned, mc: w.mcast})
		}
	}
	for w.released < len(w.chans) && w.progress >= w.released+w.length {
		wk.rels = append(wk.rels, w.chans[w.released])
		w.released++
	}
	rec.state = recMoved
	rec.evHi = int32(len(wk.events))
	rec.relHi = int32(len(wk.rels))
	if w.released < len(w.chans) || w.undeliv > 0 {
		w.mask = n.regionMask(w)
	} else {
		rec.retired = true
	}
	n.shard.records[pos] = rec
}

// advanceTree is advanceTree for a worker whose region covers the whole
// frontier.
func (wk *shardWorker) advanceTree(pos int, wi wormRef, w *worm) {
	n := wk.n
	rec := shardRec{worker: uint8(wk.idx), evLo: int32(len(wk.events)), relLo: int32(len(wk.rels))}
	if w.headIdx < len(w.levels) {
		l := &w.levels[w.headIdx]
		for _, id := range l.channels {
			if n.chanOwner[id] == deadChan {
				rec.state = recKilled
				n.shard.records[pos] = rec
				return
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
		if l.missing > 0 {
			w.parked = true
			rec.state = recParked
			n.shard.records[pos] = rec
			return
		}
		w.headIdx++
		w.progress++
	} else {
		w.progress++
	}
	for i := range w.deliveries {
		d := &w.deliveries[i]
		if !d.done && w.progress >= d.idx+w.length-1 {
			d.done = true
			w.undeliv--
			wk.events = append(wk.events, shardEvent{dest: d.dest, latency: n.cycle - w.spawned, mc: w.mcast})
		}
	}
	for w.released < len(w.levels) && w.progress >= w.released+w.length {
		for _, id := range w.levels[w.released].channels {
			wk.rels = append(wk.rels, id)
		}
		w.released++
	}
	rec.state = recMoved
	rec.evHi = int32(len(wk.events))
	rec.relHi = int32(len(wk.rels))
	if w.released < len(w.levels) || w.undeliv > 0 {
		w.mask = n.regionMask(w)
	} else {
		rec.retired = true
	}
	n.shard.records[pos] = rec
}

// advanceSplit handles this worker's share of a tree frontier that spans
// regions: enqueue and claim only the region-local frontier channels (in
// frontier order, matching the serial engine's per-channel op order). The
// primary (lowest-region) worker records the outcome; others report their
// claims through a side list the fold aggregates. Writes are disjoint by
// construction: each worker touches only its region's channel-state
// slots and its region's l.taken elements, and only the primary writes
// w.parked.
func (wk *shardWorker) advanceSplit(pos int, wi wormRef, w *worm, mask uint64) {
	n := wk.n
	primary := bits.TrailingZeros64(mask) == wk.idx
	l := &w.levels[w.headIdx]
	for _, id := range l.channels {
		// chanDead, not the owner word: frontier channels of other regions
		// have owners being written by their workers right now.
		if n.chanDead[id] {
			// Unanimous verdict: dead flags are stable within a cycle, so
			// every involved worker returns here without touching state.
			if primary {
				n.shard.records[pos] = shardRec{state: recKilled, worker: uint8(wk.idx)}
			}
			return
		}
	}
	claims := int32(0)
	for i, id := range l.channels {
		if n.region(id) != wk.idx || l.taken[i] {
			continue
		}
		if !l.queued {
			n.chanEnqueue(id, wi)
		}
		if n.chanAvailableToQueued(id, wi) {
			n.chanTake(id, wi)
			l.taken[i] = true
			claims++
		}
	}
	if primary {
		// Parked pre-emptively so fold releases can wake the worm; the
		// fold unparks it if the aggregated claims complete the frontier.
		w.parked = true
		n.shard.records[pos] = shardRec{state: recSplit, worker: uint8(wk.idx), claims: claims}
	} else if claims > 0 {
		wk.splits = append(wk.splits, splitClaim{pos: int32(pos), claims: claims})
	}
}
