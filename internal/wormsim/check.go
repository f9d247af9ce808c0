package wormsim

import "fmt"

// ckScratch is CheckInvariants' reusable state: the audit used to build
// maps of channel owners and multicast tallies on every call, which made
// -simcheck runs allocate per cycle and distorted profiles. All
// bookkeeping is now epoch-stamped slice scratch indexed by channel id,
// worm slot, and multicast slot; only an actual violation (which ends the
// run) allocates.
type ckScratch struct {
	ownerStamp []int64   // per channel: owner[] valid when == epoch
	owner      []wormRef // per channel: accounted holder this epoch
	wormStamp  []int64   // per worm slot: queue-membership marks
	mcStamp    []int64   // per multicast slot: tallied this epoch
	mcUndeliv  []int32   // per multicast slot: undelivered owed by live worms
	mcList     []int32   // multicasts tallied this epoch, first-seen order
	epoch      int64
}

// CheckInvariants audits the full simulator state and returns the first
// violation found, or nil. It is the safety net behind the -simcheck
// flag and the determinism tests: any bookkeeping drift between worms,
// channels, queues, and multicast accounting is caught at the cycle it
// happens instead of surfacing as silently wrong statistics.
//
// Invariants checked:
//
//   - accounting: the live-worm count matches inFlight;
//   - flit conservation: every worm's released/head/progress counters
//     are mutually consistent and within route bounds, so no flit is
//     created or destroyed by the pipeline arithmetic;
//   - channel ownership: every held channel is held by exactly the worm
//     whose state says it holds it (no double-occupancy, no orphans),
//     and failed channels are never owned;
//   - queue consistency: wait queues contain only live worms, at most
//     once each;
//   - delivery conservation: per-worm undelivered counts match the
//     delivery flags, and each multicast's remaining+lost+delivered
//     partitions its destination set;
//   - drain timers: only fully routed worms sleep, and the sleeper count
//     matches the live worms asleep.
func (n *Network) CheckInvariants() error {
	ck := &n.ck
	ck.epoch++
	base := ck.epoch
	if len(ck.ownerStamp) < len(n.chanOwner) {
		grow := len(n.chanOwner) - len(ck.ownerStamp)
		ck.ownerStamp = append(ck.ownerStamp, make([]int64, grow)...)
		ck.owner = append(ck.owner, make([]wormRef, grow)...)
	}
	if len(ck.wormStamp) < len(n.slots) {
		ck.wormStamp = append(ck.wormStamp, make([]int64, len(n.slots)-len(ck.wormStamp))...)
	}
	if len(ck.mcStamp) < len(n.mcSlots) {
		grow := len(n.mcSlots) - len(ck.mcStamp)
		ck.mcStamp = append(ck.mcStamp, make([]int64, grow)...)
		ck.mcUndeliv = append(ck.mcUndeliv, make([]int32, grow)...)
	}
	ck.mcList = ck.mcList[:0]
	live, asleep := 0, 0
	for _, wi := range n.worms {
		w := &n.slots[wi]
		if w.done {
			continue
		}
		live++
		if w.wakeAt != 0 {
			asleep++
			if w.headIdx < w.routeLen() {
				return fmt.Errorf("wormsim: worm %d sleeps with its header at %d of %d", w.id, w.headIdx, w.routeLen())
			}
		}
		holds := func(id int32) error {
			if ck.ownerStamp[id] == base {
				return fmt.Errorf("wormsim: channel %d held by worms %d and %d", id, n.slots[ck.owner[id]].id, w.id)
			}
			ck.ownerStamp[id] = base
			ck.owner[id] = wi
			if n.chanOwner[id] == deadChan {
				return fmt.Errorf("wormsim: worm %d holds failed channel %d", w.id, id)
			}
			if n.chanOwner[id] != wi {
				return fmt.Errorf("wormsim: worm %d believes it holds channel %d owned by someone else", w.id, id)
			}
			return nil
		}
		if w.kind == pathWorm {
			if w.released < 0 || w.released > w.headIdx || w.headIdx > len(w.chans) {
				return fmt.Errorf("wormsim: worm %d counters out of order: released %d head %d len %d",
					w.id, w.released, w.headIdx, len(w.chans))
			}
			if w.progress < w.headIdx || w.progress > len(w.chans)+w.length {
				return fmt.Errorf("wormsim: worm %d flit miscount: progress %d head %d len %d length %d",
					w.id, w.progress, w.headIdx, len(w.chans), w.length)
			}
			for i := w.released; i < w.headIdx; i++ {
				if err := holds(w.chans[i]); err != nil {
					return err
				}
			}
		} else {
			if w.released < 0 || w.released > w.headIdx || w.headIdx > len(w.levels) {
				return fmt.Errorf("wormsim: tree worm %d counters out of order: released %d head %d levels %d",
					w.id, w.released, w.headIdx, len(w.levels))
			}
			if w.progress < w.headIdx || w.progress > len(w.levels)+w.length {
				return fmt.Errorf("wormsim: tree worm %d flit miscount: progress %d head %d levels %d length %d",
					w.id, w.progress, w.headIdx, len(w.levels), w.length)
			}
			for li := w.released; li < w.headIdx; li++ {
				for _, id := range w.levels[li].channels {
					if err := holds(id); err != nil {
						return err
					}
				}
			}
			if w.headIdx < len(w.levels) {
				l := &w.levels[w.headIdx]
				for i, id := range l.channels {
					if l.taken[i] {
						if err := holds(id); err != nil {
							return err
						}
					}
				}
			}
		}
		undeliv := 0
		for _, d := range w.deliveries {
			if !d.done {
				undeliv++
			}
		}
		if undeliv != w.undeliv {
			return fmt.Errorf("wormsim: worm %d undelivered count %d but %d deliveries pending",
				w.id, w.undeliv, undeliv)
		}
		if ck.mcStamp[w.mcast] != base {
			ck.mcStamp[w.mcast] = base
			ck.mcUndeliv[w.mcast] = 0
			ck.mcList = append(ck.mcList, w.mcast)
		}
		ck.mcUndeliv[w.mcast] += int32(undeliv)
	}
	if live != n.inFlight {
		return fmt.Errorf("wormsim: %d live worms but inFlight = %d", live, n.inFlight)
	}
	if asleep != n.sleepers {
		return fmt.Errorf("wormsim: %d live worms asleep but sleepers = %d", asleep, n.sleepers)
	}
	for id := range n.chanOwner {
		if o := n.chanOwner[id]; o >= 0 {
			if n.slots[o].done {
				return fmt.Errorf("wormsim: channel %d owned by retired worm %d", id, n.slots[o].id)
			}
			if ck.ownerStamp[id] != base || ck.owner[id] != o {
				return fmt.Errorf("wormsim: channel %d owner worm %d does not account for holding it",
					id, n.slots[o].id)
			}
		}
		// Queue-duplicate marks get a fresh epoch per channel (a worm may
		// legitimately wait on many channels at once).
		ck.epoch++
		for _, q := range n.chanWaiters(int32(id)) {
			if n.slots[q].done {
				return fmt.Errorf("wormsim: retired worm %d still queued on channel %d", n.slots[q].id, id)
			}
			if ck.wormStamp[q] == ck.epoch {
				return fmt.Errorf("wormsim: worm %d queued twice on channel %d", n.slots[q].id, id)
			}
			ck.wormStamp[q] = ck.epoch
		}
	}
	for _, mci := range ck.mcList {
		mc := &n.mcSlots[mci]
		if mc.remaining != int(ck.mcUndeliv[mci]) {
			return fmt.Errorf("wormsim: multicast remaining %d but live worms owe %d deliveries",
				mc.remaining, ck.mcUndeliv[mci])
		}
		if mc.remaining < 0 || mc.lost < 0 || mc.remaining+mc.lost > mc.size {
			return fmt.Errorf("wormsim: multicast accounting broken: size %d remaining %d lost %d",
				mc.size, mc.remaining, mc.lost)
		}
	}
	return nil
}
