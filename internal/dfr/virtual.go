package dfr

import (
	"multicastnet/internal/core"
	"multicastnet/internal/labeling"
	"multicastnet/internal/topology"
)

// VirtualChannelPathOn implements the Section 8.2 extension the
// dissertation leaves as future work: "the network may be partitioned
// into many sub-networks [using virtual channels]. The set of destination
// nodes then may be distributed to different sub-networks to support
// multiple multicast paths."
//
// With v channel copies per direction the network splits into v
// independent high/low subnetwork pairs. The high destinations, sorted by
// label, are divided into v contiguous label blocks, one per copy, and
// likewise the low destinations; each block is routed as a label-monotone
// path in its own copy. Every copy network carries only monotone paths,
// so each copy's channel dependency graph is acyclic and the scheme is
// deadlock-free for any v. v = 1 is exactly dual-path routing; growing v
// trades extra startup legs for shorter per-path visit sequences without
// concentrating all paths on the source's physical out-channels of a
// single copy.
//
// Channel classes are assigned as 2*copy for high paths and 2*copy+1 for
// low paths, so all 2v subnetworks are disjoint even on topologies where
// a physical link could carry both a high and a low path of different
// source pairs.
func VirtualChannelPathOn(tb *core.Tables, k core.MulticastSet, v int) Star {
	if v < 1 {
		panic("dfr: virtual channel count must be at least 1")
	}
	dh, dl := HighLowPartition(tb, k)
	var specBuf [16]pathSpec
	specs := appendBlocks(specBuf[:0], k.Source, dh, v, 0)
	specs = appendBlocks(specs, k.Source, dl, v, 1)
	return Star{Source: k.Source, Paths: routePaths(tb, k.Source, specs, nil)}
}

// VirtualChannelPath is VirtualChannelPathOn over tables built from
// (t, l) for this one multicast.
func VirtualChannelPath(t topology.Topology, l labeling.Labeling, k core.MulticastSet, v int) Star {
	return VirtualChannelPathOn(core.NewTables(t, l), k, v)
}

// appendBlocks divides an ordered destination list into at most v
// contiguous, non-empty, nearly equal blocks and appends one spec per
// block, block i on channel class 2*i+parity.
func appendBlocks(specs []pathSpec, src topology.NodeID, dests []topology.NodeID, v, parity int) []pathSpec {
	if len(dests) == 0 {
		return specs
	}
	if v > len(dests) {
		v = len(dests)
	}
	base := len(dests) / v
	extra := len(dests) % v
	start := 0
	for i := 0; i < v; i++ {
		size := base
		if i < extra {
			size++
		}
		end := start + size
		specs = append(specs, pathSpec{via: src, dests: dests[start:end:end], class: 2*i + parity})
		start = end
	}
	return specs
}
