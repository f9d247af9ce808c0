package main

import (
	"fmt"
	"time"

	"multicastnet/internal/routing"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/wormsim"
)

// paperInputs are the inputs of the Chapter-7 dynamic path: wormsim.Run
// with its built-in per-node generators, routed through the figures'
// route adapter (a PlanCache-backed registry router in structured form).
type paperInputs struct {
	topo      func() topology.Topology
	scheme    string
	interUs   float64 // per-node mean inter-arrival, microseconds
	avgDests  int
	msgBytes  int
	warmup    int
	batch     int
	maxCycles int64
	// sims is the number of independent simulations per repetition.
	// Near saturation one simulation's backlog, and so its host cost,
	// varies with its seed; several per repetition average that out.
	sims int
}

// paperOutcome is one repetition of the paper workload.
type paperOutcome struct {
	rep
	res        []wormsim.Result
	cacheStats routing.CacheStats
}

// paperRep runs in.sims fixed-budget simulations, seeded from seed,
// through one route adapter and its cache. The stopping rule is disabled
// (MinBatches is unreachable), so every simulation runs exactly
// maxCycles cycles.
func paperRep(in paperInputs, seed uint64, tr *tracer) (paperOutcome, error) {
	var out paperOutcome
	setupStart := time.Now()
	topo := in.topo()
	st, err := routing.NewState(topo)
	if err != nil {
		return out, err
	}
	r, err := routing.New(in.scheme, st)
	if err != nil {
		return out, err
	}
	if tr != nil {
		r = timingRouter{Router: r, tr: tr}
	}
	cache := routing.NewPlanCache(0)
	route := timedRoute(tr, wormsim.RouteFuncOf(routing.Cached(r, cache)))
	cfgs := make([]wormsim.Config, in.sims)
	for i := range cfgs {
		cfgs[i] = wormsim.Config{
			Topology:               topo,
			Route:                  route,
			MessageBytes:           in.msgBytes,
			MeanInterarrivalMicros: in.interUs,
			AvgDests:               in.avgDests,
			Seed:                   stats.DeriveSeed(seed, fmt.Sprintf("perfbench/paper/%d", i)),
			WarmupDeliveries:       in.warmup,
			BatchSize:              in.batch,
			MinBatches:             1 << 30,
			MaxCycles:              in.maxCycles,
		}
	}
	out.setup = time.Since(setupStart)

	timed := startTimed()
	for i, cfg := range cfgs {
		sp := tr.begin(spanRun, uint64(i))
		res, err := wormsim.Run(cfg)
		tr.end(sp)
		if err != nil {
			return out, err
		}
		out.res = append(out.res, res)
	}
	timed.stop(&out.rep)
	out.cacheStats = cache.Stats()
	for i, res := range out.res {
		out.attempted += res.MulticastsSent
		out.simCycles += res.Cycles
		switch {
		case res.Deadlocked:
			out.problems = append(out.problems, fmt.Sprintf("simulation %d deadlocked", i))
			out.failed += res.MulticastsSent
		case res.Lost > 0 || res.WormsKilled > 0:
			out.problems = append(out.problems, fmt.Sprintf("simulation %d lost %d deliveries", i, res.Lost))
			out.failed += res.MulticastsSent
		case res.Deliveries == 0:
			out.problems = append(out.problems, fmt.Sprintf("simulation %d measured no deliveries", i))
			out.failed += res.MulticastsSent
		case res.Cycles != in.maxCycles:
			out.problems = append(out.problems, fmt.Sprintf("simulation %d ran %d cycles, want %d",
				i, res.Cycles, in.maxCycles))
		}
	}
	return out, nil
}

// sim reports the Fig. 7.11 y-value (mean per-destination latency) as the
// mean over the repetition's simulations.
func (o *paperOutcome) sim() map[string]float64 {
	m := map[string]float64{
		"routing.cache_hits":      float64(o.cacheStats.Hits),
		"routing.cache_misses":    float64(o.cacheStats.Misses),
		"routing.cache_evictions": float64(o.cacheStats.Evictions),
	}
	n := float64(len(o.res))
	for _, r := range o.res {
		m["sim_latency_mean_us"] += r.AvgLatencyMicros / n
		m["sim_completion_mean_us"] += r.AvgCompletionMicros / n
		m["sim_throughput_per_ms"] += r.ThroughputPerMs / n
		m["multicasts_sent"] += float64(r.MulticastsSent)
		m["delivered"] += float64(r.Delivered)
		m["deliveries_measured"] += float64(r.Deliveries)
		m["cycles"] += float64(r.Cycles)
	}
	return m
}

func (o *paperOutcome) host() map[string]float64 {
	return map[string]float64{"sim_cycles_per_s": float64(o.simCycles) / o.wall.Seconds()}
}

// layer reports Run's self time (Run minus the route calls it makes) as
// the simulator's: Run is one call, so its stepping is not separable
// from its own generators and bookkeeping from outside.
func (o *paperOutcome) layer(tr *tracer) map[string]float64 {
	m := shares(tr, o.wall, 0)
	ns, n := tr.total(spanRoute)
	m["routing.route_ns_per_req"] = per(ns, n)
	ns, n = tr.total(spanPlan)
	m["routing.plan_ns_per_plan"] = per(ns, n)
	m["routing.plans"] = float64(n)
	m["routing.cache_hit_ratio"] = o.cacheStats.HitRate()
	m["routing.cache_evictions"] = float64(o.cacheStats.Evictions)
	self := tr.selfTimes()[spanRun]
	m["wormsim.run_self_s"] = float64(self) / 1e9
	m["wormsim.step_ns_per_cycle"] = per(self, int(o.simCycles))
	return m
}
