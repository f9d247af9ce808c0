package main

import (
	"fmt"
	"sort"
	"time"

	"multicastnet/internal/routing"
	"multicastnet/internal/sched"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/workload"
	"multicastnet/internal/wormsim"
)

// serveInputs are the inputs of one serve workload: a generated request
// stream served by the scheduling service over a simulated network.
type serveInputs struct {
	topo   func() topology.Topology
	scheme string
	spec   workload.Spec
	// poolSeed, when nonzero, pins the destination sets: they come from
	// the stream of spec under poolSeed, and only the arrival cycles come
	// from the run's seed (see pinnedSets).
	poolSeed  uint64
	window    int64 // admission window, cycles
	flits     int   // message length
	budget    int32 // packer congestion+dilation budget
	maxCycles int64
}

// serveConfig is the sched.ServeConfig equivalent of in over a fresh
// router and cache: what sched.Serve would run on the same inputs.
func (in serveInputs) serveConfig(seed uint64) (sched.ServeConfig, error) {
	topo := in.topo()
	st, err := routing.NewState(topo)
	if err != nil {
		return sched.ServeConfig{}, err
	}
	r, err := routing.New(in.scheme, st)
	if err != nil {
		return sched.ServeConfig{}, err
	}
	var stream workload.Source
	stream, err = workload.New(topo, in.spec, seed)
	if err != nil {
		return sched.ServeConfig{}, err
	}
	if in.poolSeed != 0 {
		sets, err := workload.New(topo, in.spec, in.poolSeed)
		if err != nil {
			return sched.ServeConfig{}, err
		}
		stream = pinnedSets{arrivals: stream, sets: sets}
	}
	cache := routing.NewPlanCache(0)
	return sched.ServeConfig{
		Service:      sched.Config{Router: routing.Flat(r, cache), Budget: in.budget, Workers: 1},
		Requests:     in.spec.Requests,
		WindowCycles: in.window,
		Flits:        in.flits,
		MaxCycles:    in.maxCycles,
		Workload:     stream,
		Cache:        cache,
	}, nil
}

// pinnedSets is a request stream whose arrival cycles come from one
// stream and whose sources and destination sets come from another.
type pinnedSets struct{ arrivals, sets workload.Source }

func (p pinnedSets) Next() (workload.Request, bool) {
	a, ok := p.arrivals.Next()
	if !ok {
		return a, false
	}
	r, ok := p.sets.Next()
	r.At = a.At
	return r, ok
}

// serveOutcome is one repetition of a serve workload.
type serveOutcome struct {
	rep
	res sched.ServeResult // the fields sched.Serve reports, computed alike

	reqWallMs      []float64 // host ms from arrival cycle to completion, per completed request
	admitWait      []float64 // simulated cycles from arrival to admission, per admission
	cyclesStepped  int64
	cyclesFF       int64
	stepNs         int64 // host ns inside Step/FastForward (traced only)
	admitted       uint64
	queueDepthMax  int
	activeWormsSum int64 // ActiveWorms() after each window's injections, summed
	cacheStats     routing.CacheStats
}

// serveRep builds the service anew and serves one stream to
// drain. It restates sched.Serve's workload loop call for call, so the
// benchmark can time each layer from outside; perfbench_test.go pins the
// two to the same ServeResult. tr == nil runs untraced: the bare router
// and no per-call timers.
func serveRep(in serveInputs, seed uint64, tr *tracer) (serveOutcome, error) {
	var out serveOutcome
	setupStart := time.Now()
	cfg, err := in.serveConfig(seed)
	if err != nil {
		return out, err
	}
	if tr != nil {
		cfg.Service.Router = routing.Flat(timingRouter{Router: cfg.Service.Router.Router, tr: tr}, cfg.Cache)
	}
	svc := sched.New(cfg.Service)
	net := wormsim.NewNetwork(cfg.Service.Router.State().Topology())
	stream := cfg.Workload
	n := cfg.Requests
	arrival := make([]int64, n)
	arrHost := make([]int64, n)
	doneCount := make([]uint8, n)
	out.reqWallMs = make([]float64, 0, n)
	latencies := make([]float64, 0, n)
	out.setup = time.Since(setupStart)

	timed := startTimed()
	stray := 0
	completed, submitted := 0, 0
	net.OnCompleteTag(func(tag uint64, _ int64) {
		if tag >= uint64(submitted) {
			stray++
			return
		}
		doneCount[tag]++
		latencies = append(latencies, float64(net.Cycle()-arrival[tag]))
		out.reqWallMs = append(out.reqWallMs, float64(timed.now()-arrHost[tag])/1e6)
		completed++
	})

	next := func() (workload.Request, bool) {
		i := tr.begin(spanNext, uint64(submitted))
		r, ok := stream.Next()
		tr.end(i)
		return r, ok
	}
	wlReq, wlOK := next()
	done := func() bool { return (!wlOK || submitted >= n) && completed >= submitted }
	var now int64
	nextWindow := cfg.WindowCycles
	window := uint64(0)
	sim := tr.begin(spanSimulate, window)
	for !done() && now < cfg.MaxCycles {
		for wlOK && submitted < n && wlReq.At <= now {
			i := tr.begin(spanSubmit, uint64(submitted))
			err := svc.Submit(uint64(submitted), wlReq.Src, wlReq.Dests)
			tr.end(i)
			if err != nil {
				return out, fmt.Errorf("submit request %d: %w", submitted, err)
			}
			arrival[submitted] = wlReq.At
			arrHost[submitted] = timed.now()
			submitted++
			wlReq, wlOK = next()
		}
		for nextWindow <= now {
			tr.end(sim)
			if p := svc.Pending(); p > out.queueDepthMax {
				out.queueDepthMax = p
			}
			w := tr.begin(spanWindow, window)
			for _, a := range svc.CloseWindow() {
				out.admitWait = append(out.admitWait, float64(now-arrival[a.ID]))
				i := tr.begin(spanInject, a.ID)
				net.InjectFlatTag(a.Flat, cfg.Flits, a.ID)
				tr.end(i)
			}
			tr.end(w)
			out.activeWormsSum += int64(net.ActiveWorms())
			nextWindow += cfg.WindowCycles
			window++
			sim = tr.begin(spanSimulate, window)
		}
		if done() {
			break
		}
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		if net.Idle() {
			// Nothing can move: jump to the next arrival or window close.
			target := nextWindow
			if wlOK && submitted < n && wlReq.At < target {
				target = wlReq.At
			}
			if target <= now {
				target = now + 1
			}
			net.FastForward(target)
			out.cyclesFF += net.Cycle() - now
		} else {
			net.Step()
			out.cyclesStepped++
		}
		if tr != nil {
			out.stepNs += tr.now() - t0
		}
		now = net.Cycle()
	}
	tr.end(sim)
	timed.stop(&out.rep)

	st := svc.Stats()
	out.cacheStats = cfg.Cache.Stats()
	out.admitted = st.Admitted
	out.res = sched.ServeResult{
		Requests:     submitted,
		Completed:    completed,
		Cycles:       now,
		Windows:      st.Windows,
		Deferrals:    st.Deferred,
		ForceAdmits:  st.ForceAdmits,
		PeakLoad:     st.PeakLoad,
		PeakDilation: st.PeakDilation,
		CacheLookups: st.Planned,
		Deadlocked:   net.Idle() && net.ActiveWorms() > 0,
	}
	if now > 0 {
		out.res.ThroughputPerKCycle = float64(completed) / float64(now) * 1000
	}
	if len(latencies) > 0 {
		sum := 0.0
		for _, l := range latencies {
			sum += l
		}
		out.res.MeanLatency = sum / float64(len(latencies))
		sort.Float64s(latencies)
		out.res.P50Latency = stats.Percentile(latencies, 0.50)
		out.res.P99Latency = stats.Percentile(latencies, 0.99)
	}
	if lookups := out.cacheStats.Hits + out.cacheStats.Misses; lookups > 0 {
		out.res.CacheHitRate = float64(out.cacheStats.Hits) / float64(lookups)
	}

	// Correctness: every submitted request id completes exactly once.
	out.attempted = submitted
	for id := 0; id < submitted; id++ {
		if doneCount[id] != 1 {
			out.failed++
		}
	}
	if wlOK && submitted >= n {
		// The stream offered more than the configured request count.
		out.problems = append(out.problems, "stream not exhausted at the request cap")
	}
	if stray > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d completions with unknown request ids", stray))
	}
	if out.res.Deadlocked {
		out.problems = append(out.problems, "network deadlocked")
	}
	out.simCycles = now
	return out, nil
}

func (o *serveOutcome) sim() map[string]float64 {
	r := o.res
	return map[string]float64{
		"sim_latency_p50_cycles":        r.P50Latency,
		"sim_latency_p99_cycles":        r.P99Latency,
		"sim_throughput_per_kcycle":     r.ThroughputPerKCycle,
		"sim_latency_mean_cycles":       r.MeanLatency,
		"completed":                     float64(r.Completed),
		"cycles":                        float64(r.Cycles),
		"sched.windows":                 float64(r.Windows),
		"sched.deferrals":               float64(r.Deferrals),
		"sched.force_admits":            float64(r.ForceAdmits),
		"sched.admitted":                float64(o.admitted),
		"sched.queue_depth_max":         float64(o.queueDepthMax),
		"sched.admit_wait_cycles_p99":   percentile(o.admitWait, 0.99),
		"sched.peak_load":               float64(r.PeakLoad),
		"sched.peak_dilation":           float64(r.PeakDilation),
		"routing.cache_hits":            float64(o.cacheStats.Hits),
		"routing.cache_misses":          float64(o.cacheStats.Misses),
		"routing.cache_evictions":       float64(o.cacheStats.Evictions),
		"wormsim.cycles_stepped":        float64(o.cyclesStepped),
		"wormsim.cycles_fast_forwarded": float64(o.cyclesFF),
		"wormsim.active_worms_sum":      float64(o.activeWormsSum),
	}
}

func (o *serveOutcome) host() map[string]float64 {
	return map[string]float64{
		"req_wall_p50_ms":  percentile(o.reqWallMs, 0.50),
		"req_wall_p99_ms":  percentile(o.reqWallMs, 0.99),
		"sim_cycles_per_s": float64(o.simCycles) / o.wall.Seconds(),
	}
}

func (o *serveOutcome) layer(tr *tracer) map[string]float64 {
	m := shares(tr, o.wall, o.stepNs)
	cw := tr.durations(spanWindow, spanInject) // the CloseWindow calls alone
	r := o.res
	put := func(name string, k spanKind) {
		ns, n := tr.total(k)
		m[name] = per(ns, n)
	}
	put("workload.next_ns_per_req", spanNext)
	put("sched.submit_ns_per_req", spanSubmit)
	put("routing.plan_ns_per_plan", spanPlan)
	put("wormsim.inject_ns_per_req", spanInject)
	_, plans := tr.total(spanPlan)
	m["routing.plans"] = float64(plans)
	m["sched.close_window_us_p50"] = percentile(cw, 0.50) / 1e3
	m["sched.close_window_us_p99"] = percentile(cw, 0.99) / 1e3
	m["sched.pack_self_s"] = float64(tr.selfTimes()[spanWindow]) / 1e9
	m["sched.windows"] = float64(r.Windows)
	m["sched.deferrals"] = float64(r.Deferrals)
	m["sched.force_admits"] = float64(r.ForceAdmits)
	m["sched.queue_depth_max"] = float64(o.queueDepthMax)
	m["sched.admit_ratio"] = float64(o.admitted) / float64(o.admitted+r.Deferrals)
	m["sched.admit_wait_cycles_p99"] = percentile(o.admitWait, 0.99)
	m["routing.cache_hit_ratio"] = r.CacheHitRate
	m["routing.cache_evictions"] = float64(o.cacheStats.Evictions)
	m["wormsim.step_ns_per_cycle"] = per(o.stepNs, int(o.cyclesStepped))
	m["wormsim.cycles_stepped"] = float64(o.cyclesStepped)
	m["wormsim.cycles_fast_forwarded"] = float64(o.cyclesFF)
	m["wormsim.active_worms_mean"] = float64(o.activeWormsSum) / float64(r.Windows)
	return m
}
