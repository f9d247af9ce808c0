// Command perfbench is the repository's benchmark: it drives the
// program's layers — workload, sched (planning through routing, then
// packing), wormsim and heuristics — from outside, on named workloads,
// and prints every end-to-end metric with its unit after checking the
// outputs. A traced run (-trace 1) times each call into a layer and
// prints per-layer metrics and each layer's share of the timed wall time.
//
// Usage:
//
//	go run . -workload bursty-mesh64 -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// human-readable table and a full JSON record (host fingerprint,
// provenance, every metric that applies to the workload).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
	"multicastnet/internal/workload"
)

// rep is what every repetition reports, whatever its workload.
type rep struct {
	setup, wall   time.Duration
	attempted     int // requests offered
	failed        int // requests lost, duplicated, past the cycle cap or failing validation
	simCycles     int64
	peakRSSMiB    float64 // peak resident memory of the repetition (of the process so far if the kernel cannot reset the peak)
	allocs        uint64  // heap objects allocated in the timed section
	gcCPUFraction float64 // share of available CPU the collector used in the timed section
	problems      []string
}

func (r *rep) base() *rep { return r }

// outcome is one repetition of a workload.
type outcome interface {
	base() *rep
	// sim returns the repetition's deterministic outputs: simulated
	// metrics and counts, identical for every repetition of one seed.
	sim() map[string]float64
	// host returns the host-timed end-to-end metrics particular to the
	// workload.
	host() map[string]float64
	// layer returns the per-layer metrics of a traced repetition.
	layer(tr *tracer) map[string]float64
}

// workloadDef is one named workload. claim is the layer-share bound that
// makes the workload measure the layer it was chosen for; a traced run
// reports whether it holds.
type workloadDef struct {
	name, why string
	run       func(seed uint64, tr *tracer) (outcome, error)
	claim     shareClaim
}

// shareClaim bounds one layer's share of the timed wall time to [min, max].
type shareClaim struct {
	layer    string
	min, max float64
}

func (c shareClaim) String() string {
	if c.max < 1 {
		return fmt.Sprintf("%s < %.0f%%", c.layer, 100*c.max)
	}
	return fmt.Sprintf("%s >= %.0f%%", c.layer, 100*c.min)
}

// The workloads' inputs. Sizes are chosen so that one repetition takes
// 0.5-1.5 s on a 2-core x86-64 host, leaving tens of repetitions (and
// set-ups) per run to take medians over.
var (
	burstyMesh64 = serveInputs{
		topo:   func() topology.Topology { return topology.NewMesh2D(64, 64) },
		scheme: "dual-path",
		spec: workload.Spec{Model: workload.ModelZipf, Arrivals: workload.ArrivalsOnOff,
			Requests: 16000, Groups: 256, AvgDests: 4, ZipfS: 1.2, MeanGap: 16},
		// The committed workload study's mesh pool and group sequence.
		// Host time per request varies 7x between random pools (hot
		// groups whose route dilation alone exceeds the budget are
		// deferred up to MaxDefer times each), so the pool is pinned and
		// the seed varies only the arrival cycles.
		poolSeed: stats.DeriveSeed(1990, "workload/mesh/bursty"),
		window:   256, flits: 32, budget: 220, maxCycles: 4_000_000,
	}
	uniformCube12 = serveInputs{
		topo:   func() topology.Topology { return topology.NewHypercube(12) },
		scheme: "multi-path",
		spec: workload.Spec{Model: workload.ModelUniform, Arrivals: workload.ArrivalsPoisson,
			Requests: 12000, Groups: 48000, AvgDests: 4, MeanGap: 8},
		window: 256, flits: 32, budget: 220, maxCycles: 4_000_000,
	}
	paperMesh8 = paperInputs{
		topo:     func() topology.Topology { return topology.NewMesh2D(8, 8) },
		scheme:   "dual-path",
		interUs:  300,
		avgDests: 10,
		msgBytes: 128,
		warmup:   2000,
		batch:    1000,
		// The committed figures' cycle budget (DynamicDefaults).
		maxCycles: 1_000_000,
		sims:      4,
	}
	staticKernels = staticInputs{ks: []int{1, 2, 5, 10, 20, 50, 100, 200}, setsPerK: 8}
)

var workloads = []workloadDef{
	{"bursty-mesh64", "Zipf groups in ON/OFF bursts on a 64x64 mesh: plan-cache hits, so sched packing dominates and bursts make it defer",
		func(seed uint64, tr *tracer) (outcome, error) {
			o, err := serveRep(burstyMesh64, seed, tr)
			return &o, err
		}, shareClaim{"routing", 0, 0.05}},
	{"uniform-cube12", "uniform sets from a pool 4x the stream on a 4096-node hypercube: plan-cache misses, so routing planning is a large share",
		func(seed uint64, tr *tracer) (outcome, error) {
			o, err := serveRep(uniformCube12, seed, tr)
			return &o, err
		}, shareClaim{"routing", 0.20, 1}},
	{"paper-mesh8", "the Fig. 7.11 high-load point through wormsim.Run on an 8x8 mesh: the Chapter-7 path of every dynamic figure (generators, cached route adapter, simulator)",
		func(seed uint64, tr *tracer) (outcome, error) {
			o, err := paperRep(paperMesh8, seed, tr)
			return &o, err
		}, shareClaim{"wormsim", 0.80, 1}},
	{"static-kernels", "Section 7.1 multicast sets routed by the Chapter-5 kernels on the 32x32 mesh and 10-cube: the only path into heuristics",
		func(seed uint64, tr *tracer) (outcome, error) {
			o, err := staticRep(staticKernels, seed, tr)
			return &o, err
		}, shareClaim{"heuristics", 0.80, 1}},
}

// metricDef describes one reported metric. kind is "host" for a
// measurement of host time or memory, "sim" for a deterministic
// simulated or counted value.
type metricDef struct {
	unit, better, kind string
}

// endToEnd are the metrics every workload reports with tracing off, on
// the last output line.
var endToEnd = []string{"requests_per_s", "peak_rss_mib", "setup_s"}

// recordEndToEnd are the end-to-end metrics of the full record; each
// workload reports those that apply to it.
var recordEndToEnd = []string{"requests_per_s", "setup_s", "peak_rss_mib", "req_wall_p50_ms",
	"req_wall_p99_ms", "sim_cycles_per_s", "sim_latency_p50_cycles", "sim_latency_p99_cycles",
	"sim_throughput_per_kcycle", "sim_latency_mean_us", "failed_ratio"}

var metricDefs = map[string]metricDef{
	"requests_per_s":            {"1/s", "higher", "host"},
	"setup_s":                   {"s", "lower", "host"},
	"peak_rss_mib":              {"MiB", "lower", "host"},
	"req_wall_p50_ms":           {"ms", "lower", "host"},
	"req_wall_p99_ms":           {"ms", "lower", "host"},
	"sim_cycles_per_s":          {"1/s", "higher", "host"},
	"sim_latency_p50_cycles":    {"cycles", "lower", "sim"},
	"sim_latency_p99_cycles":    {"cycles", "lower", "sim"},
	"sim_throughput_per_kcycle": {"1/kcycle", "higher", "sim"},
	"sim_latency_mean_us":       {"us", "lower", "sim"},
	"failed_ratio":              {"ratio", "lower", "sim"},

	"workload.next_ns_per_req":      {"ns", "lower", "host"},
	"sched.submit_ns_per_req":       {"ns", "lower", "host"},
	"sched.close_window_us_p50":     {"us", "lower", "host"},
	"sched.close_window_us_p99":     {"us", "lower", "host"},
	"sched.pack_self_s":             {"s", "lower", "host"},
	"sched.windows":                 {"count", "lower", "sim"},
	"sched.deferrals":               {"count", "lower", "sim"},
	"sched.force_admits":            {"count", "lower", "sim"},
	"sched.queue_depth_max":         {"count", "lower", "sim"},
	"sched.admit_ratio":             {"ratio", "higher", "sim"},
	"sched.admit_wait_cycles_p99":   {"cycles", "lower", "sim"},
	"routing.plan_ns_per_plan":      {"ns", "lower", "host"},
	"routing.plans":                 {"count", "lower", "sim"},
	"routing.cache_hit_ratio":       {"ratio", "higher", "sim"},
	"routing.cache_evictions":       {"count", "lower", "sim"},
	"routing.route_ns_per_req":      {"ns", "lower", "host"},
	"heuristics.allocs_per_set":     {"allocs", "lower", "host"},
	"wormsim.inject_ns_per_req":     {"ns", "lower", "host"},
	"wormsim.step_ns_per_cycle":     {"ns", "lower", "host"},
	"wormsim.cycles_stepped":        {"cycles", "lower", "sim"},
	"wormsim.cycles_fast_forwarded": {"cycles", "higher", "sim"},
	"wormsim.active_worms_mean":     {"worms", "lower", "sim"},
	"wormsim.run_self_s":            {"s", "lower", "host"},
	"go.allocs_per_req":             {"allocs", "lower", "host"},
	"go.gc_cpu_fraction":            {"ratio", "lower", "host"},
	"trace.rps_ratio":               {"ratio", "higher", "host"},
}

func init() {
	for _, k := range kernelNames {
		metricDefs["heuristics."+k+".ns_per_set"] = metricDef{"ns", "lower", "host"}
	}
	for _, l := range layers {
		metricDefs["share."+l] = metricDef{"ratio", "lower", "host"}
	}
	metricDefs["share.harness"] = metricDef{"ratio", "lower", "host"}
}

// perLayer are the metrics every workload reports with tracing on; a
// metric of a layer the workload never calls reads 0.
func perLayer() []string {
	names := []string{
		"workload.next_ns_per_req",
		"sched.submit_ns_per_req", "sched.close_window_us_p50", "sched.close_window_us_p99",
		"sched.pack_self_s", "sched.windows", "sched.deferrals", "sched.force_admits",
		"sched.queue_depth_max", "sched.admit_ratio", "sched.admit_wait_cycles_p99",
		"routing.plan_ns_per_plan", "routing.plans", "routing.cache_hit_ratio",
		"routing.cache_evictions", "routing.route_ns_per_req",
	}
	for _, k := range kernelNames {
		names = append(names, "heuristics."+k+".ns_per_set")
	}
	names = append(names, "heuristics.allocs_per_set",
		"wormsim.inject_ns_per_req", "wormsim.step_ns_per_cycle", "wormsim.cycles_stepped",
		"wormsim.cycles_fast_forwarded", "wormsim.active_worms_mean", "wormsim.run_self_s",
		"go.allocs_per_req", "go.gc_cpu_fraction")
	for _, l := range layers {
		names = append(names, "share."+l)
	}
	return append(names, "share.harness", "trace.rps_ratio")
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// recordMetric is one metric of the full record.
type recordMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Kind   string  `json:"kind"`
}

// record is the full result of a run: provenance, host and every metric
// that applies to the workload.
type record struct {
	Workload  string                  `json:"workload"`
	Seed      uint64                  `json:"seed"`
	Seconds   int                     `json:"seconds"`
	Trace     int                     `json:"trace"`
	Commit    string                  `json:"commit"`
	Host      hostInfo                `json:"host"`
	Reps      int                     `json:"reps"`
	Traced    int                     `json:"traced_reps"`
	Correct   bool                    `json:"correct"`
	Problems  []string                `json:"problems,omitempty"`
	Metrics   map[string]recordMetric `json:"metrics"`
	SimDigest map[string]float64      `json:"sim_outputs"`
	// RSSPerRep reports that peak_rss_mib is the median of per-repetition
	// peaks; false means the kernel refused the reset and each
	// repetition read the process peak so far.
	RSSPerRep bool `json:"peak_rss_per_rep"`
	// RepRPS is requests_per_s of every untraced repetition, in run
	// order: the within-run spread behind the median.
	RepRPS []float64 `json:"rep_requests_per_s"`
	// ShareClaim reports whether the workload's layer-share claim held
	// in a traced run.
	ShareClaim string `json:"share_claim,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 times every layer call (per-layer metrics); 0 measures end to end")
	commit := flag.String("commit", "unknown", "commit the program was built from")
	outDir := flag.String("out", ".bench_out", "directory for the spans of a traced run's last traced repetition")
	flag.Parse()
	var def *workloadDef
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload one of %s, -seconds >= 1, -trace 0|1\n",
			strings.Join(names, ", "))
		return 2
	}
	traced := *traceFlag == 1

	// Repeat the workload until the measured time is spent; with tracing
	// on, traced and untraced repetitions alternate so the tracing
	// overhead is measured on the same host at the same time.
	var outs, plain, tracedReps []outcome
	layer := map[string][]float64{} // per-layer values of the traced repetitions
	var lastTrace *tracer
	start := time.Now()
	perRepRSS := false
	minReps := 3
	if traced {
		minReps = 4
	}
	for len(outs) < minReps || time.Since(start) < time.Duration(*seconds)*time.Second {
		var tr *tracer
		if traced && len(outs)%2 == 1 {
			tr = newTracer()
		}
		// Start every repetition from a collected heap with its freed
		// pages returned and the kernel's peak count reset, so each
		// repetition's peak resident memory is its own, not that of
		// garbage earlier ones left.
		debug.FreeOSMemory()
		perRepRSS = resetPeakRSS()
		o, err := def.run(*seed, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
			return 1
		}
		o.base().peakRSSMiB = peakRSSMiB()
		outs = append(outs, o)
		if tr != nil {
			for name, v := range o.layer(tr) {
				layer[name] = append(layer[name], v)
			}
			tracedReps = append(tracedReps, o)
			lastTrace = tr
		} else {
			plain = append(plain, o)
		}
	}

	rec := record{Workload: def.name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag,
		Commit: *commit, Host: fingerprint(), Reps: len(outs), Traced: len(tracedReps),
		Metrics: map[string]recordMetric{}, RSSPerRep: perRepRSS}
	res := result{Metrics: map[string]value{}}

	// Correctness: no repetition failed a request or a check, and every
	// repetition of the seed produced the same simulated outputs.
	rec.SimDigest = outs[0].sim()
	for i, o := range outs {
		b := o.base()
		res.Attempted += b.attempted
		res.Failed += b.failed
		for _, p := range b.problems {
			rec.Problems = append(rec.Problems, fmt.Sprintf("rep %d: %s", i, p))
		}
		if !reflect.DeepEqual(o.sim(), rec.SimDigest) {
			rec.Problems = append(rec.Problems, fmt.Sprintf("rep %d: simulated outputs differ from rep 0", i))
		}
	}
	res.Correct = len(rec.Problems) == 0 && res.Failed == 0
	rec.Correct = res.Correct

	put := func(name string, v float64) {
		d, ok := metricDefs[name]
		if !ok {
			panic("perfbench: undeclared metric " + name)
		}
		rec.Metrics[name] = recordMetric{Value: v, Unit: d.unit, Better: d.better, Kind: d.kind}
	}
	rec.RepRPS = perRep(plain, requestsPerSecond)
	for name, v := range endToEndOf(plain) {
		put(name, v)
	}
	put("failed_ratio", float64(res.Failed)/math.Max(1, float64(res.Attempted)))
	if traced {
		// The runtime counters come from the untraced repetitions: span
		// recording allocates.
		layer["go.allocs_per_req"] = perRep(plain, func(b *rep) float64 {
			return float64(b.allocs) / math.Max(1, float64(b.attempted))
		})
		layer["go.gc_cpu_fraction"] = perRep(plain, func(b *rep) float64 { return b.gcCPUFraction })
		// Tracing overhead: traced over untraced requests_per_s.
		layer["trace.rps_ratio"] = []float64{
			median(perRep(tracedReps, requestsPerSecond)) / median(perRep(plain, requestsPerSecond))}
		for _, name := range perLayer() {
			v := 0.0
			if vs := layer[name]; len(vs) > 0 {
				v = median(vs)
			}
			put(name, v)
			res.Metrics[name] = value{v, metricDefs[name].unit}
		}
		if err := writeSpans(filepath.Join(*outDir, "spans-"+def.name+".csv"), lastTrace); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
	} else {
		for _, name := range endToEnd {
			res.Metrics[name] = value{rec.Metrics[name].Value, rec.Metrics[name].Unit}
		}
	}

	if traced {
		c := def.claim
		share := rec.Metrics["share."+c.layer].Value
		rec.ShareClaim = fmt.Sprintf("%v: measured %.1f%%, holds=%v", c, 100*share, share >= c.min && share < c.max)
	}
	printReport(os.Stdout, rec, traced)
	line, err := json.Marshal(rec)
	if err != nil {
		panic(err)
	}
	fmt.Printf("record: %s\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func requestsPerSecond(b *rep) float64 {
	return float64(b.attempted-b.failed) / b.wall.Seconds()
}

func perRep(outs []outcome, f func(*rep) float64) []float64 {
	vs := make([]float64, len(outs))
	for i, o := range outs {
		vs[i] = f(o.base())
	}
	return vs
}

// endToEndOf returns the medians over untraced repetitions of every
// end-to-end metric that applies to the workload.
func endToEndOf(outs []outcome) map[string]float64 {
	out := map[string]float64{
		"requests_per_s": median(perRep(outs, requestsPerSecond)),
		"setup_s":        median(perRep(outs, func(b *rep) float64 { return b.setup.Seconds() })),
		"peak_rss_mib":   median(perRep(outs, func(b *rep) float64 { return b.peakRSSMiB })),
	}
	vals := map[string][]float64{}
	for _, o := range outs {
		for name, v := range o.host() {
			vals[name] = append(vals[name], v)
		}
		for name, v := range o.sim() {
			vals[name] = append(vals[name], v)
		}
	}
	for _, name := range recordEndToEnd {
		if vs, ok := vals[name]; ok {
			out[name] = median(vs)
		}
	}
	return out
}

// median returns the median of vs (vs is reordered).
func median(vs []float64) float64 {
	sort.Float64s(vs)
	return stats.Percentile(vs, 0.5)
}

// percentile returns the p-quantile of an unsorted sample, or 0 if it
// is empty.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return stats.Percentile(s, p)
}

func printReport(w io.Writer, rec record, traced bool) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%d reps=%d (traced %d) correct=%v\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Reps, rec.Traced, rec.Correct)
	h := rec.Host
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.CPUModel, rec.Commit)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "FAIL: %s\n", p)
	}
	var names []string
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %16s %-8s %-6s %s\n", "metric", "value", "unit", "better", "kind")
	for _, name := range names {
		if traced && strings.HasPrefix(name, "share.") {
			continue
		}
		m := rec.Metrics[name]
		fmt.Fprintf(w, "%-34s %16.6g %-8s %-6s %s\n", name, m.Value, m.Unit, m.Better, m.Kind)
	}
	if traced {
		fmt.Fprintln(w, "layer self time as a share of timed wall time (median of traced reps):")
		for _, l := range append(append([]string(nil), layers...), "harness") {
			fmt.Fprintf(w, "  %-12s %6.1f%%\n", l, 100*rec.Metrics["share."+l].Value)
		}
		fmt.Fprintf(w, "share claim %s\n", rec.ShareClaim)
	}
}
