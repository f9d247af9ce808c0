package routing

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"

	"multicastnet/internal/core"
	"multicastnet/internal/stats"
	"multicastnet/internal/topology"
)

var updateRoutingBench = flag.Bool("update-routing-bench", false,
	"rewrite ../../BENCH_routing.json from this machine's measurements")

// benchSets builds a deterministic pool of 10-destination multicast sets
// on a 16x16 mesh — the BenchmarkRouting_* workload of the repo root.
func benchSets(tb testing.TB) (*State, []core.MulticastSet) {
	m := topology.NewMesh2D(16, 16)
	st, err := NewState(m)
	if err != nil {
		tb.Fatal(err)
	}
	rng := stats.NewRand(1)
	sets := make([]core.MulticastSet, 64)
	for i := range sets {
		sets[i] = randomSet(m, rng, 10)
	}
	return st, sets
}

// BenchmarkRoutingPlan measures cold plan construction: every call runs
// the dual-path algorithm.
func BenchmarkRoutingPlan(b *testing.B) {
	st, sets := benchSets(b)
	r, err := New("dual-path", st)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += r.PlanSet(sets[i%len(sets)]).Traffic()
	}
	_ = total
}

// BenchmarkRoutingPlanCached measures the steady-state cost once the
// plan cache has absorbed the working set.
func BenchmarkRoutingPlanCached(b *testing.B) {
	st, sets := benchSets(b)
	r, err := New("dual-path", st)
	if err != nil {
		b.Fatal(err)
	}
	cr := Cached(r, NewPlanCache(1024))
	for _, k := range sets {
		cr.PlanSet(k) // warm the cache
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += cr.PlanSet(sets[i%len(sets)]).Traffic()
	}
	_ = total
}

// BenchmarkRoutingPlanSchemes measures cold plan construction per path
// scheme with allocations: dual-path on the 8x8 mesh at the Fig. 7.11
// load point (destination counts uniform on [1, 19], mean 10), and
// multi-path on the 12-cube (the uniform-cube12 workload's scheme).
func BenchmarkRoutingPlanSchemes(b *testing.B) {
	cases := []struct {
		name, scheme string
		topo         topology.Topology
	}{
		{"dual-path/mesh8x8", "dual-path", topology.NewMesh2D(8, 8)},
		{"multi-path/cube12", "multi-path", topology.NewHypercube(12)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			st, err := NewState(c.topo)
			if err != nil {
				b.Fatal(err)
			}
			r, err := New(c.scheme, st)
			if err != nil {
				b.Fatal(err)
			}
			rng := stats.NewRand(711)
			sets := make([]core.MulticastSet, 256)
			for i := range sets {
				sets[i] = randomSet(c.topo, rng, 1+rng.Intn(19))
			}
			b.ReportAllocs()
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				total += len(r.PlanSet(sets[i%len(sets)]).Paths)
			}
			_ = total
		})
	}
}

// TestWriteRoutingBenchBaseline regenerates the committed
// BENCH_routing.json when run with -update-routing-bench (see the
// Makefile's bench-routing-baseline target). Without the flag it only
// checks that the committed baseline parses.
func TestWriteRoutingBenchBaseline(t *testing.T) {
	const path = "../../BENCH_routing.json"
	type baseline struct {
		Gomaxprocs       int     `json:"gomaxprocs"`
		PlanNsPerOp      float64 `json:"plan_ns_per_op"`
		CachedNsPerOp    float64 `json:"cached_ns_per_op"`
		CachedSpeedup    float64 `json:"cached_speedup"`
		WorkloadMesh     string  `json:"workload_mesh"`
		WorkloadDests    int     `json:"workload_dests"`
		WorkloadSetCount int     `json:"workload_set_count"`
	}
	if !*updateRoutingBench {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing baseline (run make bench-routing-baseline): %v", err)
		}
		var b baseline
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatalf("baseline does not parse: %v", err)
		}
		if b.PlanNsPerOp <= 0 || b.CachedNsPerOp <= 0 {
			t.Fatalf("baseline has non-positive timings: %+v", b)
		}
		return
	}
	cold := testing.Benchmark(BenchmarkRoutingPlan)
	cached := testing.Benchmark(BenchmarkRoutingPlanCached)
	b := baseline{
		Gomaxprocs:       runtime.GOMAXPROCS(0),
		PlanNsPerOp:      float64(cold.NsPerOp()),
		CachedNsPerOp:    float64(cached.NsPerOp()),
		CachedSpeedup:    float64(cold.NsPerOp()) / float64(cached.NsPerOp()),
		WorkloadMesh:     "16x16",
		WorkloadDests:    10,
		WorkloadSetCount: 64,
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %+v", path, b)
}
