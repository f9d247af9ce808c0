package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"multicastnet/internal/sched"
)

// reducedServe shortens a serve workload's stream to n requests, scaling
// a uniform pool with it so the pool stays 4x the stream.
func reducedServe(in serveInputs, n int) serveInputs {
	if in.spec.Groups > in.spec.Requests {
		in.spec.Groups = 4 * n
	}
	in.spec.Requests = n
	return in
}

var reducedWorkloads = map[string]serveInputs{
	"bursty-mesh64":  reducedServe(burstyMesh64, 8000),
	"uniform-cube12": reducedServe(uniformCube12, 3000),
}

// TestServeLoopMatchesServe pins the benchmark's drive loop, traced and
// untraced, to sched.Serve on the same inputs, field for field.
func TestServeLoopMatchesServe(t *testing.T) {
	for name, in := range reducedWorkloads {
		t.Run(name, func(t *testing.T) {
			cfg, err := in.serveConfig(7)
			if err != nil {
				t.Fatal(err)
			}
			want := sched.Serve(cfg)
			if want.Completed != in.spec.Requests {
				t.Fatalf("sched.Serve completed %d of %d", want.Completed, in.spec.Requests)
			}
			var outs []serveOutcome
			for _, tr := range []*tracer{nil, newTracer()} {
				o, err := serveRep(in, 7, tr)
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, o)
				got := o.res
				for _, f := range []struct {
					name      string
					got, want any
				}{
					{"Completed", got.Completed, want.Completed},
					{"Cycles", got.Cycles, want.Cycles},
					{"P50Latency", got.P50Latency, want.P50Latency},
					{"P99Latency", got.P99Latency, want.P99Latency},
					{"Windows", got.Windows, want.Windows},
					{"Deferrals", got.Deferrals, want.Deferrals},
					{"ForceAdmits", got.ForceAdmits, want.ForceAdmits},
					{"CacheHitRate", got.CacheHitRate, want.CacheHitRate},
				} {
					if f.got != f.want {
						t.Errorf("traced=%v %s: loop %v, sched.Serve %v", tr != nil, f.name, f.got, f.want)
					}
				}
				if o.failed != 0 || len(o.problems) != 0 {
					t.Errorf("traced=%v: %d failed, problems %v", tr != nil, o.failed, o.problems)
				}
			}
			if !reflect.DeepEqual(outs[0].sim(), outs[1].sim()) {
				t.Errorf("traced and untraced simulated outputs differ:\n%v\n%v", outs[0].sim(), outs[1].sim())
			}
		})
	}
}

// TestWorkloadPurpose checks, as deterministic counts, that each workload
// still exercises the layer it was chosen for.
func TestWorkloadPurpose(t *testing.T) {
	b, err := serveRep(reducedWorkloads["bursty-mesh64"], 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.res.CacheHitRate < 0.9 || b.res.Deferrals == 0 {
		t.Errorf("bursty-mesh64: cache hit ratio %.3f (want >= 0.9), %d deferrals (want > 0)",
			b.res.CacheHitRate, b.res.Deferrals)
	}
	u, err := serveRep(reducedWorkloads["uniform-cube12"], 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.res.CacheHitRate > 0.15 {
		t.Errorf("uniform-cube12: cache hit ratio %.3f, want <= 0.15", u.res.CacheHitRate)
	}
	s, err := staticRep(staticInputs{ks: []int{1, 5, 50}, setsPerK: 2}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for ki, n := range s.calls {
		if n == 0 {
			t.Errorf("static-kernels never calls %s", kernelNames[ki])
		}
	}
	if s.failed != 0 || len(s.problems) != 0 {
		t.Errorf("static-kernels: %d failed, problems %v", s.failed, s.problems)
	}
}

// TestSeedChangesOutputs checks that every workload's simulated outputs
// repeat under one seed and change under another.
func TestSeedChangesOutputs(t *testing.T) {
	paper := paperMesh8
	paper.maxCycles, paper.sims = 100_000, 2
	runs := map[string]func(seed uint64) (outcome, error){
		"bursty-mesh64": func(seed uint64) (outcome, error) {
			o, err := serveRep(reducedServe(burstyMesh64, 500), seed, nil)
			return &o, err
		},
		"uniform-cube12": func(seed uint64) (outcome, error) {
			o, err := serveRep(reducedServe(uniformCube12, 500), seed, nil)
			return &o, err
		},
		"paper-mesh8": func(seed uint64) (outcome, error) {
			o, err := paperRep(paper, seed, nil)
			return &o, err
		},
		"static-kernels": func(seed uint64) (outcome, error) {
			o, err := staticRep(staticInputs{ks: []int{5, 20}, setsPerK: 2}, seed, nil)
			return &o, err
		},
	}
	for name, run := range runs {
		var sims []map[string]float64
		for _, seed := range []uint64{1, 1, 2} {
			o, err := run(seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if b := o.base(); b.failed != 0 || len(b.problems) != 0 {
				t.Errorf("%s seed %d: %d failed, problems %v", name, seed, b.failed, b.problems)
			}
			sims = append(sims, o.sim())
		}
		if !reflect.DeepEqual(sims[0], sims[1]) {
			t.Errorf("%s: seed 1 outputs differ between runs", name)
		}
		if reflect.DeepEqual(sims[0], sims[2]) {
			t.Errorf("%s: seeds 1 and 2 give identical outputs", name)
		}
	}
}

// TestBenchmarkSpec checks BENCHMARK.json against the benchmark's own
// tables: workload names and reasons, and the name, unit and direction
// of every metric, in the order the benchmark prints them.
func TestBenchmarkSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := metricDefs[want[i]]
			if m.Name != want[i] || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %s %+v", kind, i, m, want[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
