package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"multicastnet/internal/core"
	"multicastnet/internal/routing"
	"multicastnet/internal/wormsim"
)

// spanKind is the layer boundary a span was recorded at: one public call
// into one layer of the program.
type spanKind uint8

const (
	spanNext     spanKind = iota // workload: Stream.Next
	spanSubmit                   // sched: Service.Submit
	spanWindow                   // sched: Service.CloseWindow plus the injections of its admissions
	spanPlan                     // routing: Router.PlanSet (a PlanCache miss)
	spanInject                   // wormsim: Network.InjectFlatTag
	spanSimulate                 // wormsim: the Step/FastForward calls between two window closes
	spanRun                      // wormsim: Run
	spanRoute                    // routing: the RouteFunc Run calls per generated multicast
	spanKernel                   // heuristics: first kernel; kernel i is spanKernel+i
)

var spanNames = [...]string{"workload.next", "sched.submit", "sched.close_window", "routing.plan",
	"wormsim.inject", "wormsim.simulate", "wormsim.run", "routing.route"}

func (k spanKind) String() string {
	if k >= spanKernel {
		return "heuristics." + kernelNames[k-spanKernel]
	}
	return spanNames[k]
}

// layer names the program layer a span's self time is charged to.
func (k spanKind) layer() string {
	switch k {
	case spanNext:
		return "workload"
	case spanSubmit, spanWindow:
		return "sched"
	case spanPlan, spanRoute:
		return "routing"
	case spanInject, spanSimulate, spanRun:
		return "wormsim"
	}
	return "heuristics"
}

// layers lists the layers in report order.
var layers = []string{"workload", "sched", "routing", "wormsim", "heuristics"}

// span is one timed call: times are nanoseconds since the tracer's base,
// parent indexes the enclosing span (-1 at top level), id is the request,
// window or set the call served.
type span struct {
	kind       spanKind
	parent     int32
	id         uint64
	start, end int64
}

// tracer records spans in memory for one traced repetition. A nil
// *tracer records nothing: untraced repetitions run the same drive loops
// with every timer skipped.
type tracer struct {
	base  time.Time
	spans []span
	open  int32 // innermost open span, -1 when none
}

func newTracer() *tracer { return &tracer{base: time.Now(), open: -1} }

// reserve makes room for n more spans, so recording them allocates
// nothing.
func (t *tracer) reserve(n int) {
	if t != nil {
		t.spans = append(make([]span, 0, len(t.spans)+n), t.spans...)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(k spanKind, id uint64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{kind: k, parent: t.open, id: id, start: t.now()})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

// end closes span i and makes its parent the innermost open span.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.end = t.now()
	t.open = s.parent
}

// selfTimes returns each span kind's summed self time: its duration
// minus the time its child spans cover.
func (t *tracer) selfTimes() map[spanKind]int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := make(map[spanKind]int64)
	for i, s := range t.spans {
		out[s.kind] += self[i]
	}
	return out
}

// total returns the summed duration and count of one span kind.
func (t *tracer) total(k spanKind) (ns int64, n int) {
	for _, s := range t.spans {
		if s.kind == k {
			ns += s.end - s.start
			n++
		}
	}
	return ns, n
}

// durations returns the durations in nanoseconds of the spans of kind k,
// less the time their direct children of kind minus cover.
func (t *tracer) durations(k, minus spanKind) []float64 {
	sub := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.kind == minus && s.parent >= 0 {
			sub[s.parent] += s.end - s.start
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.kind == k {
			out = append(out, float64(s.end-s.start-sub[i]))
		}
	}
	return out
}

// shares returns each layer's self time as a share of the timed wall
// time, and the remainder as share.harness: the benchmark's own loop and
// timer overhead. A simulate span's self time is that loop; the wormsim
// time inside it is stepNs, the Step/FastForward calls timed one by one.
func shares(t *tracer, wall time.Duration, stepNs int64) map[string]float64 {
	byLayer := map[string]int64{"wormsim": stepNs}
	for k, ns := range t.selfTimes() {
		if k != spanSimulate {
			byLayer[k.layer()] += ns
		}
	}
	m := map[string]float64{}
	rest := 1.0
	for _, l := range layers {
		m["share."+l] = float64(byLayer[l]) / float64(wall)
		rest -= m["share."+l]
	}
	m["share.harness"] = rest
	return m
}

// per returns ns/n, or 0 when n is 0.
func per(ns int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// writeSpans writes the spans of one traced repetition as CSV, one span
// a line.
func writeSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span,name,parent,id,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, s.kind, s.parent, s.id, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timingRouter decorates a routing.Router with a plan span around every
// PlanSet, leaving its identity (and so every PlanCache key) unchanged.
type timingRouter struct {
	routing.Router
	tr *tracer
}

func (r timingRouter) PlanSet(k core.MulticastSet) routing.Plan {
	i := r.tr.begin(spanPlan, 0)
	p := r.Router.PlanSet(k)
	r.tr.end(i)
	return p
}

// timedRoute decorates a wormsim.RouteFunc with a route span per call.
func timedRoute(tr *tracer, route wormsim.RouteFunc) wormsim.RouteFunc {
	if tr == nil {
		return route
	}
	var n uint64
	return func(k core.MulticastSet) wormsim.Injection {
		i := tr.begin(spanRoute, n)
		n++
		inj := route(k)
		tr.end(i)
		return inj
	}
}
