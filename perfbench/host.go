package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocs   uint64  // heap objects allocated
	gcCPU    float64 // CPU seconds spent in the garbage collector
	totalCPU float64 // CPU seconds available to the process (GOMAXPROCS x wall)
}

var runtimeKeys = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return runtimeSample{allocs: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64()}
}

// timedSection measures one repetition's timed section: host time and
// the runtime counters spent inside it.
type timedSection struct {
	start time.Time
	rt0   runtimeSample
}

func startTimed() timedSection {
	rt0 := readRuntime()
	return timedSection{start: time.Now(), rt0: rt0}
}

// now returns nanoseconds since the section started.
func (s timedSection) now() int64 { return int64(time.Since(s.start)) }

// stop records the section's wall time and runtime deltas into r.
func (s timedSection) stop(r *rep) {
	r.wall = time.Since(s.start)
	rt := readRuntime()
	r.allocs = rt.allocs - s.rt0.allocs
	if cpu := rt.totalCPU - s.rt0.totalCPU; cpu > 0 {
		r.gcCPUFraction = (rt.gcCPU - s.rt0.gcCPU) / cpu
	}
}

// resetPeakRSS restarts the kernel's peak resident set size count
// (VmHWM) from the current size, so peakRSSMiB reads the peak since the
// call. It reports false where the kernel refuses.
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err == nil
}

// peakRSSMiB returns the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	v, err := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	if err != nil {
		return 0
	}
	return v / 1024
}

// procField returns the trimmed value after the first line starting with
// key in a /proc text file, or "" if absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, key) {
			rest := strings.TrimSpace(strings.TrimPrefix(line, key))
			return strings.TrimSpace(strings.TrimPrefix(rest, ":"))
		}
	}
	return ""
}

// hostInfo is the fingerprint stamped on every result record.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

func fingerprint() hostInfo {
	cpu := procField("/proc/cpuinfo", "model name")
	if cpu == "" {
		cpu = "unknown"
	}
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpu,
	}
}
