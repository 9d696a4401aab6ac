package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"

	"roborebound/internal/obs/perf"
)

// runConfig is what one measured run of one workload is told.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // length of the measured window
	trace    bool    // traced run: per-layer metrics instead of end-to-end ones
	quick    bool    // token sizes, for the package's own test
	outDir   string
}

// run carries one run's measurements and oracle tallies.
type run struct {
	cfg       runConfig
	m         metricSet
	attempted int
	failed    int
	broken    []string // harness-level inconsistencies: the run is not correct
	spans     *spanLog // nil with tracing off
	samples   map[string]int
}

// maxFailureLabels is how many failed operations are printed by label;
// the rest are only counted.
const maxFailureLabels = 16

func newRun(cfg runConfig) *run {
	r := &run{cfg: cfg, m: metricSet{}, samples: map[string]int{}}
	if cfg.trace {
		r.spans = &spanLog{}
	}
	return r
}

// op records one attempted operation; reasons non-empty means it
// failed. A failure is counted and named, never a crash.
func (r *run) op(label string, reasons []string) {
	r.attempted++
	if len(reasons) == 0 {
		return
	}
	r.failed++
	if r.failed <= maxFailureLabels {
		fmt.Fprintln(os.Stderr, "FAILED", label+": "+strings.Join(reasons, "; "))
	}
}

// describe prints one timing sample the way the metrics guide asks:
// median, highest supported percentile, sample count.
func (r *run) describe(what string, ns []float64) {
	fmt.Printf("%s %s: %s\n", r.cfg.workload, what, summarise(ns))
}

func (r *run) breakf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.broken = append(r.broken, msg)
	fmt.Fprintln(os.Stderr, "INCORRECT", msg)
}

// minOps is how many timed operations a window holds at least.
func (r *run) minOps() int {
	if r.cfg.quick {
		return 1
	}
	return 3
}

// budgetNs is the measured window in nanoseconds (0 under -quick, so
// every loop runs its minimum).
func (r *run) budgetNs() int64 {
	if r.cfg.quick {
		return 0
	}
	return int64(r.cfg.seconds * 1e9)
}

// fits reports whether another operation of about typicalNs still
// belongs in a window of budgetNs that began at startNs.
func fits(startNs, budgetNs int64, typicalNs float64) bool {
	return float64(perf.Now()-startNs)+typicalNs <= float64(budgetNs)+typicalNs/4
}

// window brackets the timed operations of a run with the process
// counters the end-to-end metrics divide by work done.
type window struct {
	mem    runtime.MemStats
	cpuS   float64
	gcCPU  float64
	allCPU float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func runtimeCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

func openWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.mem)
	w.gcCPU, w.allCPU = runtimeCPU()
	w.cpuS = cpuSeconds()
	return w
}

// usage is what the process consumed between openWindow and close.
type usage struct {
	mallocs, bytes uint64
	gcCycles       uint32
	cpuS           float64 // user + system, getrusage
	gcCPU, allCPU  float64 // the runtime's own CPU-time estimates
}

// gcCPUShare is the share of the runtime's CPU time spent in GC.
func (u usage) gcCPUShare() float64 { return ratio(u.gcCPU, u.allCPU) }

// add folds another window's usage into u.
func (u *usage) add(v usage) {
	u.mallocs += v.mallocs
	u.bytes += v.bytes
	u.gcCycles += v.gcCycles
	u.cpuS += v.cpuS
	u.gcCPU += v.gcCPU
	u.allCPU += v.allCPU
}

func (w *window) close() usage {
	cpu := cpuSeconds()
	gc, all := runtimeCPU()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		mallocs:  m.Mallocs - w.mem.Mallocs,
		bytes:    m.TotalAlloc - w.mem.TotalAlloc,
		gcCycles: m.NumGC - w.mem.NumGC,
		cpuS:     cpu - w.cpuS,
		gcCPU:    gc - w.gcCPU,
		allCPU:   all - w.allCPU,
	}
}

// endToEndFrom fills the metrics every workload derives the same way
// from its operation times and process counters. robotTicksPerOp is
// the simulated robot-ticks one timed operation advances.
func (r *run) endToEndFrom(opNs []float64, robotTicksPerOp float64, u usage) {
	med := median(opNs)
	total := robotTicksPerOp * float64(len(opNs))
	r.m.set("robot_ticks_per_s", robotTicksPerOp/(med/1e9))
	r.m.set("op_p50_ms", ms(med))
	r.m.set("cpu_us_per_robot_tick", u.cpuS*1e6/total)
	r.m.set("allocs_per_robot_tick", float64(u.mallocs)/total)
	r.m.set("alloc_bytes_per_robot_tick", float64(u.bytes)/total)
	r.samples["ops"] = len(opNs)
	r.describe("operation", opNs)
}

// peakRSSMiB reads the process's high-water resident set from
// /proc/self/status (VmHWM, kB).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// setupProbes is how many fresh processes time the set-up; the median
// is reported.
const setupProbes = 5

// probeSetup measures set-up time from outside: it starts this very
// binary setupProbes times with -setup-probe, which runs the
// workload's set-up and exits, and times each from start to exit. A
// fresh process per probe means work a later change moves to package
// initialisation, a lazy table or the first call shows here.
func probeSetup(cfg runConfig) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locate own binary: %w", err)
	}
	args := []string{"-setup-probe", "-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10)}
	if cfg.quick {
		args = append(args, "-quick")
	}
	n := setupProbes
	if cfg.quick {
		n = 1
	}
	var secs []float64
	for i := 0; i < n; i++ {
		var stderr bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stderr = &stderr
		t0 := perf.Now()
		err := cmd.Run()
		d := perf.Now() - t0
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w: %s", err, stderr.String())
		}
		secs = append(secs, float64(d)/1e9)
	}
	return median(secs), nil
}
