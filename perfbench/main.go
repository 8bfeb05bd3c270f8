// Command perfbench is the repository's benchmark. It drives the EF-LoRa
// layers through their public functions on one of three workloads and
// prints every metric with its unit, its sample count and the operations
// attempted and failed, then one JSON result line:
//
//	go run . --workload plan --seed 1 --seconds 10 --trace 0
//
// --workload is plan, simulate, serve or all (each workload in its own
// process, one table). --trace 0 reports the end-to-end metrics of an
// untraced run; --trace 1 runs the workload untraced and then traced,
// and reports the per-layer metrics derived from the spans of the traced
// run plus the tracing overhead. Spans are written to
// <work>/spans/<workload>.csv. perfbench/run.sh builds and runs it from
// the repository root; README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports on every workload.
// Each workload maps the two rates onto its own user-facing throughput
// (README.md, "End-to-end metrics"). Times are CPU time: see cpuTime.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"primary_per_cpu_s", "1/cpu_s"},
	{"secondary_per_cpu_s", "1/cpu_s"},
}

// perLayer are the metrics a traced run reports on every workload; a
// layer a workload does not call reads 0.
var perLayer = []metricDef{
	{"alloc.busy_s", "s"},
	{"alloc.candidates", "count"},
	{"alloc.passes", "count"},
	{"alloc.ns_per_candidate", "ns"},
	{"alloc.commit_ratio", "ratio"},
	{"alloc.heap_mb", "MB"},
	{"alloc.min_ee_bits_per_mj", "bits/mJ"},
	{"alloc.min_ee_ulp_gap", "count"},
	{"model.score_s", "s"},
	{"sim.busy_s", "s"},
	{"sim.ns_per_tx", "ns"},
	{"sim.heap_mb_per_run", "MB"},
	{"engine.pairs", "count"},
	{"engine.sensitivity_misses", "count"},
	{"engine.collisions", "count"},
	{"engine.capacity_drops", "count"},
	{"engine.delivered_ratio", "ratio"},
	{"confirmed.busy_s", "s"},
	{"confirmed.ns_per_tx", "ns"},
	{"confirmed.retx_ratio", "ratio"},
	{"ingest.decode_ns", "ns"},
	{"ingest.decode_heap_bytes", "B"},
	{"ingest.decode_errors", "count"},
	{"engine.observe_ns", "ns"},
	{"engine.rf_collisions", "count"},
	{"engine.rf_capacity_drops", "count"},
	{"downlink.observe_ns", "ns"},
	{"netserver.dispatch_wait_ns", "ns"},
	{"netserver.queue_depth_max", "count"},
	{"netserver.flush_ns", "ns"},
	{"serve.reader_busy_frac", "ratio"},
	{"serve.ingest_p50_us", "us"},
	{"serve.ingest_p99_us", "us"},
	{"serve.generator_late_ms", "ms"},
	{"serve.control_step_ms", "ms"},
	{"ingest.tracker_ns", "ns"},
	{"netserver.duplicate_ratio", "ratio"},
	{"netserver.delivered", "count"},
	{"netserver.rejected", "count"},
	{"ingest.realloc_step_ms", "ms"},
	{"ingest.moved_per_step", "count"},
	{"statestore.append_sync_ms", "ms"},
	{"statestore.wal_bytes", "B"},
	{"downlink.enqueue_ns", "ns"},
	{"downlink.frames", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.residual_frac", "ratio"},
	{"trace.spans", "count"},
}

type workloadKind struct {
	name   string
	setups int
	new    func(o options, sz sizes) workload
}

// workloads lists the workloads in the order "all" runs them, with how
// many times each is set up (setup_s is the median; plan's set-up takes
// about a tenth of a millisecond) and its constructor.
var workloads = []workloadKind{
	{"plan", 25, func(_ options, sz sizes) workload { return &planWorkload{sz: sz} }},
	{"simulate", 3, func(_ options, sz sizes) workload { return &simulateWorkload{sz: sz} }},
	{"serve", 3, func(o options, sz sizes) workload {
		return &serveWorkload{sz: sz, rate: o.serveRate, dir: filepath.Join(o.workDir, "serve-state")}
	}},
}

// workload is one benchmark workload. setup builds its inputs from the
// seed; measure runs the timed work for at least seconds (always at
// least one full iteration) and checks every output, with tr nil for an
// untraced pass; close releases what setup acquired outside memory.
type workload interface {
	setup(seed uint64) error
	measure(seconds float64, tr *trace) (*outcome, error)
	close() error
}

// outcome is what one measured pass produced.
type outcome struct {
	attempted, failed int
	// failures describes each failed operation.
	failures []string
	// primary and secondary are primary_per_cpu_s and
	// secondary_per_cpu_s.
	primary, secondary float64
	// workCPU is the CPU time of the timed work, which the trace
	// overhead is computed from.
	workCPU float64
	// peaksMB is the peak resident memory of each operation.
	peaksMB opPeaks
	// layers holds per-layer metrics (traced passes only); residualFrac
	// is the share of the workload's wall time its layer spans leave
	// unaccounted.
	layers       map[string]float64
	residualFrac float64
	// named are the workload's metrics under their descriptive names,
	// for the human-readable summary.
	named []named
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

type named struct {
	name    string
	value   float64
	unit    string
	samples int
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	serveRate float64
	workDir   string
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "plan, simulate, serve or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per pass (at least one full iteration runs)")
	fs.IntVar(&traceFlag, "trace", 0, "1 = also run traced and report the per-layer metrics")
	fs.Float64Var(&o.serveRate, "serve-rate", 0, "offered datagrams per second in serve's paced phase (required for serve)")
	fs.StringVar(&o.workDir, "work", ".bench_build", "directory for spans and serve's state store")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if o.workload == "all" {
		return runAll(o, out)
	}
	res, err := runWorkload(o, defaultSizes(), out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// runWorkload sets the workload up several times (setup_s is the
// median), measures it untraced and, with o.trace, traced. It prints
// the host record and the summary lines and returns the result.
func runWorkload(o options, sz sizes, out io.Writer) (*result, error) {
	i := slices.IndexFunc(workloads, func(k workloadKind) bool { return k.name == o.workload })
	if i < 0 {
		return nil, fmt.Errorf("unknown workload %q (want plan, simulate, serve or all)", o.workload)
	}
	kind := workloads[i]
	var w workload
	setupS, setupWall := make([]float64, kind.setups), make([]float64, kind.setups)
	for i := range setupS {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		// No collection between set-ups: the background work a forced one
		// leaves behind would land in the next set-up's CPU time.
		w = kind.new(o, sz)
		t0, c0 := time.Now(), cpuTime()
		if err := w.setup(o.seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setupS[i], setupWall[i] = cpuTime()-c0, time.Since(t0).Seconds()
	}
	// Return the set-ups' garbage, so the measured operations start from
	// the workload's live data alone.
	runtime.GC()
	debug.FreeOSMemory()

	fmt.Fprintf(out, "host %s\n", hostRecord(sz))
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	// On an error return, release what set-up prepared; a measurement
	// consumes it all.
	defer func() { _ = w.close() }()
	plain, err := w.measure(o.seconds, nil)
	if err != nil {
		return nil, err
	}
	printFailures(out, plain)
	rssMB := median(plain.peaksMB)
	printNamed(out, "", append([]named{
		{"setup_s", median(setupS), "s", len(setupS)},
		{"setup_wall_s", median(setupWall), "s", len(setupWall)},
		{"peak_rss_mb", rssMB, "MB", len(plain.peaksMB)},
	}, plain.named...))
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}

	if !o.trace {
		vals := map[string]float64{
			"setup_s":             median(setupS),
			"peak_rss_mb":         rssMB,
			"primary_per_cpu_s":   plain.primary,
			"secondary_per_cpu_s": plain.secondary,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	} else {
		tr := newTrace()
		traced, err := w.measure(o.seconds, tr)
		if err != nil {
			return nil, err
		}
		printFailures(out, traced)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		layers := traced.layers
		layers["trace.overhead_frac"] = (traced.workCPU - plain.workCPU) / plain.workCPU
		layers["trace.residual_frac"] = traced.residualFrac
		layers["trace.spans"] = float64(tr.spanCount())
		printNamed(out, "traced ", traced.named)
		for _, m := range perLayer {
			v := layers[m.name]
			res.Metrics[m.name] = metric{v, m.unit}
			fmt.Fprintf(out, "layer %s %s %s\n", m.name, strconv.FormatFloat(v, 'g', -1, 64), m.unit)
		}
		if err := tr.write(filepath.Join(o.workDir, "spans", o.workload+".csv")); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "ops attempted=%d failed=%d\n", res.Attempted, res.Failed)
	return res, nil
}

func printFailures(out io.Writer, o *outcome) {
	for _, f := range o.failures {
		fmt.Fprintf(out, "check failed: %s\n", f)
	}
}

func printNamed(out io.Writer, prefix string, ms []named) {
	for _, m := range ms {
		fmt.Fprintf(out, "%smetric %s %s %s samples=%d\n", prefix, m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit, m.samples)
	}
}

// runAll runs every workload in a child process of its own (so each
// reports its own peak RSS) and prints their summaries and one table.
func runAll(o options, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	all := map[string]json.RawMessage{}
	var table []string
	for _, k := range workloads {
		name := k.name
		var buf bytes.Buffer
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace,
			"--serve-rate", strconv.FormatFloat(o.serveRate, 'g', -1, 64), "--work", o.workDir)
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintf(out, "%s: %s\n", name, l)
			if strings.HasPrefix(l, "metric ") || strings.HasPrefix(l, "ops ") {
				table = append(table, fmt.Sprintf("%-9s %s", name, l))
			}
		}
		var res result
		last := lines[len(lines)-1]
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("workload %s: bad result line: %w", name, err)
		}
		all[name] = json.RawMessage(last)
	}
	fmt.Fprintln(out, "summary:")
	for _, l := range table {
		fmt.Fprintln(out, "  "+l)
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// hostRecord describes the machine and runtime a result was measured on.
func hostRecord(sz sizes) string {
	rec := map[string]any{
		"go":               runtime.Version(),
		"cpu":              cpuModel(),
		"nproc":            runtime.NumCPU(),
		"cgroup_cpu_quota": cgroupCPUQuota(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"numcpu":           runtime.NumCPU(),
		"serve_shards":     serveShards(),
		"goos_goarch":      runtime.GOOS + "/" + runtime.GOARCH,
		"plan_deployments": fmt.Sprintf("%d of %dx%d, %d of %dx%d", sz.planACount, sz.planA.devices, sz.planA.gateways, sz.planBCount, sz.planB.devices, sz.planB.gateways),
		"simulate_devices": []int{sz.simDevices, sz.confDevices},
		"serve_devices":    sz.serveDevices,
	}
	b, _ := json.Marshal(rec) // a map of strings and ints always encodes
	return string(b)
}

// cgroupCPUQuota is the cgroup's CPU quota as "quota period" (cgroup v2
// cpu.max, else v1 cfs files); "max" or -1 mean no quota.
func cgroupCPUQuota() string {
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		return strings.TrimSpace(string(b))
	}
	q, qerr := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
	p, perr := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
	if qerr != nil || perr != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(q)) + " " + strings.TrimSpace(string(p))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// serveShards is the serve pool's shard count: one per CPU.
func serveShards() int { return runtime.NumCPU() }

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// opPeaks collects the peak resident memory of each operation, in MB.
// peak_rss_mb is their median: a whole run's high-water mark would be
// set by when the garbage collector and the scavenger happened to run.
type opPeaks []float64

// start returns freed memory to the system and restarts the kernel's
// peak-RSS (VmHWM) mark before an operation, so that the peak is the
// operation's own and not what earlier ones left resident.
func (p *opPeaks) start() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// stop records the peak since start.
func (p *opPeaks) stop() error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	*p = append(*p, mb)
	return nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// cpuTime is the CPU time, user plus system, all threads of this process
// have used, in seconds. The benchmark's gated times are CPU time: on a
// virtual machine whose vCPUs other tenants preempt, wall time swings
// by a factor of two from one second to the next, while stolen time
// never counts as the process's CPU time.
func cpuTime() float64 { return rusageSeconds(syscall.RUSAGE_SELF) }

// threadCPUTime is the CPU time of the calling OS thread; the goroutine
// must hold it with runtime.LockOSThread.
func threadCPUTime() float64 { return rusageSeconds(syscall.RUSAGE_THREAD) }

func rusageSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(%d): %v", who, err)) // fails only for an invalid who
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
