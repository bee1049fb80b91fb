// Command perfbench is the simulator's end-to-end benchmark. One run
// measures one workload through the program's public entry points —
// replay.RunSource, replay.RunSharded, or serve.Server behind its HTTP
// handler driven by load.Run — checks the run's outputs against
// computations made apart from the program, and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 a
// separate traced pass times the calls into each layer from outside the
// program and prints the per-layer set. See README.md for the workloads,
// the metric map and reference figures.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload replay-paper --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// short shrinks every input so the whole command runs in seconds; the
	// package test uses it to assert every output check.
	short bool
}

// budget is the wall-clock measuring time of one run.
func (c config) budget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run reports, with their units.
// Every workload reports every one of them (README.md defines each per
// workload).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"host_pages_per_s", "pages/s"},
	{"mem_peak_mb", "MB"},
	{"sim_hit_ratio", "ratio"},
	{"sim_resp_mean_ms", "sim_ms"},
	{"sim_resp_p999_ms", "sim_ms"},
	{"sim_flash_pages", "pages"},
}

// perLayer lists the metrics a traced run reports. A layer that is not on
// a workload's path reports 0 there.
var perLayer = []struct{ name, unit string }{
	{"trace.next_ns", "ns/request"},
	{"workload.generate_s", "s"},
	{"ssd.new_s", "s"},
	{"core.access_ns", "ns/call"},
	{"core.access_p99_ns", "ns/call"},
	{"core.evict_idle_ns", "ns/call"},
	{"core.victim_scan_cost", "entries/evict"},
	{"core.accessed_pages", "pages"},
	{"core.hit_pages", "pages"},
	{"core.evicted_pages", "pages"},
	{"core.pages_per_batch", "pages"},
	{"sim.engine_self_ns", "ns/request"},
	{"replay.observer_ns", "ns/request"},
	{"replay.total_ns", "ns/request"},
	{"ssd.self_ns", "ns/request"},
	{"ssd.flash_writes", "pages"},
	{"ssd.gc_migrations", "pages"},
	{"ssd.erases", "count"},
	{"ssd.flash_reads", "pages"},
	{"ssd.gc_pause_sim_ms", "sim_ms"},
	{"ssd.bp_stall_sim_ms", "sim_ms"},
	{"ssd.gc_jobs", "count"},
	{"ssd.gc_slices_per_job", "ratio"},
	{"ssd.gc_cost_deferred", "count"},
	{"shard.pipeline_ns", "ns/request"},
	{"shard.speedup", "ratio"},
	{"shard.imbalance", "ratio"},
	{"serve.http_p50_us", "us"},
	{"serve.http_p99_us", "us"},
	{"load.sched_p50_us", "us"},
	{"serve.submit_p50_us", "us"},
	{"serve.submit_p99_us", "us"},
	{"serve.http_overhead_p50_us", "us"},
	{"serve.window_waits", "count"},
	{"serve.queue_depth_peak", "count"},
	{"serve.drain_dirty_left", "pages"},
	{"bench.trace_overhead", "ratio"},
}

// report accumulates one run's metrics, operation counts and check
// failures.
type report struct {
	log       io.Writer
	values    map[string]float64
	attempted int64
	failed    int64
	failures  []string
}

func newReport(log io.Writer) *report {
	return &report{log: log, values: make(map[string]float64)}
}

// set records a metric value.
func (r *report) set(name string, v float64) { r.values[name] = v }

// check records an output-check failure unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.failures = append(r.failures, msg)
		fmt.Fprintln(r.log, "CHECK FAILED:", msg)
	}
}

// logf prints one progress line (standard output, before the result).
func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// finish builds the result line for the run's mode: every metric of the
// mode's list must be present (end-to-end) or defaults to 0 (per-layer,
// for layers off the workload's path).
func (r *report) finish(traced bool) (result, error) {
	res := result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric),
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	for _, m := range list {
		v, ok := r.values[m.name]
		if !ok && !traced {
			return res, fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config, *report) error{
	"replay-paper":   runReplay,
	"replay-aged":    runReplay,
	"replay-sharded": runReplay,
	"serve-http":     runServe,
}

// workloadNames returns the workload names in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one benchmark invocation, logging progress to log.
func run(cfg config, log io.Writer) (result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return result{}, fmt.Errorf("seconds %v must be positive", cfg.seconds)
	}
	rep := newReport(log)
	printManifest(cfg, log)
	if err := fn(cfg, rep); err != nil {
		return result{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if !cfg.trace {
		rep.set("mem_peak_mb", peakRSSMB())
	}
	return rep.finish(cfg.trace)
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	var cfg config
	var traceMode int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed generates the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measuring time of the run in seconds")
	flag.IntVar(&traceMode, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.BoolVar(&cfg.short, "short", false, "tiny inputs (self-test)")
	probe := flag.Bool("probe-saturation", false, "drive the HTTP service over a rate ramp and print goodput and latency per step (how the serve-http rate was chosen), then exit")
	flag.Parse()
	if traceMode != 0 && traceMode != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace %d, want 0 or 1\n", traceMode)
		os.Exit(2)
	}
	cfg.trace = traceMode == 1
	if *probe {
		if err := probeSaturation(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
