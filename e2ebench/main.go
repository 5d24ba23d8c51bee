// Command e2ebench is the repository's end-to-end benchmark. It runs
// one workload against the routing service or the campaign runner,
// measures what a user of either sees, checks that the outputs are
// correct, and prints one JSON result line last:
//
//	go run . --workload svc-chatty --seed 1 --seconds 15 --trace 0
//
// With --trace 1 it instead replays the workload at three depths and
// prints per-layer metrics. README.md describes the workloads, the
// metrics and the layer they belong to.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names a metric and its unit; the lists below mirror
// BENCHMARK.json (a test keeps them in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"delivered_pps", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"restart_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"http.batch_us", "us"},
	{"http.advance_us", "us"},
	{"http.stats_us", "us"},
	{"http.self_us", "us"},
	{"http.allocs_per_op", "count"},
	{"http.req_bytes_per_op", "B"},
	{"http.resp_bytes_per_op", "B"},
	{"http.conns_opened", "count"},
	{"http.op_p99_ms", "ms"},
	{"service.submit_us", "us"},
	{"service.advance_us", "us"},
	{"service.stats_us", "us"},
	{"service.self_us", "us"},
	{"service.allocs_per_op", "count"},
	{"service.quota_dropped_ratio", "ratio"},
	{"dynamic.step_ns", "ns"},
	{"dynamic.submit_ns_per_pkt", "ns"},
	{"dynamic.allocs_per_step", "count"},
	{"dynamic.steps", "count"},
	{"dynamic.live_mean", "count"},
	{"dynamic.queue_depth_max", "count"},
	{"dynamic.deflections_per_delivered", "ratio"},
	{"dynamic.retries_per_admitted", "ratio"},
	{"dynamic.new_engine_ms", "ms"},
	{"faults.evals_per_step", "count"},
	{"faults.down_ratio", "ratio"},
	{"faults.eval_ns", "ns"},
	{"persist.encode_ms", "ms"},
	{"persist.decode_ms", "ms"},
	{"persist.snapshot_kb", "KB"},
	{"service.snapshot_ms", "ms"},
	{"service.restore_ms", "ms"},
	{"campaign.frame_cell_ms", "ms"},
	{"campaign.baseline_cell_ms", "ms"},
	{"campaign.faulted_cell_ms", "ms"},
	{"campaign.clean_cell_ms", "ms"},
	{"campaign.ns_per_sim_step", "ns"},
	{"campaign.worker_busy_ratio", "ratio"},
	{"campaign.deflects_per_packet", "ratio"},
	{"stats.bootstrap_ms", "ms"},
	{"gc.cycles_per_kop", "count"},
	{"gc.pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

var workloads = []string{"svc-chatty", "svc-bulk", "campaign-grid"}

// options configures one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir receives span files and campaign checkpoints; it lies
	// inside the checkout.
	workDir string

	// Test knobs: a fixed round count (0 = run for seconds), ops per
	// service round, trials per grid cell, and failure injection.
	rounds int
	ops    int
	trials int
	hooks  svcHooks
}

func (o options) budget() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	report            []string
}

func (r *result) say(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.workDir, "work-dir", ".bench_build/e2ebench", "directory for span files and campaign checkpoints")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive")
		return 2
	}
	o.trace = *traceFlag == 1
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	correct := emit(stdout, o, res)
	if !correct {
		return 1
	}
	return 0
}

func runWorkload(o options) (*result, error) {
	switch o.workload {
	case "svc-chatty":
		return runSvc(svcChatty, o)
	case "svc-bulk":
		return runSvc(svcBulk, o)
	case "campaign-grid":
		return runGrid(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
}

// emit prints the report and the result line; it returns whether every
// check passed.
func emit(w io.Writer, o options, res *result) bool {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			res.problem("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem("metric %s is not finite", d.name)
			v = 0
		}
		metrics[d.name] = value{v, d.unit}
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, metrics}

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# e2ebench %s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(bw, "# host: nproc=%d gomaxprocs=%d cpu=%q go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	for _, line := range res.report {
		fmt.Fprintf(bw, "# %s\n", line)
	}
	fmt.Fprintf(bw, "# error_rate=%g (%d failed of %d attempted)\n", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(bw, "# %-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(bw, "# CHECK FAILED: %s\n", p)
	}
	data, err := json.Marshal(out)
	if err != nil {
		// Every value is finite and the shape is fixed.
		panic(err)
	}
	fmt.Fprintln(bw, string(data))
	_ = bw.Flush() // stdout; nothing to recover
	return out.Correct
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or the
// Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(v)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
