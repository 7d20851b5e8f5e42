// Command wolfbench is the repository's benchmark. It measures WOLF the
// way the paper does — detection and reproduction time (Fig. 10) and
// recording slowdown (Table 1) — on the service this repository grew
// into, and prints one JSON result line.
//
// Usage (from the repository root; wolfbench/run.sh builds and runs it):
//
//	wolfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//   - batch_unique: single-role wolfd; nproc closed-loop clients upload
//     distinct traces (POST /v1/traces) and poll each job to its end.
//   - stream_fleet_repeat: coordinator + 2 in-process analyzers; every
//     trace is sent twice as a 4 KiB-chunked stream, so half the sends
//     repeat an earlier trace.
//   - paper_pipeline: wolf.Analyze with replay over the Table 1
//     programs plus Figure 2/4/9.
//   - wolfsync_mutex: nproc goroutines run nested two-lock critical
//     sections on wolfsync.Mutex under a recorder, alternating with the
//     same rounds on sync.Mutex.
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the run measures an untraced half and a traced half on the
// same inputs; the traced half calls each layer's public functions
// under in-memory spans (written to .bench_build/spans/) and the result
// carries the per-layer metrics. Every run checks the outputs against
// an oracle and reports correct=false on any mismatch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"wolf/wolfsync"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of WOLF sees. Every workload reports
// all of them: a verdict is a wolfd job reaching its terminal state, a
// program's wolf.Analyze finishing, or a wolfsync round's trace being
// analyzed.
var endToEnd = []metricDef{
	{"verdict_p50_ms", "ms"},
	{"verdict_tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the traced run's metrics, named by module. A layer that
// does no work on a workload reports 0 there.
var perLayer = []metricDef{
	{"server.admit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.service_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"trace.validate_ms", "ms"},
	{"trace.index_ms", "ms"},
	{"stream.decode_mb_per_s", "MB/s"},
	{"stream.engine_ns_per_tuple", "ns"},
	{"stream.candidates", "count"},
	{"detect.cycles_ms", "ms"},
	{"detect.reduce_kept_ratio", "ratio"},
	{"detect.cycles", "count"},
	{"pruner.prune_ms", "ms"},
	{"pruner.pruned_ratio", "ratio"},
	{"sdg.build_ms", "ms"},
	{"sdg.gs_vertices", "count"},
	{"sdg.refuted_ratio", "ratio"},
	{"store.put_trace_ms", "ms"},
	{"store.put_trace_dedup_ms", "ms"},
	{"store.record_ms", "ms"},
	{"store.journal_append_ms", "ms"},
	{"store.dedup_hit_ratio", "ratio"},
	{"fleet.pulls", "count"},
	{"fleet.idle_pull_ratio", "ratio"},
	{"fleet.pull_ms", "ms"},
	{"fleet.complete_ms", "ms"},
	{"fleet.blob_bytes", "bytes"},
	{"core.record_ms", "ms"},
	{"sim.steps", "count"},
	{"replay.attempts", "count"},
	{"replay.hit_ratio", "ratio"},
	{"replay.attempt_ms", "ms"},
	{"replay.fallback_attempts", "count"},
	{"wolfsync.events", "count"},
	{"wolfsync.dropped", "count"},
	{"wolfsync.snapshot_ms", "ms"},
	{"pass_s", "s"},
	{"confirmed_cycles", "count"},
	{"lock_pair_ns", "ns"},
	{"record_overhead_x", "x"},
	{"failed_frac", "ratio"},
	{"verdict_tail_pct", "%"},
	{"verdict_tail_samples", "count"},
	{"repeat_share", "ratio"},
	{"service_accounted_ratio", "ratio"},
	{"tracing_overhead_frac", "ratio"},
}

// outcome is what a workload run returns.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workloadFunc func(seed int64, dur time.Duration, traced bool, scratch string) (*outcome, error)

var workloadFuncs = map[string]workloadFunc{
	"batch_unique": func(s int64, d time.Duration, t bool, dir string) (*outcome, error) {
		return runWolfd(batchUnique, s, d, t, dir)
	},
	"stream_fleet_repeat": func(s int64, d time.Duration, t bool, dir string) (*outcome, error) {
		return runWolfd(streamFleetRepeat, s, d, t, dir)
	},
	"paper_pipeline": runPaper,
	"wolfsync_mutex": runWolfsync,
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	fn, ok := workloadFuncs[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "wolfbench: usage: --workload <%s> --seed N --seconds S --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	// The recorder reads its sinks from the environment; the benchmark
	// snapshots traces itself and must not ship them anywhere.
	os.Unsetenv(wolfsync.EnvOut)
	os.Unsetenv(wolfsync.EnvURL)

	// Everything the run writes stays under .bench_build in the
	// checkout it runs from.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench:", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench:", err)
		os.Exit(1)
	}
	out, err := fn(*seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, scratch)
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench:", err)
		os.Exit(1)
	}
	printResult(*workload, out, *traceFlag == 1)
}

func workloadNames() []string {
	var names []string
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric by name and unit, then the JSON
// result as the last line.
func printResult(workload string, out *outcome, traced bool) {
	defs, values := endToEnd, out.e2e
	if traced {
		defs, values = perLayer, out.layer
	}
	fmt.Printf("workload %s\n", workload)
	for _, n := range out.notes {
		fmt.Printf("  note: %s\n", n)
	}
	for _, p := range out.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
		fmt.Fprintf(os.Stderr, "wolfbench: check failed: %s\n", p)
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.name]
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	if !traced {
		// failed_frac is 0 by construction on every workload; it is
		// printed here and carried by the result's failed/attempted.
		fmt.Printf("  %-28s %14.6g %s\n", "failed_frac", ratio(float64(out.failed), float64(out.attempted)), "ratio")
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(out.problems) == 0, max(out.attempted, 1), out.failed, metrics}
	data, _ := json.Marshal(res)
	fmt.Println(string(data))
}
