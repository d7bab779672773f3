// Command perfbench is the repository's benchmark: it runs one workload
// of the censorship simulator for a fixed wall-clock budget, checks that
// the workload's output is right, and prints its metrics.
//
// Usage (from the checkout root, through the build wrapper):
//
//	python3 perfbench/run.py --workload paper-campaign --seed 2018 --seconds 10 --trace 0
//
// Workloads: paper-campaign, loaded-campaign, observatory, paper-tables
// (see README.md). With --trace 0 the run reports the end-to-end metrics;
// with --trace 1 it measures the workload untraced and then traced, and
// reports the per-layer metrics, the tracing overhead, and writes the
// spans as a Chrome trace under .bench_build/out/.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// A run whose output is wrong prints "correct": false and exits 1; a run
// that cannot execute at all exits 2 without a result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the metrics every workload reports with --trace 0. The
// item, request and pass behind the first three depend on the workload;
// README.md tabulates them. Tail latencies swing too far from run to run
// on a shared 2-core runner to gate on; the traced run reports them.
var endToEnd = []metricDef{
	{"items_per_s", "1/s"},
	{"request_p50_ms", "ms"},
	{"pass_s", "s"},
	{"verdict_precision", "ratio"},
	{"verdict_recall", "ratio"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// detectorKinds are the eight registered detectors, in registry order.
var detectorKinds = []string{"dns", "http", "https", "tcp", "collateral", "evasion", "ooni", "fingerprint"}

// codecFuncs are the replayed wire functions, as <pkg>.<func> prefixes.
var codecFuncs = []string{
	"netpkt.parse", "dnswire.parse", "httpwire.parse_response",
	"tlswire.parse_sni", "middlebox.extract_host", "difflib.ratio_lines",
}

// tableStages are the experiments.<stage>_s metrics, in render order.
var tableStages = []string{
	"table1", "table2", "figure5", "figure2", "table3", "figure1",
	"figures34", "section31", "section5",
}

// perLayer are the metrics every workload reports with --trace 1. A
// layer the workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.overhead_share", "ratio"},
		{"censor.worker_busy_share", "ratio"},
		{"censor.merge_wait_s", "s"},
		{"censor.task_ms_p50", "ms"},
		{"censor.task_ms_max", "ms"},
		{"censor.replica_builds", "count"},
	}
	for _, k := range detectorKinds {
		defs = append(defs,
			metricDef{"detector." + k + ".us_per_call", "us"},
			metricDef{"detector." + k + ".events_per_call", "count"},
			metricDef{"detector." + k + ".packets_per_call", "count"})
	}
	defs = append(defs,
		metricDef{"detector.battery_p99_ms", "ms"},
		metricDef{"sim.events_per_result", "count"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"sim.cancelled_share", "ratio"},
		metricDef{"netsim.packets_forwarded_per_result", "count"},
		metricDef{"netsim.drop_share", "ratio"},
		metricDef{"netsim.pool_hit_ratio", "ratio"},
		metricDef{"middlebox.evictions_per_result", "count"},
		metricDef{"middlebox.flow_occupancy", "count"},
		metricDef{"trafficgen.flows_per_result", "count"},
		metricDef{"ispnet.build_ms", "ms"},
		metricDef{"ispnet.reset_ms", "ms"},
		metricDef{"ispnet.replica_heap_mb", "MB"},
	)
	for _, f := range codecFuncs {
		defs = append(defs, metricDef{f + "_ns", "ns"}, metricDef{f + "_allocs", "count"})
	}
	defs = append(defs,
		metricDef{"sink.jsonl_ns_per_result", "ns"},
		metricDef{"sink.aggregate_ns_per_result", "ns"},
		metricDef{"go.allocs_per_result", "count"},
		metricDef{"go.bytes_per_result", "B"},
		metricDef{"go.gc_cpu_share", "ratio"},
		metricDef{"monitor.store_write_ns_per_result", "ns"},
		metricDef{"monitor.ingest_store_share", "ratio"},
		metricDef{"monitor.query_store_us", "us"},
		metricDef{"monitor.summary_us", "us"},
		metricDef{"monitor.delta_us", "us"},
		metricDef{"monitor.push_ms_p50", "ms"},
		metricDef{"monitor.query_p99_ms", "ms"},
		metricDef{"monitor.evicted_per_push", "count"},
	)
	for _, s := range tableStages {
		defs = append(defs, metricDef{"experiments." + s + "_s", "s"})
	}
	return defs
}()

// workers is the campaign worker count: the runner the benchmark was
// defined on has two cores.
const workers = 2

// outDir holds trace files and temporary captures, inside the build
// directory the wrapper creates.
var outDir = filepath.Join(".bench_build", "out")

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// budget is the measuring window.
func (c runConfig) budget() time.Duration { return time.Duration(c.seconds) * time.Second }

// report is what a workload hands back: its correctness verdict, its
// operation counts and its metrics by name.
type report struct {
	problems  []string
	attempted int
	failed    int
	metrics   map[string]float64
	loopback  bool
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail records a correctness problem; any problem makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig, rep *report) error{
	"paper-campaign":  runPaperCampaign,
	"loaded-campaign": runLoadedCampaign,
	"observatory":     runObservatory,
	"paper-tables":    runPaperTables,
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "paper-campaign", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "world seed (the same seed gives the same inputs)")
	flag.IntVar(&cfg.seconds, "seconds", 15, "measuring window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	run, ok := workloads[cfg.workload]
	if !ok {
		fatalf("unknown --workload %q (available: %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1, not %d", traceFlag)
	}
	if cfg.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	cfg.trace = traceFlag == 1

	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d workers=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, traceFlag, workers)
	heap := startHeapSampler()
	rep := newReport()
	if err := run(cfg, rep); err != nil {
		heap.stop()
		fatalf("%s: %v", cfg.workload, err)
	}
	peak := heap.stop()
	if !cfg.trace {
		rep.metrics["peak_heap_mb"] = peak
	}

	prov, _ := json.Marshal(collectProvenance(cfg, rep.loopback))
	fmt.Printf("provenance: %s\n", prov)
	os.Exit(emit(cfg, rep))
}

// emit prints the metric table and the result line, and returns the
// exit code.
func emit(cfg runConfig, rep *report) int {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			rep.fail("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = value{v, d.Unit}
		fmt.Printf("  %-42s %16.6g %s\n", d.Name, v, d.Unit)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: INCORRECT: %s\n", p)
	}
	out.Correct = len(rep.problems) == 0
	out.Attempted = rep.attempted
	out.Failed = rep.failed
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("result: %v", err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
