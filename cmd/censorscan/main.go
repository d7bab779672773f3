// Command censorscan runs the paper's evaluation against the simulated
// Indian Internet through the public censor API.
//
// The default mode prints each table/figure in the same shape the paper
// reports. Campaign mode instead fans detectors out across vantage ISPs
// on a worker pool and streams one uniform record per (vantage,
// measurement, domain) to stdout — as JSONL, CSV, or an aggregated
// summary. Detectors are resolved by name from the censor registry, so
// every registered measurement (built-in or external) is reachable via
// -measure. Any campaign flag implies -campaign.
//
// Worlds come from scenarios: -scenario accepts any registered preset
// name (-list-scenarios shows them) or a JSON spec file, so campaigns run
// on worlds the paper never measured — or on worlds the user invented.
//
// Usage:
//
//	censorscan [-quick] [-only table1,table2,table3,figure1,figure2,figure5,section5]
//	censorscan -only figure2 -series        # dump the full Figure 2 series
//	censorscan -campaign -workers 4 -domains 100 > results.jsonl
//	censorscan -isps MTNL,BSNL -measure dns,https -format csv
//	censorscan -quick -measure evasion -domains 20 -format summary
//	censorscan -list-scenarios
//	censorscan -scenario dns-only -measure dns,http -format summary
//	censorscan -scenario my_world.json -workers 8 > results.jsonl
//	censorscan -quick -measure dns -push http://localhost:8080 > results.jsonl
//	censorscan -quick -campaign -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
//	censorscan -quick -measure dns,http -domains 10 -pcap captures/ > results.jsonl
//	censorscan -quick -measure dns,http -trace trace.json > results.jsonl
//	censorscan -quick -measure dns -metrics-dump > results.jsonl
//
// -trace writes the campaign's worker/merger timeline as a Chrome
// trace_event file (open it in Perfetto or chrome://tracing);
// -metrics-dump prints the campaign's full telemetry registry to stderr
// in Prometheus text format after the run.
//
// -push POSTs the finished campaign's JSONL to a running censord
// (cmd/censord) so batch runs land in the observatory's store.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/censor"
	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/obs"
)

func main() {
	quick := flag.Bool("quick", false, "use the reduced world (fast smoke run)")
	scenario := flag.String("scenario", "", "world scenario: a registered preset name or a JSON spec file (see -list-scenarios)")
	listScenarios := flag.Bool("list-scenarios", false, "list the registered scenario presets and exit")
	only := flag.String("only", "", "comma-separated experiment list (default: all)")
	series := flag.Bool("series", false, "dump full per-website series for figures 2 and 5")
	campaign := flag.Bool("campaign", false, "stream a measurement campaign instead of rendering tables")
	workers := flag.Int("workers", 1, "campaign worker pool size (output is identical for any value)")
	isps := flag.String("isps", "", "comma-separated vantage ISPs (default: the nine studied ISPs)")
	measure := flag.String("measure", "", "comma-separated detector names from the registry (default: all registered)")
	domains := flag.Int("domains", 0, "cap the campaign to the first N PBW domains (0 = all)")
	load := flag.String("load", "", "background-traffic overlay for the world, e.g. users=10000 or users=10000,capacity=2048")
	format := flag.String("format", "jsonl", "campaign output format: jsonl, csv, or summary")
	push := flag.String("push", "", "POST the finished campaign's JSONL results to a running censord at this base URL")
	timeout := flag.Duration("timeout", 3*time.Second, "per-probe network timeout")
	seed := flag.Int64("seed", 0, "override the world seed (0 = calibrated default)")
	pcapDir := flag.String("pcap", "", "write one .pcap per campaign task (vantage client's packets) into this directory")
	tracePath := flag.String("trace", "", "write the campaign's worker/merge timeline to this file as Chrome trace_event JSON")
	metricsDump := flag.Bool("metrics-dump", false, "print the campaign's telemetry registry to stderr (Prometheus text) after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	ctx := context.Background()

	if *listScenarios {
		printScenarios(os.Stdout)
		return
	}

	// Mode resolution: any campaign flag implies campaign mode; table-mode
	// flags conflict with it. Everything is validated before the world is
	// built, so a typo fails instantly even at paper scale.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["quick"] && set["scenario"] {
		fmt.Fprintln(os.Stderr, "censorscan: -quick and -scenario both pick the world; use one")
		os.Exit(2)
	}
	for _, name := range []string{"workers", "isps", "measure", "domains", "format", "push", "load", "pcap", "trace", "metrics-dump"} {
		if !set[name] {
			continue
		}
		if set["campaign"] && !*campaign {
			fmt.Fprintf(os.Stderr, "censorscan: -%s is a campaign flag; it conflicts with -campaign=false\n", name)
			os.Exit(2)
		}
		*campaign = true
	}
	if *campaign {
		for _, name := range []string{"only", "series"} {
			if set[name] {
				fmt.Fprintf(os.Stderr, "censorscan: -%s is a table-mode flag; drop the campaign flags\n", name)
				os.Exit(2)
			}
		}
	}

	switch *format {
	case "jsonl", "csv", "summary":
	default:
		fmt.Fprintf(os.Stderr, "censorscan: unknown -format %q (available: jsonl, csv, summary)\n", *format)
		os.Exit(2)
	}
	measurements, err := cliutil.PickMeasurements(*measure)
	if err != nil {
		fmt.Fprintf(os.Stderr, "censorscan: %v\n", err)
		os.Exit(2)
	}
	world, preset, err := pickScenario(*scenario, *quick)
	if err != nil {
		fmt.Fprintf(os.Stderr, "censorscan: %v\n", err)
		os.Exit(2)
	}
	if *load != "" {
		world, err = censor.ApplyLoad(world, *load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "censorscan: %v\n", err)
			os.Exit(2)
		}
	}
	// Table mode regenerates the paper's evaluation, which only the two
	// paper presets calibrate (a JSON spec file never qualifies, whatever
	// its name field claims). The preset also decides the quick/paper
	// experiment options below.
	if !*campaign && set["scenario"] {
		if !preset || (world.Name != "paper-2018" && world.Name != "small") {
			fmt.Fprintf(os.Stderr, "censorscan: table mode needs the paper world; combine -scenario %s with campaign flags (-measure, -workers, ...)\n", *scenario)
			os.Exit(2)
		}
	}
	reduced := *quick || world.Name == "small"

	// Profiling hooks, so perf work on the measurement engine is
	// profile-driven rather than guessed: the profiles wrap everything from
	// the world build to the last result. They are written on the normal
	// return paths (error exits abandon them).
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "censorscan: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "censorscan: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "censorscan: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "censorscan: -memprofile: %v\n", err)
			}
		}()
	}

	opts := []censor.Option{censor.WithScenario(world), censor.WithTimeout(*timeout)}
	if *seed != 0 {
		opts = append(opts, censor.WithSeed(*seed))
	}
	if *pcapDir != "" {
		// WithPcap probes the directory when applied, so — like
		// -cpuprofile's os.Create above — an unusable path fails here,
		// before the world build, not after a full campaign.
		opts = append(opts, censor.WithPcap(*pcapDir))
	}
	if vantages := cliutil.SplitList(*isps); len(vantages) > 0 {
		opts = append(opts, censor.WithVantages(vantages...))
	}

	start := time.Now()
	// NewSession validates vantages against the world's profile list
	// before paying for the build, listing the available ISPs on a typo.
	sess, err := censor.NewSession(ctx, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "censorscan: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "world built in %v (%v)\n", time.Since(start), sess.World().Net)

	if *campaign {
		// Turn Ctrl-C into graceful stream cancellation — installed only
		// now, so the build above and table mode below keep the default
		// kill-on-SIGINT (neither observes a context).
		ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
		defer stop()
		if err := runCampaign(ctx, sess, world.Name, *workers, measurements, *domains, *format, *push, *tracePath, *metricsDump); err != nil {
			fmt.Fprintf(os.Stderr, "censorscan: %v\n", err)
			os.Exit(1)
		}
		return
	}
	runTables(os.Stdout, sess, reduced, *only, *series)
}

// pickScenario resolves the world spec: a registered preset name, a
// JSON spec file (both via the shared cliutil resolver), or the scale
// flags' presets. preset reports whether the spec came from the
// registry (a JSON file never counts, whatever its name field claims).
func pickScenario(arg string, quick bool) (sc censor.Scenario, preset bool, err error) {
	if arg == "" {
		if quick {
			return censor.MustLookupScenario("small"), true, nil
		}
		return censor.MustLookupScenario("paper-2018"), true, nil
	}
	return cliutil.ReadScenario(arg)
}

// printScenarios renders the preset registry.
func printScenarios(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tISPS\tPBWS\tDESCRIPTION")
	for _, name := range censor.Scenarios() {
		sc, _ := censor.LookupScenario(name)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", sc.Name, len(sc.ISPs), sc.PBWSites, sc.Description)
	}
	tw.Flush()
}

// runCampaign streams the uniform-record campaign to stdout in the
// requested format; with -push it additionally captures the JSONL form
// and POSTs it to a running censord, so batch runs land in the
// observatory's store as a queryable run.
func runCampaign(ctx context.Context, sess *censor.Session, scenario string, workers int, measurements []censor.Measurement, domainCap int, format, pushURL, tracePath string, metricsDump bool) error {
	pbw := sess.PBWDomains()
	if domainCap > 0 && domainCap < len(pbw) {
		pbw = pbw[:domainCap]
	}
	runOpts := []censor.Option{censor.WithWorkers(workers)}
	var reg *obs.Registry
	var tracer *obs.Tracer
	if metricsDump || tracePath != "" {
		// One registry for both exports: the trace flag alone still gets
		// telemetry, so a trace and a later -metrics-dump line up.
		reg = obs.NewRegistry()
		runOpts = append(runOpts, censor.WithTelemetry(reg))
	}
	if tracePath != "" {
		// Probe the path now, like -cpuprofile: fail before the campaign.
		tf, err := os.Create(tracePath)
		if err != nil {
			return fmt.Errorf("-trace: %v", err)
		}
		defer tf.Close()
		tracer = obs.NewTracer(nil) // clock bound by WithTrace
		runOpts = append(runOpts, censor.WithTrace(tracer))
		defer func() {
			if err := tracer.WriteChromeTrace(tf); err != nil {
				fmt.Fprintf(os.Stderr, "censorscan: -trace: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", tracer.Len(), tracePath)
		}()
	}
	if metricsDump {
		defer func() {
			if err := reg.WritePrometheus(os.Stderr); err != nil {
				fmt.Fprintf(os.Stderr, "censorscan: -metrics-dump: %v\n", err)
			}
		}()
	}
	stream, err := sess.Run(ctx, censor.Campaign{
		Domains:      pbw,
		Measurements: measurements,
	}, runOpts...)
	if err != nil {
		return err
	}
	var pushBuf bytes.Buffer
	var sinks []censor.Sink
	var agg *censor.AggregateSink
	switch format {
	case "csv":
		sinks = append(sinks, censor.NewCSVSink(os.Stdout))
	case "summary":
		agg = censor.NewAggregateSink()
		sinks = append(sinks, agg)
	default:
		sinks = append(sinks, censor.NewJSONLSink(os.Stdout))
	}
	if pushURL != "" {
		sinks = append(sinks, censor.NewJSONLSink(&pushBuf))
	}
	if err := stream.Drain(sinks...); err != nil {
		return err
	}
	if agg != nil {
		fmt.Print(agg.Summary())
	}
	if pushURL != "" {
		return pushResults(ctx, pushURL, scenario, &pushBuf)
	}
	return nil
}

// pushResults POSTs a campaign's JSONL to censord's batch-ingest
// endpoint and reports the run the observatory recorded.
func pushResults(ctx context.Context, baseURL, scenario string, body io.Reader) error {
	u := strings.TrimSuffix(baseURL, "/") +
		"/v1/results?scenario=" + url.QueryEscape(scenario) + "&source=censorscan"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, body)
	if err != nil {
		return fmt.Errorf("push: %v", err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("push: %v", err)
	}
	defer resp.Body.Close()
	reply, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("push: censord answered %s: %s", resp.Status, strings.TrimSpace(string(reply)))
	}
	fmt.Fprintf(os.Stderr, "pushed to %s: %s\n", baseURL, strings.TrimSpace(string(reply)))
	return nil
}

// runTables renders the paper's tables and figures via the suite.
func runTables(w io.Writer, sess *censor.Session, quick bool, only string, series bool) {
	opt := experiments.DefaultOptions()
	if quick {
		opt = experiments.QuickOptions()
	}
	s := experiments.NewSuiteWith(sess, opt)

	want := map[string]bool{}
	if only != "" {
		for _, k := range cliutil.SplitList(only) {
			want[k] = true
		}
	}
	run := func(name string) bool { return len(want) == 0 || want[name] }

	if run("table1") {
		stage(w, func() { fmt.Fprint(w, experiments.RenderTable1(s.Table1(experiments.OONITargets))) })
	}
	if run("table2") {
		stage(w, func() { fmt.Fprint(w, experiments.RenderTable2(s.Table2())) })
	}
	if run("figure5") {
		stage(w, func() {
			rows := s.Figure5()
			fmt.Fprint(w, experiments.RenderFigure5(rows))
			if series {
				dumpSeries(w, rows)
			}
		})
	}
	if run("figure2") {
		stage(w, func() {
			rows := s.Figure2()
			fmt.Fprint(w, experiments.RenderFigure2(rows))
			if series {
				for _, r := range rows {
					fmt.Fprintf(w, "# %s series (domain, %% of poisoned resolvers)\n", r.ISP)
					printSeries(w, r.Scan.Series)
				}
			}
		})
	}
	if run("table3") {
		stage(w, func() { fmt.Fprint(w, experiments.RenderTable3(s.Table3())) })
	}
	if run("figure1") {
		stage(w, func() { fmt.Fprint(w, experiments.RenderFigure1(s.Figure1())) })
	}
	if run("figure3") {
		stage(w, func() { fmt.Fprint(w, experiments.RenderFigureTrace("Figure 3: interceptive middlebox", s.Figure3())) })
	}
	if run("figure4") {
		stage(w, func() { fmt.Fprint(w, experiments.RenderFigureTrace("Figure 4: wiretap middlebox", s.Figure4())) })
	}
	if run("section31") {
		stage(w, func() {
			fmt.Fprint(w, experiments.RenderSection31(s.Section31(experiments.OONITargets)))
		})
	}
	if run("section5") {
		stage(w, func() { fmt.Fprint(w, experiments.RenderSection5(s.Section5())) })
	}
}

func stage(w io.Writer, fn func()) {
	t := time.Now()
	fn()
	fmt.Fprintf(os.Stderr, "[%v]\n", time.Since(t))
	fmt.Fprintln(w)
}

func dumpSeries(w io.Writer, rows []experiments.Figure5Row) {
	for _, r := range rows {
		fmt.Fprintf(w, "# %s series (domain, %% of poisoned paths)\n", r.ISP)
		printSeries(w, r.Series)
	}
}

func printSeries(w io.Writer, series map[string]float64) {
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s\t%.1f\n", k, series[k])
	}
}
