// Command censord is the continuous censorship-measurement observatory:
// a long-running daemon that schedules recurring campaigns on a
// simulated world, stores their results in the bounded in-memory monitor
// store, and serves them over HTTP.
//
// On startup it runs one campaign synchronously — so /v1/summary has
// data the moment the listener is up — then serves; with -every > 0 the
// scheduler keeps re-running the campaign on that cadence (plus
// -jitter). SIGINT/SIGTERM shut it down gracefully: in-flight campaigns
// are cancelled through their context, the HTTP server drains.
//
// Endpoints:
//
//	GET  /healthz                  liveness, build info, uptime, store counters
//	GET  /metrics                  Prometheus text exposition of all telemetry
//	GET  /debug/vars               the same registry as expvar JSON
//	GET  /v1/scenarios             the scenario preset registry
//	GET  /v1/runs                  retained runs
//	POST /v1/campaigns             trigger a run now ({"job":"small"});
//	                               429 with Retry-After while it runs
//	GET  /v1/results?vantage=...   filtered results, JSONL
//	POST /v1/results?scenario=...  ingest a JSONL batch (censorscan -push);
//	                               400 for a malformed line, 413 for a
//	                               body over 64 MiB, 422 for a line past
//	                               the store's 1024-key cap
//	GET  /v1/summary[?format=text] per-vantage aggregates
//	GET  /v1/delta?from=N[&to=M]   blocked-domain churn between runs
//	GET  /debug/pprof/...          profiling (only with -pprof)
//
// Usage:
//
//	censord -scenario small
//	censord -scenario small -every 5m -jitter 30s -workers 8
//	censord -scenario my_world.json -measure dns,http -domains 64
//	curl -s localhost:8080/v1/summary?format=text
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/censor"
	"repro/internal/cliutil"
	"repro/monitor"
	"repro/obs"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
	scenario := flag.String("scenario", "small", "world scenario: a registered preset name or a JSON spec file")
	every := flag.Duration("every", 0, "re-run the campaign on this cadence (0 = startup run + on-demand only)")
	jitter := flag.Duration("jitter", 0, "uniform random extra delay added to each scheduled run")
	workers := flag.Int("workers", 4, "campaign worker pool size")
	domains := flag.Int("domains", 16, "cap each campaign to the first N PBW domains (0 = all)")
	measure := flag.String("measure", "dns,http", "comma-separated detector names (empty = all registered)")
	isps := flag.String("isps", "", "comma-separated vantage ISPs (default: the scenario's vantage set)")
	ringSize := flag.Int("ring", 512, "per-(scenario,vantage,measurement) result ring size")
	runCap := flag.Int("runs", 64, "how many runs keep their roll-ups")
	timeout := flag.Duration("timeout", 3*time.Second, "per-probe network timeout")
	seed := flag.Int64("seed", 0, "override the world seed (0 = scenario default)")
	load := flag.String("load", "", "background-traffic overlay for the world, e.g. users=10000 or users=10000,capacity=2048")
	withPprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default)")
	flag.Parse()

	if err := run(*listen, *scenario, *every, *jitter, *workers, *domains,
		*measure, *isps, *ringSize, *runCap, *timeout, *seed, *load, *withPprof); err != nil {
		fmt.Fprintf(os.Stderr, "censord: %v\n", err)
		os.Exit(1)
	}
}

func run(listen, scenario string, every, jitter time.Duration, workers, domainCap int,
	measure, isps string, ringSize, runCap int, timeout time.Duration, seed int64, load string, withPprof bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	world, _, err := cliutil.ReadScenario(scenario)
	if err != nil {
		return err
	}
	measurements, err := cliutil.PickMeasurements(measure)
	if err != nil {
		return err
	}
	// One process-wide registry: campaign telemetry (censor.WithTelemetry),
	// store counters and the /metrics endpoint all share it, so a single
	// scrape sees the whole stack — merged sim-side sums included.
	reg := obs.NewRegistry()
	opts := []censor.Option{censor.WithTimeout(timeout), censor.WithTelemetry(reg)}
	if seed != 0 {
		world.Seed = seed
	}
	if vantages := cliutil.SplitList(isps); len(vantages) > 0 {
		opts = append(opts, censor.WithVantages(vantages...))
	}

	store := monitor.NewStore(monitor.WithRingSize(ringSize), monitor.WithRunRetention(runCap),
		monitor.WithTelemetry(reg))
	job := monitor.Job{
		Scenario:  world,
		Campaign:  censor.Campaign{Measurements: measurements},
		DomainCap: domainCap,
		Load:      load,
		Every:     every,
		Jitter:    jitter,
		Workers:   workers,
		Options:   opts,
	}

	start := time.Now()
	sched, err := monitor.NewScheduler(ctx, store, job)
	if err != nil {
		return err
	}
	name := sched.Jobs()[0]
	fmt.Fprintf(os.Stderr, "censord: world %q built in %v\n", name, time.Since(start))

	// Startup campaign: synchronous, so the first /v1/summary never 404s.
	start = time.Now()
	info, err := sched.RunOnce(ctx, name)
	if err != nil {
		return fmt.Errorf("startup campaign: %w", err)
	}
	fmt.Fprintf(os.Stderr, "censord: startup run %d: %d results (%d blocked) in %v\n",
		info.Run, info.Results, info.Blocked, time.Since(start))

	if every > 0 {
		go sched.Run(ctx) //nolint:errcheck // exits with ctx at shutdown
	}

	var handler http.Handler = monitor.NewHandler(store, sched, monitor.WithMetrics(reg))
	if withPprof {
		// Profiling endpoints for live perf work against a running
		// observatory; opt-in because they expose internals.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := newServer(listen, handler)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "censord: listening on %s\n", listen)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "censord: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// Timeouts bounding what an untrusted client can hold open: a connection
// that trickles its request header, or idles between keep-alive requests.
// Bodies and responses stay unbounded in time — large JSONL ingests and
// pprof profiles legitimately take long.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer builds the daemon's HTTP server.
func newServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
