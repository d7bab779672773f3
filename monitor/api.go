package monitor

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/censor"
	"repro/obs"
)

// maxPushBytes caps one POST /v1/results body — a defensive bound on
// top of the store's ring/retention bounds.
const maxPushBytes = 64 << 20

// busyRetryAfter is the Retry-After, in seconds, of a campaign trigger
// that finds its job already running.
const busyRetryAfter = "5"

// HandlerOption configures NewHandler beyond the store and scheduler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	reg *obs.Registry
}

// WithMetrics mounts two extra endpoints over reg:
//
//	GET /metrics     Prometheus text exposition of every instrument
//	GET /debug/vars  standard expvar JSON, with the registry published
//	                 under the "censord" key
//
// Pass the same registry the store, scheduler jobs (censor.WithTelemetry)
// and bridges write into, so one scrape sees the whole stack.
func WithMetrics(reg *obs.Registry) HandlerOption {
	return func(c *handlerConfig) { c.reg = reg }
}

// NewHandler builds censord's HTTP face over a store and an optional
// scheduler (nil disables the campaign-trigger endpoint; the store-only
// form serves pure result archives, e.g. a censorscan push target).
//
// Endpoints (all JSON unless noted):
//
//	GET  /healthz                 liveness, build info, uptime, store counters
//	GET  /metrics                 Prometheus text (with WithMetrics)
//	GET  /debug/vars              expvar JSON (with WithMetrics)
//	GET  /v1/scenarios            the scenario preset registry
//	GET  /v1/runs                 retained runs, ascending epoch
//	POST /v1/campaigns            trigger a job run now: {"job":"name"};
//	                              429 while that job is running
//	GET  /v1/results              filtered results, JSONL streaming
//	POST /v1/results?scenario=s   ingest a JSONL batch as a new run; 400 for
//	                              a malformed line, 413 past 64 MiB, 422
//	                              past the store's key cap
//	GET  /v1/summary?run=N        per-vantage aggregate (or ?format=text)
//	GET  /v1/delta?from=N&to=M    blocked-domain churn between two runs
//
// /v1/results filters map 1:1 onto Query: scenario, vantage,
// measurement, mechanism, domain, run, since_run, latest, blocked=true.
// Every handler is safe under concurrent ingestion — that is the store's
// contract, exercised by the tests under -race.
func NewHandler(store *Store, sched *Scheduler, opts ...HandlerOption) http.Handler {
	var hc handlerConfig
	for _, o := range opts {
		o(&hc)
	}
	mux := http.NewServeMux()
	started := time.Now()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":    "ok",
			"go":        runtime.Version(),
			"revision":  vcsRevision(),
			"uptime":    time.Since(started).Round(time.Second).String(),
			"uptime_ns": time.Since(started).Nanoseconds(),
			"stats":     store.Stats(),
		})
	})

	if hc.reg != nil {
		reg := hc.reg
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w) //nolint:errcheck // client disconnects are not actionable
		})
		// Publish once per process: NewHandler may run many times in tests,
		// and expvar panics on duplicate names.
		if expvar.Get("censord") == nil {
			expvar.Publish("censord", expvar.Func(func() any { return reg.Snapshot() }))
		}
		mux.Handle("GET /debug/vars", expvar.Handler())
	}

	mux.HandleFunc("GET /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		type scenarioInfo struct {
			Name        string   `json:"name"`
			Description string   `json:"description,omitempty"`
			ISPs        int      `json:"isps"`
			PBWSites    int      `json:"pbw_sites"`
			Vantages    []string `json:"vantages,omitempty"`
			Job         bool     `json:"job"` // scheduled/triggerable here
		}
		jobs := map[string]bool{}
		if sched != nil {
			for _, name := range sched.Jobs() {
				jobs[name] = true
			}
		}
		var out []scenarioInfo
		for _, name := range censor.Scenarios() {
			sc, _ := censor.LookupScenario(name)
			out = append(out, scenarioInfo{
				Name: sc.Name, Description: sc.Description,
				ISPs: len(sc.ISPs), PBWSites: sc.PBWSites,
				Vantages: sc.Vantages, Job: jobs[sc.Name],
			})
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, store.Runs())
	})

	mux.HandleFunc("POST /v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		if sched == nil {
			httpError(w, http.StatusServiceUnavailable, "no scheduler: this censord only archives pushed results")
			return
		}
		var req struct {
			Job string `json:"job"`
		}
		if r.ContentLength != 0 {
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				httpError(w, http.StatusBadRequest, "body: %v", err)
				return
			}
		}
		if req.Job == "" {
			names := sched.Jobs()
			if len(names) != 1 {
				httpError(w, http.StatusBadRequest, "job required (registered: %v)", names)
				return
			}
			req.Job = names[0]
		}
		// Synchronous: the response is the finished run's info. Client
		// disconnect cancels the campaign through the request context. A
		// trigger never queues behind a running campaign of its job.
		info, err := sched.tryRunOnce(r.Context(), req.Job)
		if errors.Is(err, errJobBusy) {
			w.Header().Set("Retry-After", busyRetryAfter)
			httpError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		if err != nil {
			if info.Run != 0 {
				// Partial run: report it with the error recorded.
				writeJSON(w, http.StatusOK, info)
				return
			}
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /v1/results", func(w http.ResponseWriter, r *http.Request) {
		q, err := queryFromURL(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		results := store.Results(q)
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for i := range results {
			if err := enc.Encode(&results[i]); err != nil {
				return // client went away mid-stream
			}
		}
	})

	mux.HandleFunc("POST /v1/results", func(w http.ResponseWriter, r *http.Request) {
		scenario := r.URL.Query().Get("scenario")
		source := r.URL.Query().Get("source")
		if source == "" {
			source = "push"
		}
		// Stream-decode into bounded chunks and batch-ingest each: the
		// body is never materialized, so a push cannot grow the daemon
		// beyond the store's own bounds (plus this defensive per-request
		// cap), while each WriteBatch pays the run lock once per chunk
		// instead of once per result on the sharded store. On any error
		// the lines before it are ingested and the partial run is
		// finalized with its Err, so the truncated ingest is observable
		// instead of a phantom open run.
		body := http.MaxBytesReader(w, r.Body, maxPushBytes)
		sink := store.Begin(scenario, source)
		dec := censor.NewResultDecoder(body)
		fail := func(status int, err error) {
			sink.FinishErr(err)
			httpError(w, status, "%v", err)
		}
		const pushChunk = 256
		chunk := make([]censor.Result, pushChunk)
		var decErr error
		for decErr == nil {
			n := 0
			for ; n < pushChunk; n++ {
				if decErr = dec.Decode(&chunk[n]); decErr != nil {
					break
				}
			}
			if err := sink.WriteBatch(chunk[:n]); errors.Is(err, ErrTooManyKeys) {
				fail(http.StatusUnprocessableEntity, err)
				return
			} else if err != nil {
				fail(http.StatusInternalServerError, err)
				return
			}
		}
		if decErr != io.EOF {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(decErr, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			fail(status, fmt.Errorf("jsonl body: %w", decErr))
			return
		}
		if err := sink.Flush(); err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		info, _ := store.Run(sink.Run())
		writeJSON(w, http.StatusCreated, info)
	})

	mux.HandleFunc("GET /v1/summary", func(w http.ResponseWriter, r *http.Request) {
		run, err := runParam(r, store)
		if err != nil {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			text, ok := store.SummaryText(run)
			if !ok {
				httpError(w, http.StatusNotFound, "run %d not retained", run)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, text)
			return
		}
		sum, ok := store.Summary(run)
		if !ok {
			httpError(w, http.StatusNotFound, "run %d not retained", run)
			return
		}
		writeJSON(w, http.StatusOK, sum)
	})

	mux.HandleFunc("GET /v1/delta", func(w http.ResponseWriter, r *http.Request) {
		from, err := intParam(r, "from", 0)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if from == 0 {
			httpError(w, http.StatusBadRequest, "from run required")
			return
		}
		to, err := intParam(r, "to", 0)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if to == 0 {
			latest, ok := store.LatestRun(r.URL.Query().Get("scenario"))
			if !ok {
				httpError(w, http.StatusNotFound, "no finished run to diff against")
				return
			}
			to = latest.Run
		}
		delta, err := store.DeltaSince(from, to)
		if err != nil {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, delta)
	})

	return mux
}

// queryFromURL maps /v1/results parameters onto a store Query.
func queryFromURL(r *http.Request) (Query, error) {
	v := r.URL.Query()
	q := Query{
		Scenario:    v.Get("scenario"),
		Vantage:     v.Get("vantage"),
		Measurement: v.Get("measurement"),
		Mechanism:   v.Get("mechanism"),
		Domain:      v.Get("domain"),
		BlockedOnly: v.Get("blocked") == "true",
	}
	var err error
	if q.Run, err = intParam(r, "run", 0); err != nil {
		return q, err
	}
	if q.SinceRun, err = intParam(r, "since_run", 0); err != nil {
		return q, err
	}
	if q.Latest, err = intParam(r, "latest", 0); err != nil {
		return q, err
	}
	if s := v.Get("since"); s != "" {
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			return q, fmt.Errorf("since: %v", err)
		}
		q.Since = t
	}
	return q, nil
}

// runParam resolves the run selector of /v1/summary: an explicit ?run=N,
// or the latest finished run (optionally per ?scenario=).
func runParam(r *http.Request, store *Store) (int, error) {
	run, err := intParam(r, "run", 0)
	if err != nil {
		return 0, err
	}
	if run != 0 {
		return run, nil
	}
	latest, ok := store.LatestRun(r.URL.Query().Get("scenario"))
	if !ok {
		return 0, fmt.Errorf("no finished run yet")
	}
	return latest.Run, nil
}

func intParam(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return def, fmt.Errorf("%s: %v", name, err)
	}
	return n, nil
}

// vcsRevision extracts the VCS commit a binary was built from, when the
// toolchain stamped one ("" otherwise — e.g. `go test` binaries).
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client disconnects are not actionable
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
