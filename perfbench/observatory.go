package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/censor"
	"repro/monitor"
	"repro/obs"
)

// Observatory query mix: out of 10 queries, 8 read the latest results of
// one (vantage, measurement) key, 1 renders the text summary and 1 diffs
// the latest run against the one before it. Both clients think after
// each reply (pushThink, queryThink): back to back they saturate both
// cores of a 2-core runner, and every latency then swings with each
// change in the machine's speed, as queueing near full load does.
const (
	queryLatest  = 64
	pushThink    = 50 * time.Millisecond
	queryThink   = time.Millisecond
	minQueries   = 1000
	pushScenario = "paper-2018"
	queryResults = "results"
	querySummary = "summary"
	queryDelta   = "delta"
)

// observatoryInput is what set-up produces: the dns+http JSONL of the
// paper-2018 campaign at the seed, the results it decodes to, the
// AggregateSink summary of the same results, and the served store.
type observatoryInput struct {
	body     []byte
	results  []censor.Result
	summary  string
	verdicts map[string]verdict // by vantage|measurement|domain
	vantages []string
	store    *monitor.Store
	srv      *httptest.Server
}

type verdict struct {
	Blocked   bool
	Mechanism string
}

// servedRow is the part of a /v1/results line the checks compare.
type servedRow struct {
	Vantage     string `json:"vantage"`
	Measurement string `json:"measurement"`
	Domain      string `json:"domain"`
	Blocked     bool   `json:"blocked"`
	Mechanism   string `json:"mechanism"`
	Run         int    `json:"run"`
}

func verdictKey(vantage, measurement, domain string) string {
	return vantage + "|" + measurement + "|" + domain
}

// observatoryLoop is one closed loop of a pusher and a querier.
type observatoryLoop struct {
	pushes   []time.Duration
	queries  []time.Duration
	byKind   map[string]int
	mix      []query // the query sequence, for the direct store replay
	failed   int
	attempts int
	evicted  uint64
}

type query struct {
	kind                 string
	vantage, measurement string
}

func runObservatory(cfg runConfig, rep *report) error {
	ctx := context.Background()
	rep.loopback = true
	var setup []float64
	var buildS []float64
	var in *observatoryInput
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // earlier set-ups' garbage must not reach the next one's peak heap
		start := time.Now()
		next, build, err := setupObservatory(ctx, cfg)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
		buildS = append(buildS, build.Seconds())
		if in != nil {
			in.srv.Close()
			if digest(next.body) != digest(in.body) {
				rep.fail("set-up campaign JSONL changed between builds of one seed")
			}
		}
		in = next
	}
	defer in.srv.Close()
	if want, ok := keptDigests["observatory"]; ok && cfg.seed == defaultSeed && digest(in.body) != want {
		rep.fail("set-up JSONL digest %s, want the kept %s", digest(in.body), want)
	}

	precision, recall, err := in.score(ctx, cfg)
	if err != nil {
		return err
	}

	before := readRuntime()
	untraced := in.loop(cfg, rep, nil)
	after := readRuntime()
	rep.attempted += untraced.attempts
	rep.failed += untraced.failed
	pushS := durationsS(untraced.pushes)
	rates := make([]float64, len(pushS))
	for i, s := range pushS {
		rates[i] = float64(len(in.results)) / s
	}
	if !cfg.trace {
		qms := durationsMS(untraced.queries)
		rep.metrics["items_per_s"] = median(rates)
		rep.metrics["request_p50_ms"] = quantile(qms, 0.50)
		rep.metrics["pass_s"] = median(pushS)
		rep.metrics["verdict_precision"] = precision
		rep.metrics["verdict_recall"] = recall
		rep.metrics["setup_s"] = median(setup)
		return nil
	}

	reportRuntime(rep, before, after, float64(len(in.results)*len(untraced.pushes)))
	pushMS := durationsMS(untraced.pushes)
	rep.metrics["monitor.push_ms_p50"] = median(pushMS)
	rep.metrics["monitor.query_p99_ms"] = quantile(durationsMS(untraced.queries), 0.99)
	rep.metrics["monitor.evicted_per_push"] = ratio(float64(untraced.evicted), float64(len(untraced.pushes)))
	if err := measureWorld(rep, buildS, func() (*censor.Session, error) {
		return censor.NewSession(ctx, censor.WithScenario(censor.MustLookupScenario(pushScenario)), censor.WithSeed(cfg.seed))
	}); err != nil {
		return err
	}

	tr := obs.NewTracer(obs.WallClock)
	traced := in.loop(cfg, rep, tr)
	rep.attempted += traced.attempts
	rep.failed += traced.failed
	rep.metrics["trace.overhead_share"] = median(durationsS(traced.pushes))/median(pushS) - 1
	if err := writeTrace(cfg, tr); err != nil {
		return err
	}

	// The store without HTTP and JSON: the same results and query mix,
	// called directly.
	store := monitor.NewStore()
	var writeNS []float64
	var lastRuns []int
	for i := 0; i < 5; i++ {
		start := time.Now()
		sink := store.Begin(pushScenario, "direct")
		for lo := 0; lo < len(in.results); lo += 256 {
			sink.WriteBatch(in.results[lo:min(lo+256, len(in.results))])
		}
		if err := sink.Flush(); err != nil {
			return err
		}
		writeNS = append(writeNS, float64(time.Since(start).Nanoseconds())/float64(len(in.results)))
		lastRuns = append(lastRuns, sink.Run())
	}
	latest, prev := lastRuns[len(lastRuns)-1], lastRuns[len(lastRuns)-2]
	var queryUS, summaryUS, deltaUS []float64
	for _, q := range untraced.mix {
		start := time.Now()
		switch q.kind {
		case queryResults:
			kept.stored = store.Results(monitor.Query{Vantage: q.vantage, Measurement: q.measurement, Latest: queryLatest})
			queryUS = append(queryUS, micros(time.Since(start)))
		case querySummary:
			text, _ := store.SummaryText(latest)
			if text != in.summary {
				rep.fail("direct SummaryText differs from AggregateSink.Summary")
			}
			summaryUS = append(summaryUS, micros(time.Since(start)))
		case queryDelta:
			var err error
			kept.delta, err = store.DeltaSince(prev, latest)
			if err != nil {
				rep.fail("direct DeltaSince: %v", err)
			}
			deltaUS = append(deltaUS, micros(time.Since(start)))
		}
	}
	rep.metrics["monitor.store_write_ns_per_result"] = median(writeNS)
	rep.metrics["monitor.ingest_store_share"] = median(writeNS) * float64(len(in.results)) / (median(pushMS) * 1e6)
	rep.metrics["monitor.query_store_us"] = median(queryUS)
	rep.metrics["monitor.summary_us"] = median(summaryUS)
	rep.metrics["monitor.delta_us"] = median(deltaUS)
	zeroMetrics(rep, "censor.", "detector.", "sim.", "netsim.", "middlebox.", "trafficgen.",
		"netpkt.", "dnswire.", "httpwire.", "tlswire.", "difflib.", "sink.", "experiments.")
	return nil
}

// setupObservatory builds the paper-2018 session at the seed, runs its
// dns+http campaign into a JSONL body and an AggregateSink, and starts an
// empty store behind an httptest server on loopback. build is the world
// build's share of the set-up.
func setupObservatory(ctx context.Context, cfg runConfig) (*observatoryInput, time.Duration, error) {
	start := time.Now()
	sess, err := censor.NewSession(ctx, censor.WithScenario(censor.MustLookupScenario(pushScenario)), censor.WithSeed(cfg.seed))
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(start)
	st, err := sess.Run(ctx, censor.Campaign{Measurements: []censor.Measurement{censor.DNS(), censor.HTTP()}},
		censor.WithWorkers(workers))
	if err != nil {
		return nil, 0, err
	}
	var body bytes.Buffer
	agg := censor.NewAggregateSink()
	if err := st.Drain(censor.NewJSONLSink(&body), agg); err != nil {
		return nil, 0, err
	}
	results, err := censor.ReadJSONL(bytes.NewReader(body.Bytes()))
	if err != nil {
		return nil, 0, err
	}
	in := &observatoryInput{
		body:     body.Bytes(),
		results:  results,
		summary:  agg.Summary(),
		verdicts: make(map[string]verdict, len(results)),
		vantages: sess.Vantages(),
		store:    monitor.NewStore(),
	}
	for _, r := range results {
		in.verdicts[verdictKey(r.Vantage, r.Measurement, r.Domain)] = verdict{r.Blocked, r.Mechanism}
	}
	in.srv = httptest.NewServer(monitor.NewHandler(in.store, nil))
	return in, build, nil
}

// score rates the pushed dns and http verdicts against the oracle of a
// world built at the same seed.
func (in *observatoryInput) score(ctx context.Context, cfg runConfig) (precision, recall float64, err error) {
	sess, err := censor.NewSession(ctx, censor.WithScenario(censor.MustLookupScenario(pushScenario)), censor.WithSeed(cfg.seed))
	if err != nil {
		return 0, 0, err
	}
	var domains []string
	seen := map[string]bool{}
	for _, r := range in.results {
		if !seen[r.Domain] {
			seen[r.Domain] = true
			domains = append(domains, r.Domain)
		}
	}
	s := &scoreSink{truth: buildTruth(sess, in.vantages, domains)}
	s.WriteBatch(in.results)
	return s.precision(), s.recall(), nil
}

// loop runs one pusher and one querier, each on its own keep-alive
// connection, for the budget; the querier starts after the first push
// lands and runs at least minQueries queries. With tr set, every request
// is recorded as a span (pusher on thread 0, querier on thread 1).
func (in *observatoryInput) loop(cfg runConfig, rep *report, tr *obs.Tracer) *observatoryLoop {
	l := &observatoryLoop{byKind: map[string]int{}}
	runtime.GC() // start from a collected heap, so GC pacing does not carry over from set-up
	evicted0 := in.store.Stats().Evicted
	deadline := time.Now().Add(cfg.budget())
	var mu sync.Mutex // guards rep, lastRun and l's counters, shared by both goroutines
	var lastRun int
	firstPush := make(chan struct{})
	var once sync.Once

	pusher := newClient()
	querier := newClient()
	defer pusher.CloseIdleConnections()
	defer querier.CloseIdleConnections()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer once.Do(func() { close(firstPush) })
		for {
			span := tr.Start("push", "observatory", 0)
			start := time.Now()
			info, status, err := in.push(pusher)
			elapsed := time.Since(start)
			tr.Finish(span)
			mu.Lock()
			l.attempts++
			switch {
			case err != nil || status/100 != 2:
				l.failed++
				if err != nil {
					rep.fail("push: %v", err)
				}
			case info.Results != len(in.results) || !info.Done || info.Errors != 0 || info.Err != "":
				rep.fail("push run %d recorded %d results (done=%v errors=%d err=%q), want %d",
					info.Run, info.Results, info.Done, info.Errors, info.Err, len(in.results))
			default:
				l.pushes = append(l.pushes, elapsed)
				lastRun = info.Run
			}
			mu.Unlock()
			once.Do(func() { close(firstPush) })
			if time.Now().After(deadline) {
				return
			}
			time.Sleep(pushThink)
		}
	}()

	<-firstPush
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x0b5e))
	for n := 0; n < minQueries || time.Now().Before(deadline); n++ {
		q := query{kind: queryResults}
		switch k := rng.IntN(10); {
		case k == 8:
			q.kind = querySummary
		case k == 9:
			q.kind = queryDelta
		}
		q.vantage = in.vantages[rng.IntN(len(in.vantages))]
		q.measurement = [2]string{"dns", "http"}[rng.IntN(2)]
		mu.Lock()
		run := lastRun
		mu.Unlock()
		if q.kind == queryDelta && run < 2 {
			q.kind = queryResults
		}
		span := tr.Start(q.kind, "observatory", 1)
		start := time.Now()
		body, status, err := get(querier, in.srv.URL+q.path(run))
		elapsed := time.Since(start)
		tr.Finish(span)
		l.mix = append(l.mix, q)
		ok := err == nil && status/100 == 2
		msg := ""
		if ok {
			msg = in.check(q, body)
		}
		mu.Lock()
		l.attempts++
		switch {
		case !ok:
			l.failed++
			if err != nil {
				rep.fail("query %s: %v", q.kind, err)
			}
		case msg != "":
			rep.fail("query %s: %s", q.kind, msg)
		default:
			l.queries = append(l.queries, elapsed)
			l.byKind[q.kind]++
		}
		mu.Unlock()
		time.Sleep(queryThink)
	}
	wg.Wait()
	l.evicted = in.store.Stats().Evicted - evicted0
	pm, qm := durationsMS(l.pushes), durationsMS(l.queries)
	fmt.Printf("observatory loop: %d pushes (ms p10 %.1f p50 %.1f p90 %.1f), %d queries %v (ms p50 %.2f p99 %.2f), %d failed\n",
		len(l.pushes), quantile(pm, 0.1), quantile(pm, 0.5), quantile(pm, 0.9),
		len(l.queries), l.byKind, quantile(qm, 0.5), quantile(qm, 0.99), l.failed)
	return l
}

func (q query) path(lastRun int) string {
	switch q.kind {
	case querySummary:
		return "/v1/summary?format=text"
	case queryDelta:
		return "/v1/delta?from=" + strconv.Itoa(lastRun-1)
	}
	return "/v1/results?vantage=" + q.vantage + "&measurement=" + q.measurement + "&latest=" + strconv.Itoa(queryLatest)
}

// check verifies one query response against the set-up results: served
// rows carry the pushed verdicts, the text summary is byte-identical to
// the AggregateSink's, and identical runs have no churn.
func (in *observatoryInput) check(q query, body []byte) string {
	switch q.kind {
	case querySummary:
		if string(body) != in.summary {
			return "summary text differs from AggregateSink.Summary"
		}
	case queryDelta:
		var d monitor.Delta
		if err := json.Unmarshal(body, &d); err != nil {
			return err.Error()
		}
		for _, v := range d.Vantages {
			if len(v.Added)+len(v.Removed) > 0 {
				return fmt.Sprintf("runs %d..%d of identical pushes show churn at %s", d.From, d.To, v.Vantage)
			}
		}
	default:
		rows := 0
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var r servedRow
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				return err.Error()
			}
			want, ok := in.verdicts[verdictKey(r.Vantage, r.Measurement, r.Domain)]
			if !ok || r.Vantage != q.vantage || r.Measurement != q.measurement ||
				r.Blocked != want.Blocked || r.Mechanism != want.Mechanism {
				return fmt.Sprintf("served row %+v does not match the pushed result", r)
			}
			rows++
		}
		if rows != queryLatest {
			return fmt.Sprintf("served %d rows, want %d", rows, queryLatest)
		}
	}
	return ""
}

// push POSTs the set-up body as one new run.
func (in *observatoryInput) push(c *http.Client) (monitor.RunInfo, int, error) {
	var info monitor.RunInfo
	resp, err := c.Post(in.srv.URL+"/v1/results?scenario="+pushScenario+"&source=perfbench",
		"application/x-ndjson", bytes.NewReader(in.body))
	if err != nil {
		return info, 0, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return info, resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		err = json.Unmarshal(reply, &info)
	}
	return info, resp.StatusCode, err
}

func get(c *http.Client, url string) ([]byte, int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// newClient returns a client that keeps one connection to the server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
