package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/censor"
	"repro/obs"
)

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median.
const setupRepeats = 3

// campaignWorkload is one campaign sweep measured end to end: every
// vantage of the scenario runs every detector over a domain prefix, and
// the stream drains into a JSONL sink plus an AggregateSink, as
// `censorscan -campaign` does.
type campaignWorkload struct {
	name         string
	scenario     string
	measurements []censor.Measurement
	domains      int  // PBW prefix length; 0 = all
	warmDomains  int  // PBW prefix of the untimed warm-up campaign; 0 = the measured domains
	replay       bool // replay captured wire bytes through the codecs when traced
}

func runPaperCampaign(cfg runConfig, rep *report) error {
	return campaignWorkload{
		name:         "paper-campaign",
		scenario:     "paper-2018",
		measurements: censor.Measurements(),
		replay:       true,
	}.run(cfg, rep)
}

func runLoadedCampaign(cfg runConfig, rep *report) error {
	return campaignWorkload{
		name:         "loaded-campaign",
		scenario:     "paper-2018-loaded",
		measurements: []censor.Measurement{censor.DNS(), censor.HTTP()},
		domains:      4,
		warmDomains:  1, // enough to fill the replica pool; the cost is the traffic, not the build
	}.run(cfg, rep)
}

// passResult is one drained campaign.
type passResult struct {
	elapsed    time.Duration
	digest     string
	score      *scoreSink
	jsonl, agg *timedSink
}

// loopResult is a measuring loop: campaigns back to back until the
// budget is spent.
type loopResult struct {
	passes      []passResult
	results     int
	errors      int
	digest      string
	taskMS      []float64 // traced loops: every task span's duration
	sumElapsed  time.Duration
	passSeconds []float64
}

func (l *loopResult) itemsPerSecond() []float64 {
	out := make([]float64, len(l.passes))
	for i, p := range l.passes {
		out[i] = float64(p.score.results) / p.elapsed.Seconds()
	}
	return out
}

func (cw campaignWorkload) run(cfg runConfig, rep *report) error {
	ctx := context.Background()
	sc, ok := censor.LookupScenario(cw.scenario)
	if !ok {
		return fmt.Errorf("scenario %q is not registered", cw.scenario)
	}
	newSession := func() (*censor.Session, error) {
		return censor.NewSession(ctx, censor.WithScenario(sc), censor.WithSeed(cfg.seed))
	}

	// Set-up: world builds; the last session is the one measured.
	var setup []float64
	var sess *censor.Session
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // earlier set-ups' garbage must not reach the next one's peak heap
		start := time.Now()
		s, err := newSession()
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(start).Seconds())
		sess = s
	}
	domains := sess.PBWDomains()
	if cw.domains > 0 && cw.domains < len(domains) {
		domains = domains[:cw.domains]
	}
	vantages := sess.Vantages()
	truth := buildTruth(sess, vantages, domains)
	camp := censor.Campaign{Domains: domains}
	expected := len(vantages) * len(cw.measurements) * len(domains)

	// Warm-up: fills the session's replica pool and the per-domain caches.
	bat := newBatteries()
	camp.Measurements, _ = decorate(cw.measurements, vantages, bat, nil, false)
	warm := camp
	if cw.warmDomains > 0 {
		warm.Domains = domains[:cw.warmDomains]
	}
	if _, err := runPass(ctx, sess, cfg, warm, truth); err != nil {
		return fmt.Errorf("warm-up: %v", err)
	}
	bat.endPass(false)

	before := readRuntime()
	untraced, err := cw.loop(ctx, sess, cfg, camp, truth, expected, rep, nil, bat)
	if err != nil {
		return err
	}
	after := readRuntime()
	cw.checkDigest(cfg, rep, untraced.digest)
	first := untraced.passes[0].score
	rep.attempted += untraced.results
	rep.failed += untraced.errors

	if !cfg.trace {
		rep.metrics["items_per_s"] = median(untraced.itemsPerSecond())
		rep.metrics["request_p50_ms"] = quantile(bat.done, 0.50)
		rep.metrics["pass_s"] = median(untraced.passSeconds)
		rep.metrics["verdict_precision"] = first.precision()
		rep.metrics["verdict_recall"] = first.recall()
		rep.metrics["setup_s"] = median(setup)
		return nil
	}

	// Traced run: the untraced loop above is the baseline; now the ispnet
	// layer directly, then the same loop with telemetry, a trace and
	// traced detector decorators.
	reportRuntime(rep, before, after, float64(untraced.results))
	rep.metrics["detector.battery_p99_ms"] = quantile(bat.done, 0.99)
	var jsonlNS, aggNS []float64
	for _, p := range untraced.passes {
		jsonlNS = append(jsonlNS, p.jsonl.nsPerResult())
		aggNS = append(aggNS, p.agg.nsPerResult())
	}
	rep.metrics["sink.jsonl_ns_per_result"] = median(jsonlNS)
	rep.metrics["sink.aggregate_ns_per_result"] = median(aggNS)
	if err := measureWorld(rep, setup, newSession); err != nil {
		return err
	}

	reg := obs.NewRegistry()
	tr := obs.NewTracer(nil)
	var stats map[string]*detectorStats
	tracedCamp := camp
	tracedBat := newBatteries()
	tracedCamp.Measurements, stats = decorate(cw.measurements, vantages, tracedBat, tr, true)
	traced, err := cw.loop(ctx, sess, cfg, tracedCamp, truth, expected, rep, tr, tracedBat,
		censor.WithTelemetry(reg), censor.WithTrace(tr))
	if err != nil {
		return err
	}
	if traced.digest != untraced.digest {
		rep.fail("decorated campaign JSONL digest %s differs from the undecorated %s", traced.digest, untraced.digest)
	}
	rep.attempted += traced.results
	rep.failed += traced.errors

	snap := reg.Snapshot()
	tasks, taskNS := histSum(snap, "censor_task_ns")
	_, mergeNS := histSum(snap, "censor_merge_wait_ns")
	builds, _ := seriesSum(snap, "censor_replica_builds_total")
	rep.metrics["trace.overhead_share"] = median(traced.passSeconds)/median(untraced.passSeconds) - 1
	rep.metrics["censor.worker_busy_share"] = ratio(taskNS, float64(workers)*float64(traced.sumElapsed))
	rep.metrics["censor.merge_wait_s"] = ratio(mergeNS/1e9, float64(len(traced.passes)))
	rep.metrics["censor.task_ms_p50"] = median(traced.taskMS)
	rep.metrics["censor.task_ms_max"] = quantile(traced.taskMS, 1)
	rep.metrics["censor.replica_builds"] = builds
	reportDetectors(rep, stats)
	reportEngine(rep, snap, float64(traced.results), taskNS, tasks)
	if err := writeTrace(cfg, tr); err != nil {
		return err
	}

	if cw.replay {
		if err := replayCodecs(ctx, sess, cfg, rep, cw.measurements); err != nil {
			return err
		}
	}
	zeroMetrics(rep, "netpkt.", "dnswire.", "httpwire.", "tlswire.", "middlebox.extract_host", "difflib.",
		"monitor.", "experiments.")
	return nil
}

// loop runs campaigns back to back until the budget is spent (at least
// one), checking each one's result count and JSONL digest. With tr set,
// each campaign's task spans are collected and the tracer is cleared
// before the next one, so it ends holding the last campaign's spans.
func (cw campaignWorkload) loop(ctx context.Context, sess *censor.Session, cfg runConfig, camp censor.Campaign,
	truth truthTable, expected int, rep *report, tr *obs.Tracer, bat *batteries, opts ...censor.Option) (*loopResult, error) {
	l := &loopResult{}
	deadline := time.Now().Add(cfg.budget())
	for len(l.passes) == 0 || time.Now().Before(deadline) {
		tr.Reset()
		p, err := runPass(ctx, sess, cfg, camp, truth, opts...)
		if err != nil {
			return nil, err
		}
		bat.endPass(true)
		if p.score.results != expected {
			rep.fail("campaign produced %d results, want %d", p.score.results, expected)
		}
		if l.digest == "" {
			l.digest = p.digest
		} else if p.digest != l.digest {
			rep.fail("campaign JSONL digest changed between runs of one seed: %s then %s", l.digest, p.digest)
		}
		for _, s := range tr.Spans() {
			if s.Cat == "task" && s.End >= s.Start {
				l.taskMS = append(l.taskMS, float64(s.End-s.Start)/1e6)
			}
		}
		l.passes = append(l.passes, p)
		l.results += p.score.results
		l.errors += p.score.errors
		l.sumElapsed += p.elapsed
		l.passSeconds = append(l.passSeconds, p.elapsed.Seconds())
	}
	return l, nil
}

// runPass runs one campaign and drains it into the digesting JSONL sink,
// an AggregateSink and the scoring sink.
func runPass(ctx context.Context, sess *censor.Session, cfg runConfig, camp censor.Campaign, truth truthTable, opts ...censor.Option) (passResult, error) {
	h := sha256.New()
	p := passResult{
		score: &scoreSink{truth: truth},
		jsonl: &timedSink{BatchSink: censor.NewJSONLSink(h)},
		agg:   &timedSink{BatchSink: censor.NewAggregateSink()},
	}
	live := liveHeapMB() // collects garbage: every pass starts from a collected heap
	start := time.Now()
	st, err := sess.Run(ctx, camp, append([]censor.Option{censor.WithWorkers(workers)}, opts...)...)
	if err != nil {
		return p, err
	}
	if err := st.Drain(p.jsonl, p.agg, p.score); err != nil {
		return p, err
	}
	p.elapsed = time.Since(start)
	p.digest = hex.EncodeToString(h.Sum(nil))
	fmt.Printf("pass: %d results in %.3fs, from a %.1f MB live heap\n", p.score.results, p.elapsed.Seconds(), live)
	return p, nil
}

// checkDigest compares a default-seed run with the digest kept for it.
func (cw campaignWorkload) checkDigest(cfg runConfig, rep *report, digest string) {
	if want, ok := keptDigests[cw.name]; ok && cfg.seed == defaultSeed && digest != want {
		rep.fail("campaign JSONL digest %s, want the kept %s", digest, want)
	}
}

// writeTrace exports the tracer as a Chrome trace_event file (open it in
// Perfetto) named after the workload and seed.
func writeTrace(cfg runConfig, tr *obs.Tracer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", tr.Len(), path)
	return f.Close()
}
