package monitor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/censor"
)

// Job describes one recurring campaign: a scenario, the campaign to run
// on it, and the cadence. The zero cadence (Every == 0) registers an
// on-demand job: it never self-schedules, only RunOnce (or the
// POST /v1/campaigns endpoint) triggers it.
type Job struct {
	// Name identifies the job (RunOnce, the API); defaults to the
	// scenario's name.
	Name string
	// Scenario is the world the job measures. The scheduler builds one
	// session per job up front and reuses it across runs — the campaign
	// replica pool makes repeated runs cheap.
	Scenario censor.Scenario
	// Campaign is the fan-out each run executes. Nil fields keep the
	// censor.Campaign defaults (all PBW domains, all registered
	// detectors).
	Campaign censor.Campaign
	// DomainCap caps a nil-Domains campaign to the first N PBW domains
	// (0 = no cap). Resolved against the session's world at run time, so
	// callers need not build the world themselves just to slice its list.
	DomainCap int
	// Load optionally overlays a background-traffic directive (see
	// censor.ApplyLoad) on Scenario before the session builds, e.g.
	// "users=10000,capacity=2048" — the job then measures a world whose
	// censors are under population load.
	Load string
	// Every is the cadence; 0 means on-demand only.
	Every time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) to each scheduled
	// firing, de-synchronizing jobs that share a cadence.
	Jitter time.Duration
	// Workers is the campaign worker-pool size (0 = the session default).
	Workers int
	// Options are extra session options (WithVantages, WithTimeout,
	// WithAttempts). World-shaping options belong in Scenario.
	Options []censor.Option
}

// Scheduler runs Jobs against a Store: every firing executes the job's
// campaign on its pooled session and drains the stream into a fresh
// store run. Runs of the same job serialize; distinct jobs run
// concurrently. Shutdown is context-driven — cancel the context passed
// to Run and every in-flight campaign winds down through the stream's
// own cancellation path.
type Scheduler struct {
	store *Store
	jobs  map[string]*schedJob
	names []string
}

type schedJob struct {
	spec Job
	sess *censor.Session
	mu   sync.Mutex // serializes runs of this job
}

// NewScheduler validates every job and builds its session (so a bad
// scenario fails construction, not the first firing).
func NewScheduler(ctx context.Context, store *Store, jobs ...Job) (*Scheduler, error) {
	if store == nil {
		return nil, fmt.Errorf("monitor: scheduler needs a store")
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("monitor: scheduler needs at least one job")
	}
	s := &Scheduler{store: store, jobs: map[string]*schedJob{}}
	for _, j := range jobs {
		if j.Name == "" {
			j.Name = j.Scenario.Name
		}
		if j.Name == "" {
			return nil, fmt.Errorf("monitor: job has neither a name nor a scenario name")
		}
		if _, dup := s.jobs[j.Name]; dup {
			return nil, fmt.Errorf("monitor: duplicate job %q", j.Name)
		}
		if j.Load != "" {
			loaded, err := censor.ApplyLoad(j.Scenario, j.Load)
			if err != nil {
				return nil, fmt.Errorf("monitor: job %q: %w", j.Name, err)
			}
			j.Scenario = loaded
		}
		opts := append([]censor.Option{censor.WithScenario(j.Scenario)}, j.Options...)
		sess, err := censor.NewSession(ctx, opts...)
		if err != nil {
			return nil, fmt.Errorf("monitor: job %q: %w", j.Name, err)
		}
		s.jobs[j.Name] = &schedJob{spec: j, sess: sess}
		s.names = append(s.names, j.Name)
	}
	return s, nil
}

// Jobs lists the registered job names in registration order.
func (s *Scheduler) Jobs() []string {
	return append([]string(nil), s.names...)
}

// Session exposes a job's pooled session (examples, direct Measure
// calls beside the schedule).
func (s *Scheduler) Session(name string) (*censor.Session, bool) {
	j, ok := s.jobs[name]
	if !ok {
		return nil, false
	}
	return j.sess, true
}

// RunOnce fires one job now: it opens a store run, executes the
// campaign, and drains it into the store, returning the finished run's
// info. Concurrent RunOnce calls for the same job serialize; the ctx
// cancels the campaign mid-flight (the partial run is finalized with its
// error recorded). The run's source is "scheduler" for scheduled
// firings and "api" when triggered through the HTTP handler.
func (s *Scheduler) RunOnce(ctx context.Context, name string) (RunInfo, error) {
	return s.runOnce(ctx, name, "api", false)
}

// errJobBusy is tryRunOnce's answer while the job is running.
var errJobBusy = errors.New("monitor: job is already running")

// tryRunOnce is RunOnce for the HTTP trigger: instead of queueing behind
// a running campaign (and holding the request for both), it fails at
// once with errJobBusy.
func (s *Scheduler) tryRunOnce(ctx context.Context, name string) (RunInfo, error) {
	return s.runOnce(ctx, name, "api", true)
}

func (s *Scheduler) runOnce(ctx context.Context, name, source string, try bool) (RunInfo, error) {
	j, ok := s.jobs[name]
	if !ok {
		return RunInfo{}, fmt.Errorf("monitor: unknown job %q (registered: %v)", name, s.names)
	}
	if !try {
		j.mu.Lock()
	} else if !j.mu.TryLock() {
		return RunInfo{}, errJobBusy
	}
	defer j.mu.Unlock()
	if err := ctx.Err(); err != nil {
		// Cancelled while waiting behind the previous run (or at
		// shutdown): don't open an empty store run for it.
		return RunInfo{}, err
	}

	var opts []censor.Option
	if j.spec.Workers > 0 {
		opts = append(opts, censor.WithWorkers(j.spec.Workers))
	}
	campaign := j.spec.Campaign
	if campaign.Domains == nil && j.spec.DomainCap > 0 {
		if pbw := j.sess.PBWDomains(); j.spec.DomainCap < len(pbw) {
			campaign.Domains = pbw[:j.spec.DomainCap]
		}
	}
	stream, err := j.sess.Run(ctx, campaign, opts...)
	if err != nil {
		return RunInfo{}, err
	}
	sink := s.store.Begin(j.spec.Scenario.Name, source)
	if err := stream.Drain(sink); err != nil {
		// Drain flushed the sink; annotate the truncated run and report.
		sink.FinishErr(err)
		info, _ := s.store.Run(sink.Run())
		return info, err
	}
	info, _ := s.store.Run(sink.Run())
	return info, nil
}

// Run executes the schedule until ctx is cancelled, then returns
// ctx.Err(). Each periodic job (Every > 0) first fires one cadence
// (plus jitter) after start — callers that want data immediately issue
// a synchronous RunOnce first, as cmd/censord does, rather than paying
// for the same campaign twice at startup. A firing that would overlap
// the previous run of the same job waits behind it (runs of one job
// serialize, they do not pile up). On-demand jobs (Every == 0) are
// untouched.
func (s *Scheduler) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for _, name := range s.names {
		j := s.jobs[name]
		if j.spec.Every <= 0 {
			continue
		}
		wg.Add(1)
		go func(name string, j *schedJob) {
			defer wg.Done()
			for {
				delay := j.spec.Every
				if j.spec.Jitter > 0 {
					delay += time.Duration(rand.Int63n(int64(j.spec.Jitter)))
				}
				select {
				case <-time.After(delay):
				case <-ctx.Done():
					return
				}
				// Errors here are cancellations or sink failures; the run
				// records them (RunInfo.Err) and the loop keeps going — a
				// monitoring service outlives one bad campaign.
				s.runOnce(ctx, name, "scheduler", false) //nolint:errcheck
			}
		}(name, j)
	}
	<-ctx.Done()
	wg.Wait()
	return ctx.Err()
}
