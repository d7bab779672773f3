package censor

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"

	"repro/internal/ispnet"
	"repro/internal/pcapwire"
	"repro/obs"
)

// Campaign describes one fan-out: every configured vantage runs every
// measurement over every domain. Nil fields fall back to the session:
// nil Domains means the full potentially-blocked-website list, nil
// Measurements means every registered detector (Measurements()). Empty
// non-nil slices mean exactly what they say — nothing — so a filter that
// matched nothing does not explode into a full sweep.
type Campaign struct {
	// Domains are the websites to measure, in output order.
	Domains []string
	// Measurements are the detectors to run, in output order.
	Measurements []Measurement
}

// Stream delivers campaign results in their deterministic order: by
// vantage (configured order), then measurement, then domain. Consume
// Results() to completion, then check Err(). A consumer that stops
// reading early must call Cancel (or cancel the campaign context) so the
// workers behind the stream wind down.
//
// Internally the stream moves whole task batches, not individual
// results: the merger emits each task's result slice with a single
// channel send, and Drain hands the batch to sinks that implement
// BatchSink in one call. Results(), Collect and Drain are alternative
// single-consumer faces of the same batch channel — pick one per
// stream.
type Stream struct {
	batches chan []Result
	free    chan []Result // recycled task slices; see takeSlice/release
	ctx     context.Context
	cancel  context.CancelFunc
	// Consumer-side abandonment signals, distinct from the derived
	// context: the merger cancels st.ctx during normal teardown, so the
	// Results() forwarder cannot use it to tell "consumer walked away"
	// from "campaign finished with batches still buffered". abort closes
	// on Cancel(); parentDone is the caller's own context.
	abort      chan struct{}
	abortOnce  sync.Once
	parentDone <-chan struct{}
	// err is written by the merger before batches closes, or by the
	// Results() forwarder (before resCh closes) when the consumer
	// abandons results mid-flight; Err() reads it only after the channel
	// it consumes has closed, which orders every access.
	err error

	resOnce sync.Once
	resCh   chan Result
}

// Results is the stream's per-result delivery channel; it closes when
// the campaign completes or is cancelled. It is a compatibility view
// over the batch channel: a forwarder copies each batch out result by
// result, so batch recycling never touches values a consumer holds.
func (st *Stream) Results() <-chan Result {
	st.resOnce.Do(func() {
		st.resCh = make(chan Result, 64)
		// abandon stops forwarding on consumer-side cancellation: results
		// still in flight are dropped, the batch channel is drained until
		// the merger closes it (that close orders the merger's st.err
		// write), and the cancellation is recorded — the merger may have
		// already emitted every batch and exited cleanly, so the forwarder
		// is the only goroutine that knows delivery was cut short.
		abandon := func(batch []Result) {
			st.release(batch)
			for b := range st.batches {
				st.release(b)
			}
			if st.err == nil {
				if err := st.ctx.Err(); err != nil {
					st.err = err
				} else {
					// Parent done-channels close a beat before the
					// cancellation propagates to derived contexts.
					st.err = context.Canceled
				}
			}
		}
		go func() {
			defer close(st.resCh)
			for batch := range st.batches {
				for i := range batch {
					// Check abandonment first: a consumer that keeps
					// draining after Cancel must still observe the cut.
					select {
					case <-st.abort:
						abandon(batch)
						return
					case <-st.parentDone:
						abandon(batch)
						return
					default:
					}
					select {
					case st.resCh <- batch[i]:
					case <-st.abort:
						abandon(batch)
						return
					case <-st.parentDone:
						abandon(batch)
						return
					}
				}
				st.release(batch)
			}
		}()
	})
	return st.resCh
}

// Cancel stops the campaign early. Results() still closes (drain it),
// and Err() reports the cancellation. Safe to call multiple times.
func (st *Stream) Cancel() {
	st.cancel()
	st.abortOnce.Do(func() { close(st.abort) })
}

// Err reports why the stream ended early (context cancellation), or nil
// after a complete run. Only valid once Results() is closed.
func (st *Stream) Err() error { return st.err }

// Collect drains the stream into a slice.
func (st *Stream) Collect() ([]Result, error) {
	var out []Result
	for batch := range st.batches {
		out = append(out, batch...)
		st.release(batch)
	}
	return out, st.err
}

// takeSlice checks a recycled task slice out of the stream's free list,
// or allocates one. The free list is per stream, so a drained campaign
// pins no result memory beyond the stream's own lifetime.
func (st *Stream) takeSlice(capHint int) []Result {
	select {
	case b := <-st.free:
		if cap(b) >= capHint {
			return b
		}
	default:
	}
	return make([]Result, 0, capHint)
}

// release clears a delivered batch (dropping the per-result pointers so
// the GC can reclaim them) and parks the backing array for the next
// task. Consumers own batch values only until their consuming loop
// moves on — Drain documents the same contract for BatchSink.
func (st *Stream) release(b []Result) {
	if cap(b) == 0 {
		return
	}
	clear(b)
	select {
	case st.free <- b[:0]:
	default:
	}
}

// Drain consumes the stream to completion, delivering every result to
// each sink as it arrives — in the stream's deterministic order — and
// flushing the sinks once the stream closes. On a sink error it cancels
// the campaign and drains the remainder so no worker is left blocked
// behind the stream, then returns that error. Every sink is flushed on
// every path — a sibling sink's buffered output is not lost to another
// sink's failure — and the first error wins. Otherwise it returns the
// stream's own Err.
//
// Delivery granularity: when every sink implements BatchSink, Drain
// hands each task's results over as one WriteBatch call — the batch is
// the atomic delivery unit, and a failing sink stops its siblings at
// the batch boundary. If any sink only implements Sink, Drain falls
// back to per-result Write fan-out for all of them, preserving the
// original lockstep semantics (a result rejected by one sink is not
// offered to the next). Output bytes are identical either way.
func (st *Stream) Drain(sinks ...Sink) error {
	batchers := make([]BatchSink, len(sinks))
	allBatch := true
	for i, s := range sinks {
		b, ok := s.(BatchSink)
		if !ok {
			allBatch = false
			break
		}
		batchers[i] = b
	}

	var firstErr error
	for batch := range st.batches {
		if allBatch {
			for _, b := range batchers {
				if err := b.WriteBatch(batch); err != nil {
					firstErr = err
					break
				}
			}
		} else {
			for i := range batch {
				for _, s := range sinks {
					if err := s.Write(batch[i]); err != nil {
						firstErr = err
						break
					}
				}
				if firstErr != nil {
					break
				}
			}
		}
		st.release(batch)
		if firstErr != nil {
			st.Cancel()
			for b := range st.batches {
				st.release(b)
			}
			break
		}
	}
	for _, s := range sinks {
		if err := s.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return st.err
}

// WriteJSONL drains the stream through a JSONLSink, writing each result
// as one JSONL line as it arrives.
func (st *Stream) WriteJSONL(w io.Writer) error {
	return st.Drain(NewJSONLSink(w))
}

// task is one schedulable unit: one vantage running one measurement over
// all campaign domains inside its own world replica.
type task struct {
	vantage string
	m       Measurement
}

// newReplicaWorld builds one campaign replica world. It is a variable so
// the lazy-pool regression test can count builds: the pool's contract is
// at most min(workers, tasks) builds per campaign, and none at all for a
// worker that never picks up a task.
var newReplicaWorld = ispnet.NewWorld

// withFreshReplicaWorlds disables the per-worker replica pool for one
// run, rebuilding a world per task — the pre-pooling behaviour.
// Unexported: it exists so the benchmarks can price the pool's win and
// the determinism tests can cross-check pooled against fresh output.
func withFreshReplicaWorlds() Option {
	return func(c *config) { c.freshReplicas = true }
}

// Run executes a campaign and returns its result stream. Options override
// the session's defaults for this run only (vantages, workers, timeout,
// attempts).
//
// Scheduling is deterministic by construction: each task runs in a
// pristine replica of the session's world — same scenario, same seed — so
// its results do not depend on which worker executes it or when; the
// merger then emits task outputs in task order. WithWorkers(N) for any
// N ≥ 1 therefore yields byte-identical streams.
//
// Replicas are pooled per worker and across campaigns: a worker checks a
// parked world out of the session pool (or builds one on its first task),
// and after each task an engine-level reset rewinds it to the just-built
// state (the reset world is indistinguishable from a fresh build — that
// is the pooling contract the determinism tests enforce). A campaign
// therefore pays for at most workers world builds instead of one per
// (vantage, measurement) task, and a session's later campaigns usually
// pay none at all — the shape the censord scheduler leans on for its
// recurring runs.
func (s *Session) Run(parent context.Context, c Campaign, opts ...Option) (*Stream, error) {
	cfg := s.cfg.with(opts)
	if cfg.err != nil {
		return nil, cfg.err
	}
	// Only vantages/workers/timeout/attempts are overridable per run:
	// replica worlds must mirror the session world that supplied the
	// domain list and validated the vantages, or the determinism contract
	// (and the catalog itself) breaks.
	if !reflect.DeepEqual(cfg.scenario, s.cfg.scenario) {
		return nil, fmt.Errorf("censor: world options (WithScenario/WithSeed) are fixed per session; start a new Session instead")
	}
	for _, name := range cfg.vantages {
		if s.world.ISP(name) == nil {
			return nil, fmt.Errorf("censor: unknown vantage ISP %q", name)
		}
	}
	domains := c.Domains
	if domains == nil {
		domains = s.PBWDomains()
	}
	measurements := c.Measurements
	if measurements == nil {
		measurements = Measurements()
	}

	var tasks []task
	if len(domains) > 0 {
		for _, name := range cfg.vantages {
			for _, m := range measurements {
				tasks = append(tasks, task{vantage: name, m: m})
			}
		}
	}

	// Process-side telemetry: task counts, replica-pool economics, and
	// wall-clock timing. These live in the caller's registry under the
	// censor_* prefix and — unlike the sim-side sums merged from each
	// replica's world registry — legitimately vary with worker count and
	// machine load, so the determinism tests exclude them.
	cTasks := cfg.obs.Counter("censor_tasks_total")
	cPoolHits := cfg.obs.Counter("censor_replica_pool_hits_total")
	cBuilds := cfg.obs.Counter("censor_replica_builds_total")
	hTask := cfg.obs.Histogram("censor_task_ns")
	hMergeWait := cfg.obs.Histogram("censor_merge_wait_ns")

	ctx, cancel := context.WithCancel(parent)
	workers := cfg.workers
	if workers > len(tasks) && len(tasks) > 0 {
		workers = len(tasks)
	}
	st := &Stream{
		// A couple of task batches of lookahead: enough that the merger
		// rarely blocks behind the consumer, small enough that a consumer
		// abandoning mid-stream (TestDrainCancelledStream's shape) still
		// forces the campaign through the cancellation path.
		batches:    make(chan []Result, 2),
		free:       make(chan []Result, workers+2),
		ctx:        ctx,
		cancel:     cancel,
		abort:      make(chan struct{}),
		parentDone: parent.Done(),
	}
	results := make([][]Result, len(tasks))
	done := make([]chan struct{}, len(tasks))
	for i := range done {
		done[i] = make(chan struct{})
	}

	// Feeder + workers: claim tasks in order, run each in isolation.
	idxCh := make(chan int)
	go func() {
		defer close(idxCh)
		for i := range tasks {
			select {
			case idxCh <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			// Replica pool, one slot per worker: the world comes from the
			// session's cross-run pool when a previous campaign parked one,
			// else it is built lazily on the worker's first task pickup
			// (never for an idle worker), and is handed back after each
			// task with an engine-level Reset restoring pristine state.
			// With workers capped at the task count above, a campaign
			// builds at most min(workers, tasks) worlds — and a session's
			// second campaign usually builds none.
			var world *ispnet.World
			for i := range idxCh {
				if ctx.Err() != nil {
					close(done[i])
					continue
				}
				if world == nil {
					if !cfg.freshReplicas {
						world = s.takeReplica()
					}
					if world != nil {
						cPoolHits.Inc()
					} else {
						world = newReplicaWorld(s.world.Cfg)
						cBuilds.Inc()
					}
				}
				span := cfg.trace.Start(tasks[i].vantage+"/"+tasks[i].m.Kind(), "task", wid)
				start := obs.WallClock()
				results[i] = runTask(ctx, world, cfg, tasks[i], domains, st)
				hTask.Observe(obs.WallClock() - start)
				cfg.trace.Finish(span)
				cTasks.Inc()
				// Merge the replica's deterministic sim-side sums into the
				// caller's registry before Reset zeroes them. Counter sums are
				// commutative, so the totals are invariant across worker
				// counts and pooled-vs-fresh replicas — the property the
				// telemetry determinism test pins down.
				world.Obs().AddTo(cfg.obs)
				if cfg.freshReplicas {
					world = nil
				} else {
					world.Reset()
				}
				close(done[i])
			}
			if world != nil && !cfg.freshReplicas {
				// The world was reset after its last task: park it pristine
				// for the session's next campaign.
				s.parkReplica(world)
			}
		}(w)
	}

	// Merger: emit task outputs in task order as they complete — one
	// channel send per task, not per result, and each emitted slot is
	// released immediately so a long campaign never pins every result
	// until the drain finishes.
	go func() {
		defer close(st.batches)
		defer cancel() // release the derived context once fully drained
		defer wg.Wait()
		for i := range tasks {
			// Merge-wait is the time the in-order merger stalls behind this
			// task — the head-of-line blocking that decides whether adding
			// workers helps (tid = workers puts these spans on their own
			// trace row, below the worker rows).
			span := cfg.trace.Start("merge-wait", "merge", workers)
			start := obs.WallClock()
			select {
			case <-done[i]:
			case <-ctx.Done():
				cfg.trace.Finish(span)
				st.err = ctx.Err()
				return
			}
			hMergeWait.Observe(obs.WallClock() - start)
			cfg.trace.Finish(span)
			batch := results[i]
			results[i] = nil // the consumer owns the batch now
			if len(batch) == 0 {
				st.release(batch)
				continue
			}
			select {
			case st.batches <- batch:
			case <-ctx.Done():
				st.err = ctx.Err()
				return
			}
		}
		// Every result was delivered: the campaign completed, even if a
		// cancellation raced in after the final send.
	}()
	return st, nil
}

// runTask measures every campaign domain in order on the worker's pooled
// world replica, stopping at the first context cancellation.
//
// A pristine world per (vantage, measurement) task is deliberate: every
// detector sees an untouched network, so no detector's verdicts depend on
// the engine state an earlier detector left behind. Pooling preserves
// exactly that property — Reset rewinds the replica to its just-built
// state between tasks — while paying the build cost once per worker
// instead of once per task.
func runTask(ctx context.Context, world *ispnet.World, cfg config, t task, domains []string, st *Stream) []Result {
	if ctx.Err() != nil {
		return nil
	}
	v, err := newVantage(world, t.vantage, cfg)
	if err != nil {
		// Vantages were validated against the session world; a replica
		// missing one is unreachable, but fail loudly rather than panic.
		return []Result{{Vantage: t.vantage, Measurement: t.m.Kind(), Error: err.Error()}}
	}
	finishPcap := startTaskPcap(world, cfg, t)
	// The task slice comes from the stream's free list: once the consumer
	// is done with an emitted batch it is cleared and reused, so a
	// campaign's steady-state result storage is O(workers), not O(tasks).
	out := st.takeSlice(len(domains) + 1)
	for _, d := range domains {
		if ctx.Err() != nil {
			break
		}
		out = append(out, t.m.Measure(ctx, v, d))
	}
	if err := finishPcap(); err != nil {
		out = append(out, Result{Vantage: t.vantage, Measurement: t.m.Kind(),
			Error: fmt.Sprintf("pcap: %v", err)})
	}
	return out
}

// startTaskPcap installs a packet tap on the task vantage's client host,
// streaming every packet the client sends or receives into
// <pcapDir>/<vantage>_<kind>.pcap. The returned finish func detaches the
// tap and closes the file, reporting the first error of the capture.
// Virtual timestamps make the file a deterministic artifact: identical
// across runs, worker counts, and replica reuse.
func startTaskPcap(world *ispnet.World, cfg config, t task) func() error {
	if cfg.pcapDir == "" {
		return func() error { return nil }
	}
	host := world.ISP(t.vantage).Client.Host
	path := filepath.Join(cfg.pcapDir, t.vantage+"_"+t.m.Kind()+".pcap")
	f, err := os.Create(path)
	if err != nil {
		return func() error { return err }
	}
	bw := bufio.NewWriter(f)
	pw, err := pcapwire.NewWriter(bw)
	if err != nil {
		f.Close()
		return func() error { return err }
	}
	host.SetTap(pw.Tap())
	return func() error {
		host.SetTap(nil)
		err := pw.Err()
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
}
