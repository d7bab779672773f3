package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refEvent is one event of the reference model.
type refEvent struct {
	at   Time
	seq  uint64
	id   int
	dead bool // cancelled while queued
	gone bool // ran, released by compaction or pruning, or dropped by Reset
}

// refEngine is the naive reference the engine's queue is checked against:
// one slice kept sorted by (at, seq), with the engine's documented
// lazy-cancellation and compaction rules, publishing its telemetry on
// every event.
type refEngine struct {
	now       Time
	seq       uint64
	queue     []*refEvent
	deadCount int
	onRun     func(id int)

	scheduled, run, recycled, cancelled uint64
	depth                               int
}

func (r *refEngine) schedule(d Duration, id int) *refEvent {
	if d < 0 {
		d = 0
	}
	ev := &refEvent{at: r.now.Add(d), seq: r.seq, id: id}
	r.seq++
	i := sort.Search(len(r.queue), func(i int) bool {
		q := r.queue[i]
		return q.at > ev.at || (q.at == ev.at && q.seq > ev.seq)
	})
	r.queue = append(r.queue, nil)
	copy(r.queue[i+1:], r.queue[i:])
	r.queue[i] = ev
	r.scheduled++
	r.depth = len(r.queue)
	return ev
}

func (r *refEngine) stop(ev *refEvent) bool {
	if ev == nil || ev.gone || ev.dead {
		return false
	}
	ev.dead = true
	r.deadCount++
	r.cancelled++
	if r.deadCount*2 > len(r.queue) && len(r.queue) >= 64 {
		live := r.queue[:0]
		for _, q := range r.queue {
			if q.dead {
				q.gone = true
				r.recycled++
			} else {
				live = append(live, q)
			}
		}
		r.queue = live
		r.deadCount = 0
	}
	return true
}

// front prunes dead events off the front and returns the earliest live
// one, or nil.
func (r *refEngine) front() *refEvent {
	for len(r.queue) > 0 {
		q := r.queue[0]
		if !q.dead {
			return q
		}
		r.queue = r.queue[1:]
		q.gone = true
		r.deadCount--
		r.recycled++
	}
	return nil
}

func (r *refEngine) runFront() {
	q := r.queue[0]
	r.queue = r.queue[1:]
	q.gone = true
	r.recycled++
	r.now = q.at
	r.run++
	r.depth = len(r.queue)
	r.onRun(q.id)
}

func (r *refEngine) runAll() {
	for r.front() != nil {
		r.runFront()
	}
}

func (r *refEngine) runFor(d Duration) {
	deadline := r.now.Add(d)
	for q := r.front(); q != nil && q.at <= deadline; q = r.front() {
		r.runFront()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *refEngine) runUntil(timeout Duration, cond func() bool) error {
	deadline := r.now.Add(timeout)
	if cond() {
		return nil
	}
	for q := r.front(); q != nil && q.at <= deadline; q = r.front() {
		r.runFront()
		if cond() {
			return nil
		}
	}
	if r.now < deadline {
		r.now = deadline
	}
	return ErrDeadline
}

func (r *refEngine) nextAt() (Time, bool) {
	if q := r.front(); q != nil {
		return q.at, true
	}
	return 0, false
}

func (r *refEngine) reset() {
	for _, q := range r.queue {
		q.gone = true
	}
	*r = refEngine{onRun: r.onRun}
}

// laneDelays repeat often enough to earn delay lanes; there are more of
// them than lanes, so some stay in the heap.
var laneDelays = []Duration{
	0, time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
	5 * time.Millisecond, 2 * time.Second, 3 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond,
}

func randDelay(rng *rand.Rand) Duration {
	switch p := rng.Intn(10); {
	case p < 7:
		return laneDelays[rng.Intn(len(laneDelays))]
	case p < 9:
		return Duration(rng.Intn(20_000)) * time.Microsecond
	default:
		return -Duration(rng.Intn(5)) // clamped to zero
	}
}

// twin drives the engine and the reference with the same operations.
// Callbacks decide what to do from (seed, id) alone, so both sides get
// the same instructions as long as they run the same events in the same
// order; each records the ids it ran.
type twin struct {
	t    *testing.T
	seed int64
	eng  *Engine
	ref  *refEngine

	engTimers map[int]Timer
	refEvents map[int]*refEvent
	engNext   int
	refNext   int
	engTrace  []ran
	refTrace  []ran
	// engBudget and refBudget bound the events callbacks may still
	// schedule, so every run terminates.
	engBudget int
	refBudget int
	// maxLanes and compactions record that the run exercised the lanes
	// and the compaction path.
	maxLanes    int
	compactions int
}

// ran is one executed event: its id (-1 for a test's own event) and time.
type ran struct {
	id int
	at Time
}

func newTwin(t *testing.T, seed int64) *twin {
	w := &twin{
		t: t, seed: seed,
		eng:       NewEngine(seed),
		ref:       &refEngine{},
		engTimers: map[int]Timer{},
		refEvents: map[int]*refEvent{},
	}
	w.ref.onRun = func(id int) {
		w.refTrace = append(w.refTrace, ran{id, w.ref.now})
		w.callback(id, false)
	}
	return w
}

// instructions are what event id does when it runs: schedule children
// and stop earlier events.
func (w *twin) instructions(id int) (children []Duration, stops []int) {
	h := splitmix(uint64(w.seed)<<32 ^ uint64(id))
	for n := h % 3; n > 0; n-- {
		h = splitmix(h)
		switch p := h % 10; {
		case p < 7:
			children = append(children, laneDelays[h/10%uint64(len(laneDelays))])
		default:
			children = append(children, Duration(h/10%20_000)*time.Microsecond)
		}
	}
	if h = splitmix(h); h%4 == 0 && id > 0 {
		stops = append(stops, int(h/4%uint64(id)))
	}
	return children, stops
}

// splitmix is the SplitMix64 finalizer: a cheap per-event hash, where a
// seeded rand.Source per event would dominate the test's run time.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func (w *twin) callback(id int, eng bool) {
	children, stops := w.instructions(id)
	for _, d := range children {
		if eng {
			if w.engBudget == 0 {
				break
			}
			w.engBudget--
			w.scheduleEng(d)
		} else {
			if w.refBudget == 0 {
				break
			}
			w.refBudget--
			w.scheduleRef(d)
		}
	}
	for _, s := range stops {
		if eng {
			w.engTimers[s].Stop()
		} else {
			w.ref.stop(w.refEvents[s])
		}
	}
}

func (w *twin) scheduleEng(d Duration) {
	id := w.engNext
	w.engNext++
	w.engTimers[id] = w.eng.Schedule(d, func() {
		w.engTrace = append(w.engTrace, ran{id, w.eng.Now()})
		w.callback(id, true)
	})
}

func (w *twin) scheduleRef(d Duration) {
	id := w.refNext
	w.refNext++
	w.refEvents[id] = w.ref.schedule(d, id)
}

// schedule adds n events from outside any run, on both sides.
func (w *twin) schedule(rng *rand.Rand, n int) {
	for ; n > 0; n-- {
		d := randDelay(rng)
		w.scheduleEng(d)
		w.scheduleRef(d)
	}
}

// stop cancels each of the latest 1000 events with probability p, on
// both sides, and checks that both report the same outcome.
func (w *twin) stop(rng *rand.Rand, p float64) {
	for id := max(0, w.engNext-1000); id < w.engNext; id++ {
		if rng.Float64() >= p {
			continue
		}
		got, want := w.engTimers[id].Stop(), w.ref.stop(w.refEvents[id])
		if got != want {
			w.t.Fatalf("seed %d: Stop(%d) = %v, reference %v", w.seed, id, got, want)
		}
	}
}

func (w *twin) setBudget(n int) { w.engBudget, w.refBudget = n, n }

// check compares the two sides after an operation. With telemetry set it
// also compares the engine's published sim_* instruments with the
// reference's per-event values.
func (w *twin) check(op string, telemetry bool) {
	w.t.Helper()
	e, r := w.eng, w.ref
	if len(w.engTrace) != len(w.refTrace) {
		w.t.Fatalf("seed %d after %s: ran %d events, reference %d", w.seed, op, len(w.engTrace), len(w.refTrace))
	}
	for i := range w.engTrace {
		if w.engTrace[i] != w.refTrace[i] {
			w.t.Fatalf("seed %d after %s: event %d ran %+v, reference %+v", w.seed, op, i, w.engTrace[i], w.refTrace[i])
		}
	}
	if e.Now() != r.now {
		w.t.Fatalf("seed %d after %s: Now = %v, reference %v", w.seed, op, e.Now(), r.now)
	}
	if got, want := e.Pending(), len(r.queue)-r.deadCount; got != want {
		w.t.Fatalf("seed %d after %s: Pending = %d, reference %d", w.seed, op, got, want)
	}
	if e.Executed() != r.run {
		w.t.Fatalf("seed %d after %s: Executed = %d, reference %d", w.seed, op, e.Executed(), r.run)
	}
	w.engTrace, w.refTrace = w.engTrace[:0], w.refTrace[:0]
	w.maxLanes = max(w.maxLanes, e.nlanes)
	if !telemetry {
		return
	}
	reg := e.Obs()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"sim_events_scheduled_total", reg.Counter("sim_events_scheduled_total").Value(), r.scheduled},
		{"sim_events_run_total", reg.Counter("sim_events_run_total").Value(), r.run},
		{"sim_events_cancelled_total", reg.Counter("sim_events_cancelled_total").Value(), r.cancelled},
		{"sim_arena_recycles_total", reg.Counter("sim_arena_recycles_total").Value(), r.recycled},
		{"sim_heap_depth", uint64(reg.Gauge("sim_heap_depth").Value()), uint64(r.depth)},
	} {
		if c.got != c.want {
			w.t.Fatalf("seed %d after %s: %s = %d, per-event publishing gives %d", w.seed, op, c.name, c.got, c.want)
		}
	}
}

// step applies one random operation to both sides and compares them.
func (w *twin) step(rng *rand.Rand, telemetry bool) {
	w.t.Helper()
	var op string
	switch k := rng.Intn(16); {
	case k < 5:
		n := 1 + rng.Intn(80)
		w.schedule(rng, n)
		op = fmt.Sprintf("schedule %d", n)
	case k < 7:
		w.stop(rng, 0.1)
		op = "stop 10%"
	case k == 7:
		// Mass cancel: drives the queue past half dead, so it compacts.
		w.schedule(rng, 100+rng.Intn(200))
		before := w.eng.queued
		w.stop(rng, 0.9)
		if w.eng.queued < before {
			w.compactions++
		}
		op = "mass cancel"
	case k < 10:
		d := Duration(rng.Intn(30_000)) * time.Microsecond
		w.setBudget(rng.Intn(200))
		w.eng.RunFor(d)
		w.ref.runFor(d)
		op = fmt.Sprintf("RunFor %v", d)
	case k < 13:
		timeout := Duration(rng.Intn(3_000_000)) * time.Microsecond
		stopAfter := uint64(rng.Intn(50))
		w.setBudget(rng.Intn(200))
		eStart, rStart := w.eng.Executed(), w.ref.run
		got := w.eng.RunUntil(timeout, func() bool { return w.eng.Executed()-eStart >= stopAfter })
		want := w.ref.runUntil(timeout, func() bool { return w.ref.run-rStart >= stopAfter })
		if got != want {
			w.t.Fatalf("seed %d: RunUntil = %v, reference %v", w.seed, got, want)
		}
		op = fmt.Sprintf("RunUntil %v after %d", timeout, stopAfter)
	case k == 13:
		w.setBudget(rng.Intn(100))
		w.eng.Run()
		w.ref.runAll()
		op = "Run"
	case k == 14:
		got, gotOK := w.eng.NextAt()
		want, wantOK := w.ref.nextAt()
		if got != want || gotOK != wantOK {
			w.t.Fatalf("seed %d: NextAt = %v,%v, reference %v,%v", w.seed, got, gotOK, want, wantOK)
		}
		op = "NextAt"
	default:
		if rng.Intn(4) == 0 {
			w.eng.Reset()
			w.ref.reset()
			op = "Reset"
		} else {
			op = "noop"
		}
	}
	w.check(op, telemetry)
}

// Property: over many seeds and random mixes of lane-eligible and random
// delays, cancellations, mass-cancel compaction, RunFor/RunUntil cut-offs,
// NextAt probes and Resets, the engine runs exactly the events a naive
// (at, seq)-sorted queue runs, in the same order, at the same times.
func TestQueueMatchesReference(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	var lanes, compactions int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		w := newTwin(t, seed)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 150; i++ {
			w.step(rng, false)
		}
		lanes, compactions = max(lanes, w.maxLanes), compactions+w.compactions
	}
	if lanes != maxLanes || compactions == 0 {
		t.Errorf("the runs used at most %d lanes and compacted %d times; want all %d lanes and some compaction",
			lanes, compactions, maxLanes)
	}
}

// The sim_* instruments are counted in engine fields and published when a
// run loop returns (and at once for work done outside one). Whatever
// returns a run loop, a reader afterwards must see exactly what publishing
// on every event would show.
func TestTelemetryFlushMatchesPerEvent(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			w := newTwin(t, seed)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 150; i++ {
				w.step(rng, true)
			}
		}
	})
	t.Run("RunUntil cond already true", func(t *testing.T) {
		w := newTwin(t, 1)
		rng := rand.New(rand.NewSource(1))
		w.schedule(rng, 10)
		w.setBudget(0)
		if err := w.eng.RunUntil(time.Hour, func() bool { return true }); err != nil {
			t.Fatal(err)
		}
		w.ref.runUntil(time.Hour, func() bool { return true })
		w.check("RunUntil(true)", true)
	})
	t.Run("compaction inside a run", func(t *testing.T) {
		// A callback cancels most of the queue mid-run, so the compaction
		// happens while counts are held back; the run's return publishes.
		w := newTwin(t, 2)
		rng := rand.New(rand.NewSource(2))
		w.schedule(rng, 300)
		w.setBudget(0)
		mass := func(eng bool) {
			for id := 0; id < 300; id++ {
				if eng {
					w.engTimers[id].Stop()
				} else {
					w.ref.stop(w.refEvents[id])
				}
			}
		}
		w.eng.Schedule(0, func() { w.engTrace = append(w.engTrace, ran{-1, w.eng.Now()}); mass(true) })
		w.ref.onRun = func(id int) {
			w.refTrace = append(w.refTrace, ran{id, w.ref.now})
			if id == -1 {
				mass(false)
				return
			}
			w.callback(id, false)
		}
		w.ref.schedule(0, -1)
		w.eng.RunFor(time.Millisecond)
		w.ref.runFor(time.Millisecond)
		w.check("RunFor with in-run compaction", true)
	})
	t.Run("Stop compaction then run", func(t *testing.T) {
		w := newTwin(t, 3)
		rng := rand.New(rand.NewSource(3))
		w.schedule(rng, 400)
		w.stop(rng, 0.95)
		w.check("mass Stop", true)
		w.setBudget(50)
		w.eng.RunFor(5 * time.Millisecond)
		w.ref.runFor(5 * time.Millisecond)
		w.check("RunFor after compaction", true)
		w.eng.Run()
		w.ref.runAll()
		w.check("Run after compaction", true)
	})
}
