// Package sim provides a deterministic discrete-event simulation engine.
//
// Everything in the reproduction — packet delivery, middlebox injection
// races, DNS lookups, TCP timeouts — is scheduled on a single Engine. The
// engine is strictly single-threaded: callbacks run inside Run/RunUntil on
// the caller's goroutine, which makes every experiment bit-for-bit
// reproducible for a given seed.
//
// The scheduler is built for the packet hot path: events are stored by
// value in an arena (a slot-addressed slice that is recycled, never
// freed), and cancellation hands out generation-counted Timer values
// instead of pinning per-event allocations. The pending queue holds
// inline (time, sequence, slot) entries in two kinds of structure. A
// simulated world repeats a handful of delays — link latencies, processing
// times, fixed timeouts — for almost every event, and entries scheduled
// with one fixed delay arrive already sorted, because the clock never runs
// backwards and sequence numbers only grow. Each such frequent delay gets
// a FIFO delay lane with O(1) push and pop; every other delay goes to a
// 4-ary heap. Popping takes the earliest of the heap top and the lane
// heads, so the lanes decide only where an entry waits, never the order
// events run in. Steady state, Schedule and ScheduleCall allocate nothing.
// Cancelled events die lazily — they are skipped when popped, and when
// more than half the queue is dead it compacts in one pass — so
// mass-cancelled timers cannot grow Pending memory unboundedly.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/obs"
)

// Time is a virtual timestamp measured from the start of the simulation.
type Time time.Duration

// Duration aliases time.Duration for readability at call sites.
type Duration = time.Duration

func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event is a scheduled callback, stored by value in the engine's arena.
// Exactly one of fn and fn2 is set; fn2 carries its two arguments inline
// so hot-path callers can schedule without building a closure. Its firing
// time lives in the queue entry that points at it.
type event struct {
	fn   func()
	fn2  func(a, b any)
	a, b any
	// gen counts the slot's reuses; a Timer whose generation no longer
	// matches refers to an event that already ran, was cancelled, or was
	// dropped by Reset.
	gen  uint32
	dead bool
}

// entry is one queued event: its ordering key inline, so the queue
// compares entries without touching the arena. 24 bytes.
type entry struct {
	at  Time
	seq uint64 // tie-break so equal-time events run FIFO
	idx int32  // arena slot
}

// before orders entries by (at, seq); seq is unique so the order is total
// and execution deterministic.
func (x *entry) before(y *entry) bool {
	return x.at < y.at || (x.at == y.at && x.seq < y.seq)
}

// Timer is a handle to a scheduled event; Stop cancels it. The zero Timer
// is valid and Stop on it reports false.
type Timer struct {
	eng *Engine
	idx int32
	gen uint32
}

// Stop cancels the timer. It reports whether the callback had not yet run:
// false when the event already executed, was already stopped, or was
// dropped by an engine Reset.
func (t Timer) Stop() bool {
	e := t.eng
	if e == nil || int(t.idx) >= len(e.arena) {
		return false
	}
	ev := &e.arena[t.idx]
	if ev.gen != t.gen || ev.dead {
		return false
	}
	ev.dead = true
	ev.fn, ev.fn2, ev.a, ev.b = nil, nil, nil, nil
	e.deadCount++
	e.cCancelled.Inc()
	e.maybeCompact()
	return true
}

// Queue sizing. maxLanes bounds the lane heads a pop compares; the
// measured worlds use five delays for over 96% of their events.
// freqSlots is the size of the direct-mapped table counting repeats of
// delays that have no lane yet; a delay that repeats admitAfter times
// while holding its slot is given a lane when one is free.
const (
	maxLanes   = 8
	freqBits   = 6
	freqSlots  = 1 << freqBits
	admitAfter = 8
	minLaneCap = 64 // power of two
)

// lane is the FIFO of pending entries sharing one delay, a power-of-two
// ring buffer whose capacity survives Reset and lane reassignment.
type lane struct {
	buf  []entry
	head int
	n    int
}

//repolint:hotpath
func (l *lane) push(x entry) {
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = x
	l.n++
}

// grow doubles the ring, unrolling it so the oldest entry sits at 0.
func (l *lane) grow() {
	size := 2 * len(l.buf)
	if size < minLaneCap {
		size = minLaneCap
	}
	buf := make([]entry, size)
	for k := 0; k < l.n; k++ {
		buf[k] = l.buf[(l.head+k)&(len(l.buf)-1)]
	}
	l.buf, l.head = buf, 0
}

//repolint:hotpath
func (l *lane) pop() {
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

// freqSlot counts repeats of one delay (lane is its lane index plus one,
// or 0 while it has none).
type freqSlot struct {
	delay Duration
	count uint32
	lane  uint8
}

// fromHeap marks the heap as the source of the earliest entry; lane
// sources are lane indices.
const fromHeap = -1

// Engine is a deterministic discrete-event scheduler with a virtual clock
// and a seeded random source. The zero value is not usable; construct with
// NewEngine.
type Engine struct {
	now    Time
	seq    uint64 // events scheduled since construction or Reset
	seed   int64
	rng    *rand.Rand
	events uint64 // total events executed, for instrumentation

	arena []event // slot-addressed event storage, recycled via free
	free  []int32 // released arena slots

	heap   []entry // 4-ary min-heap of entries whose delay has no lane
	lanes  [maxLanes]lane
	nlanes int
	freq   [freqSlots]freqSlot
	// queued counts the entries in heap and lanes, dead ones included;
	// deadCount is how many of them are cancelled events awaiting lazy
	// removal.
	queued    int
	deadCount int

	// Engine telemetry is counted in plain fields and published to the
	// registry when no run loop is active: on every run-loop return, and
	// straight away for work done outside one. recycled counts arena
	// slot releases; depth is queued as of the last schedule or executed
	// event, the value sim_heap_depth has always reported. pub* are the
	// values already in the registry.
	recycled                      uint64
	depth, pubDepth               int
	running                       bool
	pubSched, pubRun, pubRecycled uint64

	// reg is the engine-owned telemetry registry — the per-world registry
	// every component built on this engine resolves instruments from. Its
	// contents count virtual events only, so they are as deterministic as
	// the event order itself: Reset rewinds them with the clock, and a
	// reset world's counters are byte-identical to a fresh build's.
	reg        *obs.Registry
	cScheduled *obs.Counter
	cRun       *obs.Counter
	cCancelled *obs.Counter
	cRecycled  *obs.Counter
	// gHeapDepth is sim_heap_depth: the pending entries across the heap
	// and the lanes, dead ones included.
	gHeapDepth *obs.Gauge
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	e := &Engine{seed: seed, rng: rand.New(rand.NewSource(seed))}
	e.reg = obs.NewRegistry()
	e.bindObs()
	return e
}

// bindObs resolves the engine's own instruments from its registry. With
// reg nil (StripTelemetry) every instrument comes back nil, and nil
// instruments are no-ops.
func (e *Engine) bindObs() {
	e.cScheduled = e.reg.Counter("sim_events_scheduled_total")
	e.cRun = e.reg.Counter("sim_events_run_total")
	e.cCancelled = e.reg.Counter("sim_events_cancelled_total")
	e.cRecycled = e.reg.Counter("sim_arena_recycles_total")
	e.gHeapDepth = e.reg.Gauge("sim_heap_depth")
}

// publish adds the engine's counts since the last publish to its
// registry and sets the depth gauge.
func (e *Engine) publish() {
	if e.seq != e.pubSched {
		e.cScheduled.Add(e.seq - e.pubSched)
		e.pubSched = e.seq
	}
	if e.events != e.pubRun {
		e.cRun.Add(e.events - e.pubRun)
		e.pubRun = e.events
	}
	if e.recycled != e.pubRecycled {
		e.cRecycled.Add(e.recycled - e.pubRecycled)
		e.pubRecycled = e.recycled
	}
	if e.depth != e.pubDepth {
		e.gHeapDepth.Set(int64(e.depth))
		e.pubDepth = e.depth
	}
}

// enter marks a run loop active and reports whether one already was;
// leave restores that state and publishes once the outermost loop ends.
func (e *Engine) enter() bool {
	was := e.running
	e.running = true
	return was
}

func (e *Engine) leave(was bool) {
	e.running = was
	if !was {
		e.publish()
	}
}

// Obs returns the engine-owned per-world telemetry registry. Components
// built on the engine (network, middleboxes, traffic generators) resolve
// their instruments here at construction time, so World.Reset — which
// resets the engine — rewinds every world metric in one place. Returns
// nil after StripTelemetry.
func (e *Engine) Obs() *obs.Registry { return e.reg }

// StripTelemetry discards the engine's registry and rebinds every
// instrument to nil, turning the telemetry layer into no-ops. Call it
// right after NewEngine, before wiring components, to measure or run
// without instrumentation; components built earlier keep counting into
// the discarded registry.
func (e *Engine) StripTelemetry() {
	e.reg = nil
	e.bindObs()
}

// Reset restores the engine to its just-constructed state: the clock back
// at zero, every pending event dropped, and the random source reseeded
// with the original seed. Components built on the engine keep their
// pointers to it, so a world can be rewound without rebuilding — the
// foundation of campaign world pooling. After Reset the engine is
// indistinguishable from NewEngine(seed), which is what makes a reset
// world produce byte-identical measurements to a freshly built one. The
// arena and the queue keep their capacity; slot generations advance so
// Timers from before the reset can no longer cancel anything.
func (e *Engine) Reset() {
	e.now = 0
	e.seq = 0
	e.events = 0
	e.queued, e.deadCount = 0, 0
	e.recycled, e.depth, e.pubDepth = 0, 0, 0
	e.pubSched, e.pubRun, e.pubRecycled = 0, 0, 0
	e.heap = e.heap[:0]
	for i := range e.lanes {
		l := &e.lanes[i]
		l.head, l.n = 0, 0
	}
	e.nlanes = 0
	e.freq = [freqSlots]freqSlot{}
	e.free = e.free[:0]
	for i := range e.arena {
		ev := &e.arena[i]
		ev.gen++
		ev.fn, ev.fn2, ev.a, ev.b = nil, nil, nil, nil
		ev.dead = false
		e.free = append(e.free, int32(i))
	}
	e.rng = rand.New(rand.NewSource(e.seed))
	e.reg.Reset()
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Pending returns the number of scheduled (not yet executed, not
// cancelled) events.
func (e *Engine) Pending() int { return e.queued - e.deadCount }

// Executed returns the total number of events executed so far.
func (e *Engine) Executed() uint64 { return e.events }

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero. The returned Timer can cancel the event.
//
//repolint:hotpath
func (e *Engine) Schedule(d Duration, fn func()) Timer {
	idx := e.alloc(d)
	e.arena[idx].fn = fn
	return Timer{eng: e, idx: idx, gen: e.arena[idx].gen}
}

// ScheduleCall runs fn(a, b) after delay d of virtual time, storing the
// two arguments inline in the event so the caller needs no per-event
// closure. With a long-lived fn and pointer-shaped arguments a scheduled
// packet hop allocates nothing.
//
//repolint:hotpath
func (e *Engine) ScheduleCall(d Duration, fn func(a, b any), a, b any) Timer {
	idx := e.alloc(d)
	ev := &e.arena[idx]
	ev.fn2, ev.a, ev.b = fn, a, b
	return Timer{eng: e, idx: idx, gen: ev.gen}
}

// alloc reserves an arena slot for an event at now+d and queues it. The
// slot's callback fields are zero; callers fill them.
//
//repolint:hotpath
func (e *Engine) alloc(d Duration) int32 {
	if d < 0 {
		d = 0
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		idx = int32(len(e.arena) - 1)
	}
	x := entry{at: e.now.Add(d), seq: e.seq, idx: idx}
	e.seq++
	if l := e.laneFor(d); l != nil {
		l.push(x)
	} else {
		e.heapPush(x)
	}
	e.queued++
	e.depth = e.queued
	if !e.running {
		e.publish()
	}
	return idx
}

// laneFor returns the lane holding delay d, admitting d to a free lane
// once it has repeated often enough, or nil when d waits in the heap.
// Admission only moves where entries wait, so any policy here keeps the
// event order.
//
//repolint:hotpath
func (e *Engine) laneFor(d Duration) *lane {
	s := &e.freq[uint64(d)*0x9E3779B97F4A7C15>>(64-freqBits)]
	if s.delay != d {
		// The slot's incumbent loses one repeat per miss and yields the
		// slot at zero; a lane's slot is never taken over.
		if s.lane != 0 {
			return nil
		}
		if s.count > 0 {
			s.count--
			return nil
		}
		s.delay = d
	}
	if s.lane != 0 {
		return &e.lanes[s.lane-1]
	}
	s.count++
	if s.count < admitAfter || e.nlanes == maxLanes {
		return nil
	}
	e.nlanes++
	s.lane = uint8(e.nlanes)
	return &e.lanes[e.nlanes-1]
}

// release recycles an arena slot, invalidating outstanding Timers for it.
//
//repolint:hotpath
func (e *Engine) release(idx int32) {
	ev := &e.arena[idx]
	ev.gen++
	ev.fn, ev.fn2, ev.a, ev.b = nil, nil, nil, nil
	ev.dead = false
	e.free = append(e.free, idx)
	e.recycled++
}

//repolint:hotpath
func (e *Engine) heapPush(x entry) {
	h := append(e.heap, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	e.heap = h
}

// heapPop removes the heap's smallest entry. The heap must be non-empty.
//
//repolint:hotpath
func (e *Engine) heapPop() {
	last := len(e.heap) - 1
	x := e.heap[last]
	e.heap = e.heap[:last]
	if last > 0 {
		siftDown(e.heap, 0, x)
	}
}

// siftDown places x at or below position i of the 4-ary heap h.
//
//repolint:hotpath
func siftDown(h []entry, i int, x entry) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// earliest returns the earliest queued entry and its source (fromHeap or
// a lane index); the entry is nil when the queue is empty.
//
//repolint:hotpath
func (e *Engine) earliest() (int, *entry) {
	src := fromHeap
	var best *entry
	if len(e.heap) > 0 {
		best = &e.heap[0]
	}
	for i := 0; i < e.nlanes; i++ {
		l := &e.lanes[i]
		if l.n == 0 {
			continue
		}
		if x := &l.buf[l.head]; best == nil || x.before(best) {
			src, best = i, x
		}
	}
	return src, best
}

// pop removes the earliest entry, found by earliest at src.
//
//repolint:hotpath
func (e *Engine) pop(src int) {
	if src == fromHeap {
		e.heapPop()
	} else {
		e.lanes[src].pop()
	}
	e.queued--
}

// maybeCompact removes dead entries from the queue in one pass once they
// outnumber the live ones, bounding the memory a burst of cancellations
// can pin. Small queues are left to lazy pop-time cleanup. Lanes are
// filtered in place, which keeps them sorted.
func (e *Engine) maybeCompact() {
	if e.deadCount*2 <= e.queued || e.queued < 64 {
		return
	}
	live := e.heap[:0]
	for _, x := range e.heap {
		if e.arena[x.idx].dead {
			e.release(x.idx)
		} else {
			live = append(live, x)
		}
	}
	e.heap = live
	if n := len(live); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- { // from the last parent up
			siftDown(live, i, live[i])
		}
	}
	for i := 0; i < e.nlanes; i++ {
		l := &e.lanes[i]
		mask, kept := len(l.buf)-1, 0
		for k := 0; k < l.n; k++ {
			x := l.buf[(l.head+k)&mask]
			if e.arena[x.idx].dead {
				e.release(x.idx)
				continue
			}
			l.buf[(l.head+kept)&mask] = x
			kept++
		}
		l.n = kept
	}
	e.queued -= e.deadCount
	e.deadCount = 0
	if !e.running {
		e.publish()
	}
}

// front returns the source of the earliest live entry, pruning dead
// entries ahead of it, and false when no live event is queued.
//
//repolint:hotpath
func (e *Engine) front() (int, Time, bool) {
	for {
		src, x := e.earliest()
		if x == nil {
			return 0, 0, false
		}
		if !e.arena[x.idx].dead {
			return src, x.at, true
		}
		idx := x.idx
		e.pop(src)
		e.deadCount--
		e.release(idx)
	}
}

// NextAt returns the virtual time of the earliest pending event, or false
// when the queue is empty. Pump loops use it to size run slices without
// stepping blind through empty stretches of virtual time.
func (e *Engine) NextAt() (Time, bool) {
	_, at, ok := e.front()
	if !e.running {
		e.publish()
	}
	return at, ok
}

// runFront executes the earliest live event, which front found at src.
//
//repolint:hotpath
func (e *Engine) runFront(src int) {
	var x entry
	if src == fromHeap {
		x = e.heap[0]
	} else {
		l := &e.lanes[src]
		x = l.buf[l.head]
	}
	e.pop(src)
	ev := &e.arena[x.idx]
	fn, fn2, a, b := ev.fn, ev.fn2, ev.a, ev.b
	// Release before running: the callback may schedule (growing the
	// arena) and a Stop on this event's Timer must now report false —
	// the callback is no longer pending.
	e.release(x.idx)
	e.now = x.at
	e.events++
	e.depth = e.queued
	if fn != nil {
		fn()
	} else {
		fn2(a, b)
	}
}

// step executes the earliest pending event. It reports false when the
// queue is empty.
func (e *Engine) step() bool {
	src, _, ok := e.front()
	if ok {
		e.runFront(src)
	}
	return ok
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	defer e.leave(e.enter())
	for e.step() {
	}
}

// ErrDeadline is returned by RunUntil when the condition did not become true
// before the virtual deadline or queue exhaustion.
var ErrDeadline = fmt.Errorf("sim: deadline exceeded")

// RunUntil executes events until cond() reports true, returning nil, or
// until the virtual clock passes the deadline (now+timeout) or the queue
// drains, returning ErrDeadline. cond is checked after every event.
func (e *Engine) RunUntil(timeout Duration, cond func() bool) error {
	defer e.leave(e.enter())
	deadline := e.now.Add(timeout)
	if cond() {
		return nil
	}
	for {
		src, at, ok := e.front()
		if !ok || at > deadline {
			break
		}
		e.runFront(src)
		if cond() {
			return nil
		}
	}
	// Advance the clock to the deadline so successive timeouts accumulate
	// the way wall-clock retries would.
	if e.now < deadline {
		e.now = deadline
	}
	return ErrDeadline
}

// RunFor executes events for d of virtual time and then returns, leaving
// later events queued. The clock always ends at now+d.
func (e *Engine) RunFor(d Duration) {
	defer e.leave(e.enter())
	deadline := e.now.Add(d)
	for {
		src, at, ok := e.front()
		if !ok || at > deadline {
			break
		}
		e.runFront(src)
	}
	if e.now < deadline {
		e.now = deadline
	}
}
