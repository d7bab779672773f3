package sim

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkScheduleRun prices the core scheduling loop: one event
// scheduled and executed per iteration, steady state. The event arena makes
// this allocation-free; the closure form pays only for closures the caller
// itself builds.
func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	n := 0
	fn := func() { n++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Millisecond, fn)
		e.Run()
	}
}

// BenchmarkScheduleCallRun is the closure-free hot-path form used by the
// packet pipeline: fn plus two pointer arguments stored inline.
func BenchmarkScheduleCallRun(b *testing.B) {
	e := NewEngine(1)
	n := 0
	fn := func(a, _ any) { n += *a.(*int) }
	one := 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleCall(time.Millisecond, fn, &one, nil)
		e.Run()
	}
}

// BenchmarkScheduleDeep prices queue churn with a deep pending queue, the
// shape of a busy world mid-campaign.
func BenchmarkScheduleDeep(b *testing.B) {
	e := NewEngine(1)
	fn := func(a, _ any) {}
	for i := 0; i < 4096; i++ {
		e.ScheduleCall(time.Hour, fn, nil, nil)
	}
	for i := 0; i < 64; i++ { // admit the 1 ms delay to its lane
		e.ScheduleCall(time.Millisecond, fn, nil, nil)
		e.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleCall(time.Millisecond, fn, nil, nil)
		e.step()
	}
}

// BenchmarkScheduleStop prices cancel-heavy workloads (retransmit timers,
// handler expiries) including the lazy compaction they trigger.
func BenchmarkScheduleStop(b *testing.B) {
	e := NewEngine(1)
	fn := func(a, _ any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := e.ScheduleCall(time.Millisecond, fn, nil, nil)
		tm.Stop()
	}
	b.StopTimer()
	e.Run()
}

// BenchmarkEngineReset prices the world-pooling rewind.
func BenchmarkEngineReset(b *testing.B) {
	e := NewEngine(1)
	fn := func(a, _ any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			e.ScheduleCall(time.Millisecond, fn, nil, nil)
		}
		e.Reset()
	}
}

// loadedMix returns n delays drawn from the mix a paper-2018-loaded
// campaign schedules (counted over the perfbench loaded-campaign
// workload): 1 ms 72.8%, 5 ms 17.7%, 2 ms 3.5%, 2 s 2.5%, 4 ms 0.05%,
// and the remaining 3.45% spread over many delays, here 0-10 ms.
func loadedMix(n int) []Duration {
	rng := rand.New(rand.NewSource(2018))
	out := make([]Duration, n)
	for i := range out {
		switch p := rng.Intn(10_000); {
		case p < 7280:
			out[i] = time.Millisecond
		case p < 9050:
			out[i] = 5 * time.Millisecond
		case p < 9400:
			out[i] = 2 * time.Millisecond
		case p < 9650:
			out[i] = 2 * time.Second
		case p < 9655:
			out[i] = 4 * time.Millisecond
		default:
			out[i] = Duration(rng.Intn(10_000)) * time.Microsecond
		}
	}
	return out
}

// BenchmarkScheduleLoadedMix replays a loaded world's event stream: 20,000
// independent chains each reschedule themselves from the loaded delay mix
// when they fire, so about 20k timers stay pending — most of them parked
// on the 2 s delay, far in the future — and every op is one event run
// plus the one it schedules, from inside a run loop as in a world.
func BenchmarkScheduleLoadedMix(b *testing.B) {
	const chains = 20_000
	e := NewEngine(1)
	delays := loadedMix(4096)
	next := 0
	var fn func(a, b any)
	fn = func(_, _ any) {
		e.ScheduleCall(delays[next&4095], fn, nil, nil)
		next++
	}
	for i := 0; i < chains; i++ {
		e.ScheduleCall(delays[i&4095], fn, nil, nil)
	}
	forever := time.Duration(1<<62 - 1)
	target := uint64(0)
	done := func() bool { return e.Executed() >= target }
	// Warm up to the steady state: lanes admitted, buffers grown.
	target = 50 * chains
	e.RunUntil(forever, done)
	b.ReportAllocs()
	b.ResetTimer()
	target = e.Executed() + uint64(b.N)
	e.RunUntil(forever, done)
}
