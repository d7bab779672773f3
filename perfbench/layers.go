package main

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/censor"
	"repro/internal/ispnet"
	"repro/obs"
)

// timedMeasurement decorates a detector from the outside: it keeps the
// wrapped detector's Kind, delegates Measure, and adds each call's
// latency to its site's battery. With stats set (traced runs) it also records one span per call
// and the engine events and forwarded packets the call cost on the
// replica world, read from the world's own telemetry registry.
type timedMeasurement struct {
	censor.Measurement
	bat   *batteries
	stats *detectorStats
	tr    *obs.Tracer
	tid   int // base trace thread: one row per (vantage, detector) task
	rows  map[string]int
}

func (m *timedMeasurement) Measure(ctx context.Context, v *censor.Vantage, domain string) censor.Result {
	if m.stats == nil {
		start := time.Now()
		r := m.Measurement.Measure(ctx, v, domain)
		m.bat.add(v.Name(), domain, time.Since(start))
		return r
	}
	reg := v.World().Obs()
	events := reg.Counter("sim_events_run_total")
	packets := reg.Counter("netsim_packets_forwarded_total")
	ev0, pk0 := events.Value(), packets.Value()
	span := m.tr.Start(domain, m.Kind(), m.tid+m.rows[v.Name()])
	start := time.Now()
	r := m.Measurement.Measure(ctx, v, domain)
	elapsed := time.Since(start)
	m.tr.Finish(span)
	m.bat.add(v.Name(), domain, elapsed)
	m.stats.add(elapsed, events.Value()-ev0, packets.Value()-pk0)
	return r
}

// batteries sums, per (vantage, domain), the time every detector of a
// campaign spent on that site from that vantage: the latency of one
// site's full verdict battery, the campaign's unit of request.
type batteries struct {
	mu   sync.Mutex
	sum  map[string]map[string]time.Duration
	done []float64 // ms per (vantage, domain) of the finished passes
}

func newBatteries() *batteries {
	return &batteries{sum: map[string]map[string]time.Duration{}}
}

func (b *batteries) add(vantage, domain string, d time.Duration) {
	b.mu.Lock()
	row := b.sum[vantage]
	if row == nil {
		row = map[string]time.Duration{}
		b.sum[vantage] = row
	}
	row[domain] += d
	b.mu.Unlock()
}

// endPass files the finished campaign's batteries; with keep false they
// are dropped (warm-up).
func (b *batteries) endPass(keep bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, row := range b.sum {
		if keep {
			for _, d := range row {
				b.done = append(b.done, millis(d))
			}
		}
		clear(row)
	}
}

// detectorStats accumulates one detector's traced calls.
type detectorStats struct {
	mu              sync.Mutex
	calls           int
	elapsed         time.Duration
	events, packets uint64
}

func (s *detectorStats) add(d time.Duration, events, packets uint64) {
	s.mu.Lock()
	s.calls++
	s.elapsed += d
	s.events += events
	s.packets += packets
	s.mu.Unlock()
}

// decorate wraps every measurement; traced wrappers share tr and get a
// stats record each, keyed by kind.
func decorate(ms []censor.Measurement, vantages []string, bat *batteries, tr *obs.Tracer, traced bool) ([]censor.Measurement, map[string]*detectorStats) {
	rows := make(map[string]int, len(vantages))
	for i, v := range vantages {
		rows[v] = i * len(ms)
	}
	out := make([]censor.Measurement, len(ms))
	stats := map[string]*detectorStats{}
	for i, m := range ms {
		tm := &timedMeasurement{Measurement: m, bat: bat, tr: tr, tid: 100 + i, rows: rows}
		if traced {
			tm.stats = &detectorStats{}
			stats[m.Kind()] = tm.stats
		}
		out[i] = tm
	}
	return out, stats
}

// reportDetectors sets the detector.<kind>.* metrics; kinds the run did
// not call report 0.
func reportDetectors(rep *report, stats map[string]*detectorStats) {
	for _, k := range detectorKinds {
		var calls, us, events, packets float64
		if s := stats[k]; s != nil {
			calls = float64(s.calls)
			us = float64(s.elapsed) / float64(time.Microsecond)
			events, packets = float64(s.events), float64(s.packets)
		}
		rep.metrics["detector."+k+".us_per_call"] = ratio(us, calls)
		rep.metrics["detector."+k+".events_per_call"] = ratio(events, calls)
		rep.metrics["detector."+k+".packets_per_call"] = ratio(packets, calls)
	}
}

// timedSink decorates a batch sink, accumulating the time its
// WriteBatch spends and the results it consumed. Drain delivers only
// through WriteBatch when every sink is a BatchSink, as here.
type timedSink struct {
	censor.BatchSink
	elapsed time.Duration
	results int
}

func (s *timedSink) WriteBatch(rs []censor.Result) error {
	start := time.Now()
	err := s.BatchSink.WriteBatch(rs)
	s.elapsed += time.Since(start)
	s.results += len(rs)
	return err
}

func (s *timedSink) nsPerResult() float64 {
	return ratio(float64(s.elapsed), float64(s.results))
}

// truthTable is the oracle's answer per vantage and domain.
type truthTable map[string]map[string]ispnet.Truth

// buildTruth asks the session world's oracle about every pair.
func buildTruth(sess *censor.Session, vantages, domains []string) truthTable {
	w, release := sess.AcquireWorld()
	defer release()
	t := make(truthTable, len(vantages))
	for _, v := range vantages {
		isp := w.ISP(v)
		row := make(map[string]ispnet.Truth, len(domains))
		for _, d := range domains {
			row[d] = w.TruthFor(isp, d)
		}
		t[v] = row
	}
	return t
}

// scoreSink scores dns verdicts against DNSPoisoned and http verdicts
// against HTTPFiltered, and counts results and failed measurements.
type scoreSink struct {
	truth           truthTable
	tp, fp, fn      int
	results, errors int
}

func (s *scoreSink) Write(r censor.Result) error { s.add(&r); return nil }

func (s *scoreSink) WriteBatch(rs []censor.Result) error {
	for i := range rs {
		s.add(&rs[i])
	}
	return nil
}

func (s *scoreSink) Flush() error { return nil }

func (s *scoreSink) add(r *censor.Result) {
	s.results++
	if r.Error != "" {
		s.errors++
		return
	}
	var truth bool
	switch r.Measurement {
	case "dns":
		truth = s.truth[r.Vantage][r.Domain].DNSPoisoned
	case "http":
		truth = s.truth[r.Vantage][r.Domain].HTTPFiltered
	default:
		return
	}
	switch {
	case r.Blocked && truth:
		s.tp++
	case r.Blocked:
		s.fp++
	case truth:
		s.fn++
	}
}

func (s *scoreSink) precision() float64 { return ratio(float64(s.tp), float64(s.tp+s.fp)) }
func (s *scoreSink) recall() float64    { return ratio(float64(s.tp), float64(s.tp+s.fn)) }

// seriesSum adds every counter or gauge of a registry snapshot whose base
// name (the part before any label set) is base, and reports how many
// series it added.
func seriesSum(snap map[string]any, base string) (sum float64, series int) {
	for name, v := range snap {
		if b, _, _ := strings.Cut(name, "{"); b != base {
			continue
		}
		switch x := v.(type) {
		case uint64:
			sum += float64(x)
		case int64:
			sum += float64(x)
		default:
			continue
		}
		series++
	}
	return sum, series
}

// snapshotDelta subtracts before from after for every counter of two
// registry snapshots; gauges and histograms keep their after values.
func snapshotDelta(before, after map[string]any) map[string]any {
	out := make(map[string]any, len(after))
	for name, v := range after {
		if c, ok := v.(uint64); ok {
			b, _ := before[name].(uint64)
			v = c - b
		}
		out[name] = v
	}
	return out
}

// histSum returns a histogram's observation count and sum.
func histSum(snap map[string]any, name string) (count, sum float64) {
	if h, ok := snap[name].(map[string]uint64); ok {
		return float64(h["count"]), float64(h["sum"])
	}
	return 0, 0
}

// reportEngine sets the sim.*, netsim.*, middlebox.* and trafficgen.*
// metrics from merged world telemetry, per item of work. taskNS is the
// wall time the events ran in; tasks is how many world registries were
// merged (for the per-box flow-table occupancy at task end).
func reportEngine(rep *report, snap map[string]any, items, taskNS, tasks float64) {
	get := func(name string) float64 { v, _ := seriesSum(snap, name); return v }
	events := get("sim_events_run_total")
	rep.metrics["sim.events_per_result"] = ratio(events, items)
	rep.metrics["sim.ns_per_event"] = ratio(taskNS, events)
	rep.metrics["sim.cancelled_share"] = ratio(get("sim_events_cancelled_total"), get("sim_events_scheduled_total"))
	rep.metrics["netsim.packets_forwarded_per_result"] = ratio(get("netsim_packets_forwarded_total"), items)
	dropped := get("netsim_packets_dropped_total")
	rep.metrics["netsim.drop_share"] = ratio(dropped, dropped+get("netsim_packets_delivered_total"))
	rep.metrics["netsim.pool_hit_ratio"] = ratio(get("netsim_pool_hits_total"), get("netsim_pool_gets_total"))
	rep.metrics["middlebox.evictions_per_result"] = ratio(get("middlebox_flow_evictions_total"), items)
	occupancy, boxes := seriesSum(snap, "middlebox_flow_occupancy")
	rep.metrics["middlebox.flow_occupancy"] = ratio(occupancy, float64(boxes)*tasks)
	rep.metrics["trafficgen.flows_per_result"] = ratio(get("trafficgen_flows_total"), items)
}

// measureWorld times the ispnet layer directly for one scenario: a world
// build through NewSession (buildS, in seconds, sampled by the caller's
// set-up), a World.Reset of the session world, and the live heap one more
// world adds.
func measureWorld(rep *report, buildS []float64, newSession func() (*censor.Session, error)) error {
	sess, err := newSession()
	if err != nil {
		return err
	}
	var resets []float64
	w, release := sess.AcquireWorld()
	for i := 0; i < 5; i++ {
		start := time.Now()
		w.Reset()
		resets = append(resets, millis(time.Since(start)))
	}
	release()
	before := liveHeapMB()
	extra, err := newSession()
	if err != nil {
		return err
	}
	after := liveHeapMB()
	runtime.KeepAlive(sess)
	runtime.KeepAlive(extra)
	rep.metrics["ispnet.build_ms"] = 1000 * median(buildS)
	rep.metrics["ispnet.reset_ms"] = median(resets)
	rep.metrics["ispnet.replica_heap_mb"] = after - before
	return nil
}

// zeroMetrics reports 0 for every per-layer metric whose name starts
// with one of the prefixes: layers the workload does not run.
func zeroMetrics(rep *report, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				if _, set := rep.metrics[d.Name]; !set {
					rep.metrics[d.Name] = 0
				}
			}
		}
	}
}
