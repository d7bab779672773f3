package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/censor"
	"repro/internal/experiments"
	"repro/obs"
)

// stage is one rendered section of `censorscan -quick`, in its order.
type stage struct {
	name   string // experiments.<name>_s; figure3 and figure4 share figures34
	render func(s *experiments.Suite, t1 *[]experiments.Table1Row) string
}

var stages = []stage{
	{"table1", func(s *experiments.Suite, t1 *[]experiments.Table1Row) string {
		*t1 = s.Table1(experiments.OONITargets)
		return experiments.RenderTable1(*t1)
	}},
	{"table2", func(s *experiments.Suite, _ *[]experiments.Table1Row) string {
		return experiments.RenderTable2(s.Table2())
	}},
	{"figure5", func(s *experiments.Suite, _ *[]experiments.Table1Row) string {
		return experiments.RenderFigure5(s.Figure5())
	}},
	{"figure2", func(s *experiments.Suite, _ *[]experiments.Table1Row) string {
		return experiments.RenderFigure2(s.Figure2())
	}},
	{"table3", func(s *experiments.Suite, _ *[]experiments.Table1Row) string {
		return experiments.RenderTable3(s.Table3())
	}},
	{"figure1", func(s *experiments.Suite, _ *[]experiments.Table1Row) string {
		return experiments.RenderFigure1(s.Figure1())
	}},
	{"figures34", func(s *experiments.Suite, _ *[]experiments.Table1Row) string {
		return experiments.RenderFigureTrace("Figure 3: interceptive middlebox", s.Figure3())
	}},
	{"figures34", func(s *experiments.Suite, _ *[]experiments.Table1Row) string {
		return experiments.RenderFigureTrace("Figure 4: wiretap middlebox", s.Figure4())
	}},
	{"section31", func(s *experiments.Suite, _ *[]experiments.Table1Row) string {
		return experiments.RenderSection31(s.Section31(experiments.OONITargets))
	}},
	{"section5", func(s *experiments.Suite, _ *[]experiments.Table1Row) string {
		return experiments.RenderSection5(s.Section5())
	}},
}

// tablesPass is one full render on a fresh session.
type tablesPass struct {
	elapsed time.Duration
	stageS  map[string]float64
	digest  string
	table1  []experiments.Table1Row
	// telemetry is the session world's registry change over the render.
	telemetry map[string]any
}

// runPaperTables renders every section `censorscan -quick` renders,
// single-threaded, on a fresh `small` session at the seed per pass.
func runPaperTables(cfg runConfig, rep *report) error {
	ctx := context.Background()
	sc := censor.MustLookupScenario("small")
	var setup []float64
	newSuite := func() (*experiments.Suite, error) {
		runtime.GC() // earlier sessions' garbage must not reach the next one's peak heap
		start := time.Now()
		sess, err := censor.NewSession(ctx, censor.WithScenario(sc), censor.WithSeed(cfg.seed))
		if err != nil {
			return nil, err
		}
		s := experiments.NewSuiteWith(sess, experiments.QuickOptions())
		setup = append(setup, time.Since(start).Seconds())
		return s, nil
	}
	for i := 0; i < setupRepeats; i++ {
		if _, err := newSuite(); err != nil {
			return err
		}
	}

	loop := func(tr *obs.Tracer) ([]tablesPass, error) {
		var passes []tablesPass
		deadline := time.Now().Add(cfg.budget())
		for len(passes) == 0 || time.Now().Before(deadline) {
			s, err := newSuite()
			if err != nil {
				return nil, err
			}
			runtime.GC() // every pass starts from the same collected heap
			p := renderPass(s, tr)
			rep.attempted += len(stages)
			if len(passes) > 0 && p.digest != passes[0].digest {
				rep.fail("rendered output digest changed between passes of one seed")
			}
			passes = append(passes, p)
		}
		return passes, nil
	}

	before := readRuntime()
	untraced, err := loop(nil)
	if err != nil {
		return err
	}
	after := readRuntime()
	if want, ok := keptDigests["paper-tables"]; ok && cfg.seed == defaultSeed && untraced[0].digest != want {
		rep.fail("rendered output digest %s, want the kept %s", untraced[0].digest, want)
	}
	var passS []float64
	for _, p := range untraced {
		passS = append(passS, p.elapsed.Seconds())
	}
	if !cfg.trace {
		// The request is one full render, what `censorscan -quick` does
		// after its world build.
		precision, recall := table1Score(untraced[0].table1)
		rep.metrics["items_per_s"] = float64(len(stages)) / median(passS)
		rep.metrics["request_p50_ms"] = 1000 * median(passS)
		rep.metrics["pass_s"] = median(passS)
		rep.metrics["verdict_precision"] = precision
		rep.metrics["verdict_recall"] = recall
		rep.metrics["setup_s"] = median(setup)
		return nil
	}

	reportRuntime(rep, before, after, float64(len(stages)*len(untraced)))
	for _, name := range tableStages {
		var xs []float64
		for _, p := range untraced {
			xs = append(xs, p.stageS[name])
		}
		rep.metrics["experiments."+name+"_s"] = median(xs)
	}
	if err := measureWorld(rep, setup, func() (*censor.Session, error) {
		return censor.NewSession(ctx, censor.WithScenario(sc), censor.WithSeed(cfg.seed))
	}); err != nil {
		return err
	}

	tr := obs.NewTracer(obs.WallClock)
	traced, err := loop(tr)
	if err != nil {
		return err
	}
	var tracedS []float64
	for _, p := range traced {
		tracedS = append(tracedS, p.elapsed.Seconds())
	}
	rep.metrics["trace.overhead_share"] = median(tracedS)/median(passS) - 1
	// The suite drives the session world directly, so the engine-level
	// counters come from that world's registry, per rendered section.
	reportEngine(rep, traced[0].telemetry, float64(len(stages)), float64(traced[0].elapsed.Nanoseconds()), 1)
	if err := writeTrace(cfg, tr); err != nil {
		return err
	}
	zeroMetrics(rep, "censor.", "detector.", "netpkt.", "dnswire.",
		"httpwire.", "tlswire.", "middlebox.extract_host", "difflib.", "sink.", "monitor.")
	return nil
}

// renderPass renders every section in order, exactly as `censorscan
// -quick` prints them (each followed by a blank line), timing each.
func renderPass(s *experiments.Suite, tr *obs.Tracer) tablesPass {
	reg := s.World.Obs()
	before := reg.Snapshot()
	p := tablesPass{stageS: map[string]float64{}}
	var out bytes.Buffer
	start := time.Now()
	for _, st := range stages {
		span := tr.Start(st.name, "experiments", 0)
		t := time.Now()
		out.WriteString(st.render(s, &p.table1))
		d := time.Since(t)
		tr.Finish(span)
		out.WriteString("\n")
		p.stageS[st.name] += d.Seconds()
	}
	p.elapsed = time.Since(start)
	p.digest = digest(out.Bytes())
	fmt.Printf("pass: %d sections in %.3fs\n", len(stages), p.elapsed.Seconds())
	p.telemetry = snapshotDelta(before, reg.Snapshot())
	return p
}

// table1Score pools Table 1's per-ISP OONI totals into one precision and
// recall against the oracle.
func table1Score(rows []experiments.Table1Row) (precision, recall float64) {
	var tp, flagged, truth int
	for _, r := range rows {
		tp += r.Total.TruePositives
		flagged += r.Total.Flagged
		truth += r.Total.Truth
	}
	return ratio(float64(tp), float64(flagged)), ratio(float64(tp), float64(truth))
}
