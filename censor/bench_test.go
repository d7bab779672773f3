package censor

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ispnet"
)

// BenchmarkWorldBuild prices one world construction per preset — the cost
// the campaign replica pool amortizes from one-per-task down to
// one-per-worker.
func BenchmarkWorldBuild(b *testing.B) {
	for _, name := range []string{"small", "paper-2018"} {
		cfg, err := ispnet.Compile(MustLookupScenario(name))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ispnet.NewWorld(cfg)
			}
		})
	}
}

// BenchmarkCampaignReplicas compares the pooled runner (build one world
// per worker, Reset between tasks) against the pre-pooling behaviour
// (build one world per task). Identical output — the determinism tests
// assert byte-equality — so the delta is pure world-build savings:
// 18 tasks over 4 workers builds 4 worlds pooled vs 18 fresh.
func BenchmarkCampaignReplicas(b *testing.B) {
	sess, err := NewSession(context.Background(), WithScenario(MustLookupScenario("small")))
	if err != nil {
		b.Fatal(err)
	}
	campaign := Campaign{
		Domains:      sess.PBWDomains()[:8],
		Measurements: []Measurement{DNS(), HTTP()},
	}
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"pooled", []Option{WithWorkers(4)}},
		{"fresh", []Option{WithWorkers(4), withFreshReplicaWorlds()}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stream, err := sess.Run(context.Background(), campaign, mode.opts...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := stream.Collect(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCampaignThroughput measures end-to-end campaign throughput —
// world replication, the worker pool, the batched stable-order merger
// and the aggregate sink — at several worker counts; run with
// -cpu=1,2,4 to read multi-core scaling. CI runs it with -benchtime=1x
// as a smoke (any regression that deadlocks or breaks determinism fails
// the run); BENCH_campaign.json records the recorded baselines.
//
// The replica pool is warmed to the largest worker count before any
// sub-benchmark runs: with -benchtime=Nx there is no calibration ramp,
// so a cold pool would bill each sub-benchmark's one-time world builds
// to its measured iterations — at w=8 that is ~70k allocs/op of pure
// warm-up, swamping the steady-state number this benchmark exists to
// track. Build cost is priced explicitly by BenchmarkWorldBuild and
// BenchmarkCampaignReplicas.
func BenchmarkCampaignThroughput(b *testing.B) {
	sess, err := NewSession(context.Background(), WithScenario(MustLookupScenario("small")))
	if err != nil {
		b.Fatal(err)
	}
	domains := sess.PBWDomains()
	if len(domains) > 32 {
		domains = domains[:32]
	}
	campaign := Campaign{
		Domains:      domains,
		Measurements: []Measurement{DNS(), HTTP()},
	}
	workerCounts := []int{1, 4, 8}
	warm, err := sess.Run(context.Background(), campaign,
		WithWorkers(workerCounts[len(workerCounts)-1]))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Collect(); err != nil {
		b.Fatal(err)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			total := 0
			for i := 0; i < b.N; i++ {
				stream, err := sess.Run(context.Background(), campaign, WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				agg := NewAggregateSink()
				if err := stream.Drain(agg); err != nil {
					b.Fatal(err)
				}
				n := 0
				for _, v := range agg.Vantages() {
					n += agg.TallyFor(v).Total
				}
				want := len(StudyISPs) * len(campaign.Measurements) * len(domains)
				if n != want {
					b.Fatalf("campaign delivered %d results, want %d", n, want)
				}
				total += n
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "results/s")
		})
	}
}

// BenchmarkCampaignLoaded prices the same campaign with synthetic
// background populations sharing the world: the users-vs-throughput curve
// recorded in BENCH_campaign.json. Background flows churn every bounded
// flow table while the probes measure, so the delta against users=0 is
// the full cost of population-scale load. (The 100k-user point lives in
// internal/trafficgen's BenchmarkBackgroundLoad, where no campaign
// multiplies the event volume.)
func BenchmarkCampaignLoaded(b *testing.B) {
	for _, users := range []int{0, 1000, 10000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			sc := MustLookupScenario("small")
			if users > 0 {
				var err error
				sc, err = ApplyLoad(sc, fmt.Sprintf("users=%d,capacity=2048", users))
				if err != nil {
					b.Fatal(err)
				}
			}
			sess, err := NewSession(context.Background(), WithScenario(sc))
			if err != nil {
				b.Fatal(err)
			}
			domains := sess.PBWDomains()
			if len(domains) > 4 {
				domains = domains[:4]
			}
			campaign := Campaign{
				Domains:      domains,
				Measurements: []Measurement{DNS(), HTTP()},
			}
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				stream, err := sess.Run(context.Background(), campaign, WithWorkers(4))
				if err != nil {
					b.Fatal(err)
				}
				agg := NewAggregateSink()
				if err := stream.Drain(agg); err != nil {
					b.Fatal(err)
				}
				for _, v := range agg.Vantages() {
					total += agg.TallyFor(v).Total
				}
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "results/s")
		})
	}
}
