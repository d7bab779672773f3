package censor

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/apisurface"
	"repro/internal/ispnet"
)

// presetSession builds a session for a preset by name.
func presetSession(t *testing.T, name string, opts ...Option) *Session {
	t.Helper()
	sc, ok := LookupScenario(name)
	if !ok {
		t.Fatalf("preset %q not registered", name)
	}
	s, err := NewSession(context.Background(), append([]Option{WithScenario(sc)}, opts...)...)
	if err != nil {
		t.Fatalf("NewSession(%s): %v", name, err)
	}
	return s
}

// campaignJSONL digests a small fixed campaign on a session (nil domains:
// the first six PBWs).
func campaignJSONL(t *testing.T, s *Session, workers int, domains []string, opts ...Option) []byte {
	t.Helper()
	if domains == nil {
		domains = s.PBWDomains()
		if len(domains) > 6 {
			domains = domains[:6]
		}
	}
	stream, err := s.Run(context.Background(), Campaign{
		Domains:      domains,
		Measurements: []Measurement{DNS(), HTTP()},
	}, append([]Option{WithWorkers(workers)}, opts...)...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := stream.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// TestScenarioPresetRoundTrip is the preset contract: every registered
// scenario survives JSON marshal → unmarshal → Validate with an identical
// value and a byte-identical golden campaign.
func TestScenarioPresetRoundTrip(t *testing.T) {
	for _, name := range Scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc := MustLookupScenario(name)
			raw, err := json.Marshal(sc)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			var back Scenario
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("Validate after round trip: %v", err)
			}
			if !reflect.DeepEqual(back, sc) {
				t.Fatal("scenario value changed across JSON round trip")
			}
			if name == "paper-2018" && testing.Short() {
				t.Skip("golden campaign on the full-scale world skipped in -short")
			}
			orig, err := NewSession(context.Background(), WithScenario(sc))
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			rt, err := NewSession(context.Background(), WithScenario(back))
			if err != nil {
				t.Fatalf("NewSession(round-tripped): %v", err)
			}
			vantages := WithVantages(defaultVantages(sc)[:1]...)
			want := campaignJSONL(t, orig, 2, nil, vantages)
			got := campaignJSONL(t, rt, 2, nil, vantages)
			if !bytes.Equal(got, want) {
				t.Fatalf("golden campaign diverged across JSON round trip:\n--- original ---\n%s\n--- round-tripped ---\n%s", want, got)
			}
		})
	}
}

// TestScenarioRejection: invalid specs fail NewSession with the
// validation error, before any world is built.
func TestScenarioRejection(t *testing.T) {
	base := MustLookupScenario("small")
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"negative middlebox count", func(s *Scenario) { s.ISPs[0].Middleboxes = -1 }, "negative"},
		{"unknown transit provider", func(s *Scenario) { s.ISPs[4].Transits[0].Provider = "Hathway" }, "unknown transit provider"},
		{"consistency above 1", func(s *Scenario) { s.ISPs[0].Consistency = 1.01 }, "outside [0,1]"},
		{"dns consistency below 0", func(s *Scenario) { s.ISPs[4].DNSConsistency = -0.5 }, "outside [0,1]"},
		{"unknown mechanism", func(s *Scenario) { s.ISPs[0].Mechanism = "quantum" }, "unknown mechanism"},
		{"no ISPs", func(s *Scenario) { s.ISPs = nil }, "no ISPs"},
		{"vantage names no ISP", func(s *Scenario) { s.Vantages = []string{"Airtel", "Typo"} }, "names no ISP"},
		{"loss prob on interceptive", func(s *Scenario) { s.ISPs[1].WiretapLossProb = 0.3 }, "only wiretap boxes race"},
	}
	for _, tc := range cases {
		sc := base.Clone()
		tc.mutate(&sc)
		if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want mention of %q", tc.name, err, tc.want)
		}
		_, err := NewSession(context.Background(), WithScenario(sc))
		if err == nil {
			t.Errorf("%s: NewSession accepted the invalid scenario", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewSession error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestScenarioRegistry covers registration semantics: lookups deep-copy,
// and programmer errors panic like the detector registry's.
func TestScenarioRegistry(t *testing.T) {
	a := MustLookupScenario("dns-only")
	a.ISPs[0].Name = "Mutated"
	b := MustLookupScenario("dns-only")
	if b.ISPs[0].Name == "Mutated" {
		t.Fatal("LookupScenario returned a shared copy")
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { RegisterScenario(Scenario{}) })
	mustPanic("duplicate", func() { RegisterScenario(MustLookupScenario("small")) })
	invalid := MustLookupScenario("small")
	invalid.Name = "broken"
	invalid.ISPs[0].Consistency = 7
	mustPanic("invalid spec", func() { RegisterScenario(invalid) })
}

// TestScenarioVantages: a scenario's Vantages list is the campaign
// default; empty means all ISPs; WithVantages overrides.
func TestScenarioVantages(t *testing.T) {
	s := presetSession(t, "dns-only")
	if got, want := s.Vantages(), []string{"HeavyPoison", "LightPoison", "Honest"}; !reflect.DeepEqual(got, want) {
		t.Errorf("default vantages = %v, want all ISPs %v", got, want)
	}
	s = presetSession(t, "dns-only", WithVantages("Honest"))
	if got := s.Vantages(); !reflect.DeepEqual(got, []string{"Honest"}) {
		t.Errorf("WithVantages override = %v", got)
	}
	paper := MustLookupScenario("paper-2018")
	if !reflect.DeepEqual(paper.Vantages, StudyISPs) {
		t.Errorf("paper preset vantages = %v, want the nine study ISPs", paper.Vantages)
	}
}

// presetDigests are SHA-256 digests of each built-in preset's JSON and
// of its compiled world config (%#v), so neither the schema nor the
// compiler can drift without a deliberate change here.
var presetDigests = map[string]struct{ json, compiled string }{
	"paper-2018":        {"c07f98ff158c0d00e7e9a396cbe6cae59d1e04d9e40f0b40510971908b2d92ee", "1738d9955421bae75d849acbf5e4409b296f917b77c2f3da78f1e8671e758927"},
	"small":             {"00e6001642b5133465002ffd2e22bcd8755f2f952f637474fa067d8f60a007d2", "c33d93d5dc6ea76becd4abeefb1f74677d01d018e5dda84567e5401b6206086b"},
	"paper-2018-loaded": {"1ec5a91e98368563924bf3c1eeaa25ee77be672740d6220288961dfb252e0622", "cfff68203992b2119a568ce9f2b33f88d5fb13c7efc1feb1659aceae0fd31ce2"},
	"dns-only":          {"0e6e2058ab0c7e8888aaac2060265c764beabafa90890c34b81d4340e6fb8fc5", "1a78d7b05791b037ccfd10fd9bfad5ba47f02a89b7f16f78f6992932e83e4898"},
	"all-interceptive":  {"fe7d6ff95ed78577fbab2f5f1b1f32c832bd19f1a41442110da97b8f407138d9", "9447203865429a1cff8920cb8216d74009decd29ac33ae7f5fff51a2ef2952e0"},
	"no-censorship":     {"c3307c1a6a741e4e42de3fe625d865d7e087a44a7a455e947b7211f71f143201", "a573ad14d837b9a2e50f8fad7de7db5e98b35ff4ed46ce860be37e564ff9fb31"},
}

// TestScenarioPresetGoldens pins every registered preset byte for byte:
// its JSON spec and the world config it compiles to.
func TestScenarioPresetGoldens(t *testing.T) {
	digest := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	for _, name := range Scenarios() {
		want, ok := presetDigests[name]
		if !ok {
			t.Errorf("preset %q has no golden digests", name)
			continue
		}
		sc := MustLookupScenario(name)
		raw, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", name, err)
		}
		if got := digest(raw); got != want.json {
			t.Errorf("%s: JSON digest = %s, want %s", name, got, want.json)
		}
		cfg, err := ispnet.Compile(sc)
		if err != nil {
			t.Fatalf("%s: Compile: %v", name, err)
		}
		if got := digest(fmt.Appendf(nil, "%#v", cfg)); got != want.compiled {
			t.Errorf("%s: compiled config digest = %s, want %s", name, got, want.compiled)
		}
	}
}

// TestWithSeedOptionOrder: WithSeed reseeds the world whether it comes
// before or after WithScenario.
func TestWithSeedOptionOrder(t *testing.T) {
	small := MustLookupScenario("small")
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"seed first", []Option{WithSeed(7), WithScenario(small)}},
		{"scenario first", []Option{WithScenario(small), WithSeed(7)}},
	} {
		s, err := NewSession(context.Background(), tc.opts...)
		if err != nil {
			t.Fatalf("%s: NewSession: %v", tc.name, err)
		}
		if got := s.World().Cfg.Seed; got != 7 {
			t.Errorf("%s: world seed = %d, want 7", tc.name, got)
		}
		if got := s.Scenario().Seed; got != 7 {
			t.Errorf("%s: scenario seed = %d, want 7", tc.name, got)
		}
	}
}

// TestPooledCampaignDeterminism is the pooling regression of the
// determinism contract, on a non-paper preset: workers=1 reuses one world
// for every task, workers=8 builds eight, and a fresh-world-per-task run
// is the pre-pooling reference — all three must be byte-identical. A
// Reset that leaks any engine, stack, server or middlebox state between
// tasks shows up here.
func TestPooledCampaignDeterminism(t *testing.T) {
	s := presetSession(t, "all-interceptive")
	// Measure a mix of untouched PBWs and domains actually on the dense
	// censor's blocklist, so the streams being compared carry censorship
	// (and with it middlebox state worth leaking).
	domains := append([]string(nil), s.PBWDomains()[:4]...)
	domains = append(domains, s.World().ISP("OvertDense").HTTPList...)
	if len(domains) > 10 {
		domains = domains[:10]
	}
	sequential := campaignJSONL(t, s, 1, domains)
	parallel := campaignJSONL(t, s, 8, domains)
	if !bytes.Equal(sequential, parallel) {
		t.Fatalf("pooled campaign diverged between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			sequential, parallel)
	}
	fresh := campaignJSONL(t, s, 8, domains, withFreshReplicaWorlds())
	if !bytes.Equal(sequential, fresh) {
		t.Fatalf("pooled campaign diverged from fresh-world-per-task run:\n--- pooled ---\n%s\n--- fresh ---\n%s",
			sequential, fresh)
	}
	if !bytes.Contains(sequential, []byte(`"blocked":true`)) {
		t.Error("all-interceptive campaign observed no censorship at all")
	}
}

// TestPooledAllDetectorsDeterminism runs the full detector registry — the
// default campaign shape — through the pooled runner. The heavy detectors
// (fingerprint's tracer with its ICMP hooks and multi-minute virtual
// idles, evasion's packet filters, ooni's control fetches) leave the most
// runtime state behind, so this is the broadest leak check a Reset bug
// could fail.
func TestPooledAllDetectorsDeterminism(t *testing.T) {
	s := presetSession(t, "all-interceptive")
	domains := append([]string(nil), s.PBWDomains()[:1]...)
	domains = append(domains, s.World().ISP("OvertDense").HTTPList[0])
	run := func(workers int, opts ...Option) []byte {
		stream, err := s.Run(context.Background(), Campaign{Domains: domains},
			append([]Option{WithWorkers(workers), WithVantages("OvertDense", "Observer")}, opts...)...)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var buf bytes.Buffer
		if err := stream.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return buf.Bytes()
	}
	sequential := run(1)
	parallel := run(8)
	if !bytes.Equal(sequential, parallel) {
		t.Fatalf("all-detector pooled campaign diverged between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			sequential, parallel)
	}
	fresh := run(8, withFreshReplicaWorlds())
	if !bytes.Equal(sequential, fresh) {
		t.Fatalf("all-detector pooled campaign diverged from fresh-world-per-task run:\n--- pooled ---\n%s\n--- fresh ---\n%s",
			sequential, fresh)
	}
}

// TestNoCensorshipControl: the control preset yields zero positives for
// every detector — any hit is by construction a false positive.
func TestNoCensorshipControl(t *testing.T) {
	s := presetSession(t, "no-censorship")
	stream, err := s.Run(context.Background(), Campaign{
		Domains:      s.PBWDomains()[:8],
		Measurements: []Measurement{DNS(), HTTP(), HTTPS(), TCP(), Collateral()},
	}, WithWorkers(4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	results, err := stream.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	for _, r := range results {
		if r.Blocked {
			t.Errorf("false positive on control world: %+v", r)
		}
	}
}

// TestPublicAPINoInternalTypes runs the apisurface analyzer over this
// package's non-test sources and fails on any finding. The analyzer
// (internal/analysis/apisurface) replaced the hand-rolled AST walk that
// used to live here: it works on resolved types rather than selector
// spelling, so aliased imports and indirect leaks are caught too. The
// documented oracle escape hatches — Session.World, Vantage.World,
// Vantage.Probe — carry //repolint:allow apisurface waivers at their
// declarations; everything else, the option surface in particular, must
// be fully public so an external caller can build any world from JSON
// alone.
func TestPublicAPINoInternalTypes(t *testing.T) {
	analysistest.RunClean(t, apisurface.Analyzer, ".", "repro/censor")
}
