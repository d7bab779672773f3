package censor

import (
	"fmt"
	"sync"

	"repro/internal/ispnet"
	"repro/scenario"
)

// The world-building schema lives in the leaf package repro/scenario;
// censor re-exports it so a session, its presets and its JSON specs are
// all spelled with censor's names. See scenario.Scenario for the fields
// and the rules Validate enforces.
type (
	// A Scenario is a declarative, JSON-serializable description of one
	// simulated Internet: global sizing plus one ISPSpec per operator.
	Scenario = scenario.Scenario
	// ISPSpec describes one network operator and its censorship.
	ISPSpec = scenario.ISPSpec
	// PopulationSpec describes one ISP's synthetic background users.
	PopulationSpec = scenario.PopulationSpec
	// NotifSpec is the censorship-notification style of an ISP's boxes.
	NotifSpec = scenario.NotifSpec
	// TransitSpec routes one hosting region through a provider.
	TransitSpec = scenario.TransitSpec
)

// ------------------------------------------------------------- registry

var (
	scMu    sync.RWMutex
	scNames []string
	scSpecs = map[string]Scenario{}
)

// RegisterScenario adds a scenario to the preset registry under its Name,
// making it resolvable by LookupScenario, listed by Scenarios, and
// addressable via censorscan's -scenario flag. Like Register (detectors),
// it panics on programmer errors: an empty name, a duplicate, or a spec
// that fails Validate.
func RegisterScenario(s Scenario) {
	if s.Name == "" {
		panic("censor: RegisterScenario: empty scenario name")
	}
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("censor: RegisterScenario(%q): %v", s.Name, err))
	}
	scMu.Lock()
	defer scMu.Unlock()
	if _, dup := scSpecs[s.Name]; dup {
		panic(fmt.Sprintf("censor: RegisterScenario(%q): already registered", s.Name))
	}
	scSpecs[s.Name] = s.Clone()
	scNames = append(scNames, s.Name)
}

// Scenarios lists the registered scenario names: the built-in presets
// first, in their canonical order, then external registrations in
// registration order.
func Scenarios() []string {
	scMu.RLock()
	defer scMu.RUnlock()
	return append([]string(nil), scNames...)
}

// LookupScenario resolves a registered scenario by name, returning a deep
// copy the caller may modify freely.
func LookupScenario(name string) (Scenario, bool) {
	scMu.RLock()
	defer scMu.RUnlock()
	s, ok := scSpecs[name]
	if !ok {
		return Scenario{}, false
	}
	return s.Clone(), true
}

// MustLookupScenario is LookupScenario for presets known to be registered
// (examples, tests, the built-ins); it panics on an unknown name.
func MustLookupScenario(name string) Scenario {
	s, ok := LookupScenario(name)
	if !ok {
		panic(fmt.Sprintf("censor: scenario %q not registered", name))
	}
	return s
}

// mustScenario resolves a built-in preset.
func mustScenario(name string) Scenario { return MustLookupScenario(name) }

// ------------------------------------------------------------- presets

// The built-in presets: the paper's calibration at both scales (whose
// numbers live beside the compiler in internal/ispnet), plus three
// regimes the study never observed — worth measuring precisely because
// the paper could not.
func init() {
	paper := ispnet.PaperScenario()
	paper.Vantages = append([]string(nil), StudyISPs...)
	RegisterScenario(paper)

	small := ispnet.SmallScenario()
	small.Vantages = append([]string(nil), StudyISPs...)
	RegisterScenario(small)

	loaded := ispnet.LoadedScenario()
	loaded.Vantages = append([]string(nil), StudyISPs...)
	RegisterScenario(loaded)

	RegisterScenario(dnsOnlyScenario())
	RegisterScenario(allInterceptiveScenario())
	RegisterScenario(noCensorshipScenario())
}

// dnsOnlyScenario is a world censored exclusively through resolver
// poisoning — no middlebox anywhere — at two very different consistency
// regimes, with a clean ISP as control. HTTP detectors must come back
// empty here; the dns detector must see both regimes.
func dnsOnlyScenario() Scenario {
	return Scenario{
		Name:        "dns-only",
		Description: "resolver poisoning only (two regimes, MTNL-like and BSNL-like), no middleboxes, clean control ISP",
		Seed:        7001, PBWSites: 240, AlexaSites: 100, VantagePoints: 8, Pods: 40,
		ISPs: []ISPSpec{
			{
				Name: "HeavyPoison", Mechanism: "dns-poisoning",
				Edges: 8, Borders: 8,
				Resolvers: 64, PoisonedResolvers: 48,
				DNSBlocklist: 120, DNSConsistency: 0.45, ClientResolverPoison: 40,
			},
			{
				Name: "LightPoison", Mechanism: "dns-poisoning",
				Edges: 4, Borders: 4,
				Resolvers: 32, PoisonedResolvers: 3,
				DNSBlocklist: 60, DNSConsistency: 0.08, ClientResolverPoison: 15,
			},
			{
				Name: "Honest", Mechanism: "none",
				Edges: 4, Borders: 4, Resolvers: 8,
			},
		},
	}
}

// allInterceptiveScenario is a world where every censoring ISP runs
// interceptive middleboxes — the regime the paper saw only at Idea and
// Vodafone — mixing overt and covert styles and full vs sparse blocklist
// consistency, with a clean observer riding a censoring transit (so the
// collateral-damage path is interceptive too).
func allInterceptiveScenario() Scenario {
	return Scenario{
		Name:        "all-interceptive",
		Description: "every censor interceptive: overt and covert boxes, dense and sparse consistency, collateral via a covert transit",
		Seed:        7002, PBWSites: 240, AlexaSites: 100, VantagePoints: 8, Pods: 40,
		ISPs: []ISPSpec{
			{
				Name: "OvertDense", Mechanism: "interceptive-overt",
				Edges: 6, Borders: 8,
				Middleboxes: 8, InboundMiddleboxes: 8, Consistency: 0.9, HTTPBlocklist: 90,
				Notification: NotifSpec{
					Body: "<html><body>Blocked by order of the OvertDense network authority</body></html>",
				},
			},
			{
				Name: "OvertSparse", Mechanism: "interceptive-overt",
				Edges: 4, Borders: 12,
				Middleboxes: 3, InboundMiddleboxes: 1, Consistency: 0.15, HTTPBlocklist: 140,
				Notification: NotifSpec{
					Body:         "<html><body>This URL is restricted (OvertSparse compliance)</body></html>",
					MimicHeaders: true,
				},
			},
			{
				Name: "CovertNet", Mechanism: "interceptive-covert",
				Edges: 4, Borders: 6,
				Middleboxes: 6, InboundMiddleboxes: 2, Consistency: 0.5, HTTPBlocklist: 110,
				Notification: NotifSpec{Covert: true},
			},
			{
				Name: "Observer", Mechanism: "none",
				Edges: 2,
				Transits: []TransitSpec{
					{Provider: "CovertNet", Region: "ALL", Collateral: 30},
				},
			},
		},
	}
}

// noCensorshipScenario is the control world: identical fabric, zero
// interference. Every detector must stay silent; anything it reports on
// this preset is by construction a false positive.
func noCensorshipScenario() Scenario {
	return Scenario{
		Name:        "no-censorship",
		Description: "control world with zero interference - any positive verdict is a false positive",
		Seed:        7003, PBWSites: 240, AlexaSites: 100, VantagePoints: 8, Pods: 40,
		ISPs: []ISPSpec{
			{Name: "NorthNet", Mechanism: "none", Edges: 6, Borders: 8, Resolvers: 16},
			{Name: "SouthNet", Mechanism: "none", Edges: 4, Borders: 4, Resolvers: 8},
			// No transit customers: a peering link always carries the
			// provider's middlebox, so a true control world is all-bordered.
			{Name: "EdgeNet", Mechanism: "none", Edges: 2, Borders: 2},
		},
	}
}

// defaultVantages resolves a scenario's campaign vantage set: its own
// Vantages list when set, else every ISP in scenario order.
func defaultVantages(s Scenario) []string {
	if len(s.Vantages) > 0 {
		return append([]string(nil), s.Vantages...)
	}
	out := make([]string, len(s.ISPs))
	for i := range s.ISPs {
		out[i] = s.ISPs[i].Name
	}
	return out
}
