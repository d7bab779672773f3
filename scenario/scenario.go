// Package scenario is the world-building schema: a declarative,
// JSON-serializable description of one simulated Internet, and the rules
// that make a description buildable. It is the one definition of the
// schema — the public censor package re-exports these types and the
// internal world compiler consumes them — and it imports nothing from the
// rest of the module, so a spec can be written, validated and shipped
// without pulling in the simulator.
package scenario

import (
	"fmt"
	"slices"
)

// A Scenario is a declarative, JSON-serializable description of one
// simulated Internet: global sizing plus one ISPSpec per network operator.
// It is the world-building half of the public API — everything
// censor.WithScenario needs to construct a session, with no internal types
// anywhere in the spec. The paper's calibration is just one Scenario (the
// "paper-2018" preset); censor.LookupScenario resolves it and every other
// registered preset, and external callers can write their own specs in Go
// or JSON:
//
//	raw, _ := os.ReadFile("world.json")
//	var sc censor.Scenario
//	json.Unmarshal(raw, &sc)
//	sess, err := censor.NewSession(ctx, censor.WithScenario(sc))
//
// Addressing and AS numbers are assigned by the compiler from ISP order;
// a spec carries only behaviour. Validate (or NewSession, which calls it)
// reports structural errors — impossible sizings, unknown mechanisms or
// transit providers, calibration outside its domain — before any world is
// built.
type Scenario struct {
	// Name identifies the scenario (registry key for presets).
	Name string `json:"name"`
	// Description is a one-line human summary.
	Description string `json:"description,omitempty"`

	// Seed drives every random draw of the simulation; same seed, same
	// world, same measurements.
	Seed int64 `json:"seed"`
	// PBWSites sizes the potentially-blocked-website population (the
	// paper measured 1200); blocklist sizes scale against a 1200
	// baseline.
	PBWSites int `json:"pbw_sites"`
	// AlexaSites sizes the popular-destination population used as scan
	// targets and controls.
	AlexaSites int `json:"alexa_sites"`
	// VantagePoints is the number of outside (PlanetLab-style) vantage
	// points spread across the hosting fabric.
	VantagePoints int `json:"vantage_points"`
	// Pods is the number of global web-hosting pods (first half US,
	// second half EU). The paper world uses 80; the minimum is 4.
	Pods int `json:"pods"`

	// ISPs are the network operators, in order (order fixes addressing).
	ISPs []ISPSpec `json:"isps"`

	// Vantages optionally names the default campaign vantage set, in
	// order. Empty means every ISP in the scenario. WithVantages still
	// overrides per session or per run.
	Vantages []string `json:"vantages,omitempty"`
}

// ISPSpec describes one network operator: topology sizing, the censorship
// mechanism it runs, and the mechanism's calibration. Zero values mean
// "none of that": no middleboxes, no resolvers, no transits.
type ISPSpec struct {
	Name string `json:"name"`
	// Mechanism is the censorship the ISP operates itself, one of
	// Mechanisms: "none", "wiretap", "interceptive-overt",
	// "interceptive-covert" or "dns-poisoning". Empty means "none".
	Mechanism string `json:"mechanism"`

	// Edges is the number of access/aggregation units (each a /24 of
	// subscribers); the measurement client lives on the first. Minimum 1.
	Edges int `json:"edges"`
	// Borders is the number of egress units peering with the hosting
	// pods; 0 makes the ISP a transit customer (Transits required).
	Borders int `json:"borders,omitempty"`

	// Middleboxes deploys that many filtering boxes across the borders
	// (mechanisms wiretap / interceptive-*).
	Middleboxes int `json:"middleboxes,omitempty"`
	// InboundMiddleboxes is the subset also inspecting traffic addressed
	// to the ISP, making them visible to outside probes (Table 2's
	// within/outside coverage gap; 0 reproduces the Jio anomaly).
	InboundMiddleboxes int `json:"inbound_middleboxes,omitempty"`
	// Consistency is the per-URL share of boxes carrying each blocklist
	// entry, in [0,1] (Figure 5).
	Consistency float64 `json:"consistency,omitempty"`
	// HTTPBlocklist is the size of the ISP's HTTP blocklist.
	HTTPBlocklist int `json:"http_blocklist,omitempty"`
	// WiretapLossProb is the probability a wiretap box loses the
	// injection race, in [0,1] (the paper observed ~3 in 10).
	WiretapLossProb float64 `json:"wiretap_loss_prob,omitempty"`
	// Notification styles the forged censorship response; also used for
	// boxes this ISP operates on customer peering links.
	Notification NotifSpec `json:"notification,omitempty"`

	// Resolvers sizes the ISP's recursive resolver fleet (any mechanism
	// may run an honest fleet).
	Resolvers int `json:"resolvers,omitempty"`
	// PoisonedResolvers is how many of them answer censored domains with
	// a block host or bogon (mechanism dns-poisoning).
	PoisonedResolvers int `json:"poisoned_resolvers,omitempty"`
	// DNSBlocklist is the size of the DNS blocklist.
	DNSBlocklist int `json:"dns_blocklist,omitempty"`
	// DNSConsistency is the per-domain share of poisoned resolvers
	// carrying each entry, in [0,1] (Figure 2).
	DNSConsistency float64 `json:"dns_consistency,omitempty"`
	// ClientResolverPoison caps the poison list of the subscriber-default
	// resolver.
	ClientResolverPoison int `json:"client_resolver_poison,omitempty"`

	// Population adds synthetic background users whose DNS/HTTP/HTTPS
	// traffic shares the links and middlebox flow tables the campaign
	// measures. Zero value means an idle ISP.
	Population PopulationSpec `json:"population,omitempty"`
	// FlowCapacity bounds each of this ISP's middlebox flow tables
	// (including boxes it deploys on customer peering links). At capacity
	// the coldest live flow is evicted, so under population load the box
	// can lose a connection's handshake state — an eviction-induced
	// censorship miss. 0 keeps the generous default (65536).
	FlowCapacity int `json:"flow_capacity,omitempty"`

	// Transits wire the ISP to upstream providers per hosting region; the
	// provider's middlebox on each peering link is the collateral-damage
	// mechanism of Table 3.
	Transits []TransitSpec `json:"transits,omitempty"`
}

// PopulationSpec describes one ISP's synthetic background users
// (internal/trafficgen). Users browse a Zipf-ranked site list with
// exponential think times, mixing DNS lookups, HTTP page fetches and
// HTTPS handshakes by weight.
type PopulationSpec struct {
	// Users is the number of concurrent synthetic users (0 = none). Each
	// ISP edge seats up to 40000.
	Users int `json:"users,omitempty"`
	// DNS, HTTP and HTTPS are relative request-mix weights; all zero
	// means pure HTTP.
	DNS   float64 `json:"dns,omitempty"`
	HTTP  float64 `json:"http,omitempty"`
	HTTPS float64 `json:"https,omitempty"`
	// ThinkMS is the mean think time between one user's page visits in
	// milliseconds (default 3000).
	ThinkMS int `json:"think_ms,omitempty"`
	// Zipf is the popularity exponent over the ranked site list (default
	// 1.1; larger concentrates traffic on popular sites).
	Zipf float64 `json:"zipf,omitempty"`
}

// NotifSpec is the censorship-notification style of an ISP's middleboxes:
// the forged response body and the wire-level signatures the paper used
// for attribution (§6.1). The zero value is an anonymous default style.
type NotifSpec struct {
	// Body is the notification HTML; empty plus Covert means a bare RST.
	Body string `json:"body,omitempty"`
	// MimicHeaders copies a typical origin server's header names onto the
	// forged response — the property that blinds OONI's header check.
	MimicHeaders bool `json:"mimic_headers,omitempty"`
	// IPID pins the IP identification field of injected packets (Airtel's
	// boxes always use 242).
	IPID uint16 `json:"ipid,omitempty"`
	// Covert marks a style that sends only a RST, no notification page.
	Covert bool `json:"covert,omitempty"`
}

// TransitSpec routes one hosting region of a customer ISP through a
// provider, whose peering-link middlebox carries Collateral blocklist
// entries.
type TransitSpec struct {
	// Provider names another ISP in the same scenario (Borders ≥ 1).
	Provider string `json:"provider"`
	// Region is "US", "EU" or "ALL" (single-homed customers).
	Region string `json:"region"`
	// Collateral is the size of the provider's blocklist on this link.
	Collateral int `json:"collateral"`
}

// The censorship mechanisms an ISPSpec may name.
const (
	none               = "none"
	wiretap            = "wiretap"
	interceptiveOvert  = "interceptive-overt"
	interceptiveCovert = "interceptive-covert"
	dnsPoisoning       = "dns-poisoning"
)

// Mechanisms lists the accepted ISPSpec.Mechanism values in the
// compiler's kind order, so the world's reports speak the specs'
// vocabulary.
var Mechanisms = [...]string{none, wiretap, interceptiveOvert, interceptiveCovert, dnsPoisoning}

// maxISPs bounds the ISP list: the compiler assigns each ISP the
// 23.(10*(i+1)).0.0/16 address block, so ordinal 24 would overflow the
// second octet.
const maxISPs = 24

// maxUsersPerEdge is the synthetic-user seating of one edge: each edge
// hosts one traffic-generator host whose users hold fixed source ports
// 10000..49999.
const maxUsersPerEdge = 40000

// Clone returns a deep copy, so callers can tweak a preset without
// mutating the registry's.
func (s Scenario) Clone() Scenario {
	out := s
	out.ISPs = make([]ISPSpec, len(s.ISPs))
	for i, isp := range s.ISPs {
		out.ISPs[i] = isp
		out.ISPs[i].Transits = append([]TransitSpec(nil), isp.Transits...)
	}
	out.Vantages = append([]string(nil), s.Vantages...)
	return out
}

// Validate checks the scenario for structural errors without building a
// world: impossible sizings, unknown mechanisms or transit providers,
// calibration outside its domain, worlds whose clients could never reach
// the hosting fabric, and vantages naming no ISP. It returns the first
// error found, naming the offending ISP.
func (s Scenario) Validate() error {
	if len(s.ISPs) == 0 {
		return fmt.Errorf("scenario %q: no ISPs", s.Name)
	}
	if len(s.ISPs) > maxISPs {
		return fmt.Errorf("scenario %q: %d ISPs exceeds the %d the address plan holds", s.Name, len(s.ISPs), maxISPs)
	}
	if s.PBWSites < 1 || s.AlexaSites < 1 {
		return fmt.Errorf("scenario %q: PBWSites and AlexaSites must be ≥ 1 (got %d, %d)", s.Name, s.PBWSites, s.AlexaSites)
	}
	if s.VantagePoints < 1 {
		return fmt.Errorf("scenario %q: VantagePoints must be ≥ 1 (got %d)", s.Name, s.VantagePoints)
	}
	if s.Pods < 4 {
		return fmt.Errorf("scenario %q: Pods must be ≥ 4 to seat the hosting fabric (got %d)", s.Name, s.Pods)
	}
	if s.Pods > 250 {
		return fmt.Errorf("scenario %q: Pods must be ≤ 250, one /16 per pod (got %d)", s.Name, s.Pods)
	}
	byName := make(map[string]*ISPSpec, len(s.ISPs))
	for i := range s.ISPs {
		isp := &s.ISPs[i]
		if isp.Name == "" {
			return fmt.Errorf("scenario %q: ISP %d has no name", s.Name, i)
		}
		if _, dup := byName[isp.Name]; dup {
			return fmt.Errorf("scenario %q: duplicate ISP %q", s.Name, isp.Name)
		}
		byName[isp.Name] = isp
	}
	providers := make(map[string]bool)
	for i := range s.ISPs {
		for _, t := range s.ISPs[i].Transits {
			providers[t.Provider] = true
		}
	}
	for i := range s.ISPs {
		if err := validateISP(&s.ISPs[i], byName, providers); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	for _, v := range s.Vantages {
		if byName[v] == nil {
			return fmt.Errorf("scenario %q: vantage %q names no ISP", s.Name, v)
		}
	}
	return nil
}

func validateISP(isp *ISPSpec, byName map[string]*ISPSpec, providers map[string]bool) error {
	mech := isp.Mechanism
	if mech == "" {
		mech = none
	}
	if !slices.Contains(Mechanisms[:], mech) {
		return fmt.Errorf("ISP %q: unknown mechanism %q (one of: %v)", isp.Name, isp.Mechanism, Mechanisms)
	}
	for _, n := range []struct {
		what string
		v    int
	}{
		{"edges", isp.Edges}, {"borders", isp.Borders},
		{"middleboxes", isp.Middleboxes}, {"inbound_middleboxes", isp.InboundMiddleboxes},
		{"http_blocklist", isp.HTTPBlocklist}, {"resolvers", isp.Resolvers},
		{"poisoned_resolvers", isp.PoisonedResolvers}, {"dns_blocklist", isp.DNSBlocklist},
		{"client_resolver_poison", isp.ClientResolverPoison},
	} {
		if n.v < 0 {
			return fmt.Errorf("ISP %q: negative %s (%d)", isp.Name, n.what, n.v)
		}
	}
	if isp.Edges < 1 {
		return fmt.Errorf("ISP %q: edges must be ≥ 1, the measurement client lives on one", isp.Name)
	}
	if isp.Consistency < 0 || isp.Consistency > 1 {
		return fmt.Errorf("ISP %q: consistency %v outside [0,1]", isp.Name, isp.Consistency)
	}
	if isp.DNSConsistency < 0 || isp.DNSConsistency > 1 {
		return fmt.Errorf("ISP %q: dns_consistency %v outside [0,1]", isp.Name, isp.DNSConsistency)
	}
	if isp.WiretapLossProb < 0 || isp.WiretapLossProb > 1 {
		return fmt.Errorf("ISP %q: wiretap_loss_prob %v outside [0,1]", isp.Name, isp.WiretapLossProb)
	}

	// Calibration set for a mechanism that never reads it is rejected, not
	// ignored: a spec author who writes wiretap_loss_prob on an
	// interceptive ISP believes in an evasion window that will not exist.
	httpCensoring := mech == wiretap || mech == interceptiveOvert || mech == interceptiveCovert
	if httpCensoring {
		if isp.Middleboxes < 1 {
			return fmt.Errorf("ISP %q: mechanism %s needs middleboxes ≥ 1", isp.Name, isp.Mechanism)
		}
		if isp.Borders < 1 {
			return fmt.Errorf("ISP %q: middleboxes deploy on borders; borders must be ≥ 1", isp.Name)
		}
		if isp.HTTPBlocklist < 1 {
			return fmt.Errorf("ISP %q: mechanism %s needs http_blocklist ≥ 1", isp.Name, isp.Mechanism)
		}
	} else if isp.Middleboxes > 0 || isp.HTTPBlocklist > 0 || isp.Consistency != 0 {
		return fmt.Errorf("ISP %q: middleboxes/http_blocklist/consistency set but mechanism is %q", isp.Name, isp.Mechanism)
	}
	if mech != wiretap && isp.WiretapLossProb != 0 {
		return fmt.Errorf("ISP %q: wiretap_loss_prob set but mechanism is %q — only wiretap boxes race", isp.Name, isp.Mechanism)
	}
	if isp.InboundMiddleboxes > isp.Middleboxes {
		return fmt.Errorf("ISP %q: inbound_middleboxes %d exceeds middleboxes %d", isp.Name, isp.InboundMiddleboxes, isp.Middleboxes)
	}

	if mech == dnsPoisoning {
		if isp.Resolvers < 1 || isp.PoisonedResolvers < 1 {
			return fmt.Errorf("ISP %q: dns-poisoning needs resolvers ≥ 1 and poisoned_resolvers ≥ 1", isp.Name)
		}
		if isp.DNSBlocklist < 1 {
			return fmt.Errorf("ISP %q: dns-poisoning needs dns_blocklist ≥ 1", isp.Name)
		}
	} else if isp.PoisonedResolvers > 0 || isp.DNSBlocklist > 0 || isp.DNSConsistency != 0 || isp.ClientResolverPoison > 0 {
		return fmt.Errorf("ISP %q: poisoned_resolvers/dns_blocklist/dns_consistency/client_resolver_poison set but mechanism is %q", isp.Name, isp.Mechanism)
	}
	if isp.PoisonedResolvers > isp.Resolvers {
		return fmt.Errorf("ISP %q: poisoned_resolvers %d exceeds resolvers %d", isp.Name, isp.PoisonedResolvers, isp.Resolvers)
	}

	pop := isp.Population
	if pop.Users < 0 || pop.ThinkMS < 0 {
		return fmt.Errorf("ISP %q: negative population users/think_ms (%d/%d)", isp.Name, pop.Users, pop.ThinkMS)
	}
	if pop.DNS < 0 || pop.HTTP < 0 || pop.HTTPS < 0 || pop.Zipf < 0 {
		return fmt.Errorf("ISP %q: negative population mix weight or zipf exponent", isp.Name)
	}
	if pop.Users == 0 && pop != (PopulationSpec{}) {
		return fmt.Errorf("ISP %q: population calibration set but users is 0", isp.Name)
	}
	if pop.Users > maxUsersPerEdge*isp.Edges {
		return fmt.Errorf("ISP %q: population %d exceeds %d users the %d edge(s) can seat (%d ports each)",
			isp.Name, pop.Users, maxUsersPerEdge*isp.Edges, isp.Edges, maxUsersPerEdge)
	}
	if isp.FlowCapacity < 0 {
		return fmt.Errorf("ISP %q: negative flow_capacity (%d)", isp.Name, isp.FlowCapacity)
	}
	if isp.FlowCapacity > 0 && !httpCensoring && !providers[isp.Name] {
		return fmt.Errorf("ISP %q: flow_capacity set but the ISP deploys no middleboxes (mechanism %q, not a transit provider)", isp.Name, isp.Mechanism)
	}

	coversUS, coversEU := isp.Borders > 0, isp.Borders > 0
	for _, t := range isp.Transits {
		p, ok := byName[t.Provider]
		if !ok {
			return fmt.Errorf("ISP %q: unknown transit provider %q", isp.Name, t.Provider)
		}
		if t.Provider == isp.Name {
			return fmt.Errorf("ISP %q: transits through itself", isp.Name)
		}
		if p.Borders < 1 {
			return fmt.Errorf("ISP %q: transit provider %q has no borders, so return traffic would bypass the peering link", isp.Name, t.Provider)
		}
		if t.Collateral < 1 {
			return fmt.Errorf("ISP %q: transit via %q needs collateral ≥ 1", isp.Name, t.Provider)
		}
		switch t.Region {
		case "ALL":
			coversUS, coversEU = true, true
		case "US":
			coversUS = true
		case "EU":
			coversEU = true
		default:
			return fmt.Errorf("ISP %q: transit region %q (want US, EU or ALL)", isp.Name, t.Region)
		}
	}
	if !coversUS || !coversEU {
		return fmt.Errorf("ISP %q: no route to every hosting region — needs borders or transit coverage of US and EU", isp.Name)
	}
	return nil
}
