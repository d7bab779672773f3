// Package ispnet assembles the simulated Indian Internet of the paper: the
// nine studied ISPs plus TATA as a censorious transit, a global fabric of
// web-hosting pods, the external measurement infrastructure (Tor exits,
// OONI control, PlanetLab-style vantage points), middlebox deployment, DNS
// resolver fleets, and the peering/transit relationships that produce the
// paper's collateral-damage observations.
//
// Everything tunable is calibrated from numbers the paper publishes
// (Table 2, Table 3, Figure 2/5, §4.1); everything measured is produced by
// running the probe code against the resulting packet-level network.
package ispnet

import (
	"time"

	"repro/internal/middlebox"
	"repro/scenario"
)

// CensorKind is the censorship mechanism an ISP operates itself.
type CensorKind int

// Censorship mechanisms found by the paper (§4): HTTP filtering by wiretap
// or interceptive middleboxes, DNS poisoning, or nothing.
const (
	CensorNone CensorKind = iota
	CensorWM
	CensorIMOvert
	CensorIMCovert
	CensorDNS
)

// String is the kind's scenario mechanism name, so specs and reports
// speak one vocabulary.
func (k CensorKind) String() string { return scenario.Mechanisms[k] }

// TransitLink declares that a customer ISP reaches one hosting region
// through a provider, and how many PBWs the provider's peering-link
// middlebox carries (Table 3 calibration).
type TransitLink struct {
	Provider string
	// Region is "US", "EU" or "ALL" (single-homed customers).
	Region string
	// CollateralCount is the size of the provider's blocklist on this
	// peering link.
	CollateralCount int
}

// Profile is the static calibration for one ISP.
type Profile struct {
	Name string
	ASN  int
	// Base octets: the ISP owns Base1.Base2.0.0/16.
	Base1, Base2 byte

	// Edges is the number of access/aggregation units; each claims a /24
	// with subscriber hosts.
	Edges int

	// Borders is the number of egress units connecting to the global
	// pods; 0 for transit-customer ISPs.
	Borders int

	// HTTP filtering calibration (Table 2).
	Boxes         int     // middleboxes deployed (on Borders)
	BoxesSrcOrDst int     // subset also inspecting traffic *to* the ISP
	Consistency   float64 // per-URL share of boxes carrying it (Figure 5)
	BlockCount    int     // size of the ISP's HTTP blocklist
	Censor        CensorKind
	Style         middlebox.NotifStyle
	WMLossProb    float64 // wiretap race losses (paper: ~3/10)

	// DNS filtering calibration (§4.1, Figure 2).
	Resolvers          int
	PoisonedResolvers  int
	DNSBlockCount      int
	DNSConsistency     float64
	ClientResolverSize int // poison-list size of the client's default resolver

	// Transits lists upstream providers for customer ISPs (Table 3).
	Transits []TransitLink

	// Population is the synthetic background-user calibration (trafficgen);
	// Users == 0 means the ISP contributes no background traffic.
	Population Population
	// FlowCapacity bounds each of the ISP's middlebox flow tables
	// (including boxes it deploys on customer peering links); 0 keeps the
	// middlebox default.
	FlowCapacity int
}

// Population calibrates one ISP's synthetic background users. The shares
// are relative weights over request kinds (normalized at build time); the
// compiler resolves zero Think/ZipfS to defaults when Users > 0.
type Population struct {
	Users int
	// Request mix weights; all zero means pure HTTP.
	DNSShare, HTTPShare, HTTPSShare float64
	// Think is the mean of the exponential think-time distribution between
	// one user's page visits.
	Think time.Duration
	// ZipfS is the Zipf popularity exponent over the ranked site list
	// (Alexa ranks first, then the PBW population).
	ZipfS float64
}

// ASNs for the simulated ISPs and fabric.
const (
	ASNAirtel   = 101
	ASNIdea     = 102
	ASNVodafone = 103
	ASNJio      = 104
	ASNMTNL     = 105
	ASNBSNL     = 106
	ASNNKN      = 107
	ASNSify     = 108
	ASNSiti     = 109
	ASNTATA     = 110
	ASNHub      = 64500
	ASNPodsUS   = 64501
	ASNPodsEU   = 64502
	ASNINDC     = 64510
	ASNExt      = 64520
)

// DefaultProfiles returns the calibrated ten-ISP world of the paper,
// compiled from the PaperScenario spec — the calibration data itself lives
// there, so the paper is just one preset in the scenario space.
//
// Coverage arithmetic (Table 2): within-ISP coverage ≈ Boxes/Borders since
// each destination pod is served by exactly one border; outside coverage ≈
// BoxesSrcOrDst/Borders since only src-or-dst-scoped boxes see inbound
// probes. Airtel 12/16 = 75% & 9/16 = 56%; Idea 11/12 = 91.7% both;
// Vodafone 9/80 = 11.25% & 2/80 = 2.5%; Jio 2/32 = 6.25% & 0 (all boxes
// source-only — the paper's hypothesis for never seeing Jio boxes from
// outside, stated as "filtering ... for source IPs belonging to Jio").
func DefaultProfiles() []Profile {
	return DefaultConfig().Profiles
}

// HTTPCensoring reports whether the profile operates HTTP middleboxes.
func (p *Profile) HTTPCensoring() bool {
	return p.Censor == CensorWM || p.Censor == CensorIMOvert || p.Censor == CensorIMCovert
}
