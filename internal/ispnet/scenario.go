package ispnet

import (
	"slices"
	"time"

	"repro/internal/middlebox"
	"repro/scenario"
)

// This file is the scenario compiler: the lowering that turns a validated
// scenario.Scenario into the packet-level Config NewWorld consumes, and
// the paper's own calibration as specs (PaperScenario and its variants),
// which is what DefaultConfig and DefaultProfiles are derived from.

// Compile validates the scenario and lowers it to the packet-level world
// configuration: AS numbers 101+i and the 23.(10*(i+1)).0.0/16 block are
// assigned from ISP order, mechanism strings become CensorKinds, and
// notification specs become middlebox styles.
func Compile(s scenario.Scenario) (Config, error) {
	if err := s.Validate(); err != nil {
		return Config{}, err
	}
	cfg := Config{
		Seed:       s.Seed,
		PBWCount:   s.PBWSites,
		AlexaCount: s.AlexaSites,
		VPCount:    s.VantagePoints,
		Pods:       s.Pods,
	}
	for i, isp := range s.ISPs {
		// A validated mechanism is a Mechanisms entry, or empty for none.
		kind := CensorKind(max(0, slices.Index(scenario.Mechanisms[:], isp.Mechanism)))
		p := Profile{
			Name: isp.Name, ASN: 101 + i, Base1: 23, Base2: byte(10 * (i + 1)),
			Edges: isp.Edges, Borders: isp.Borders,
			Boxes: isp.Middleboxes, BoxesSrcOrDst: isp.InboundMiddleboxes,
			Consistency: isp.Consistency, BlockCount: isp.HTTPBlocklist,
			Censor: kind, WMLossProb: isp.WiretapLossProb,
			Resolvers: isp.Resolvers, PoisonedResolvers: isp.PoisonedResolvers,
			DNSBlockCount: isp.DNSBlocklist, DNSConsistency: isp.DNSConsistency,
			ClientResolverSize: isp.ClientResolverPoison,
			FlowCapacity:       isp.FlowCapacity,
		}
		if isp.Population.Users > 0 {
			p.Population = Population{
				Users:      isp.Population.Users,
				DNSShare:   isp.Population.DNS,
				HTTPShare:  isp.Population.HTTP,
				HTTPSShare: isp.Population.HTTPS,
				Think:      time.Duration(isp.Population.ThinkMS) * time.Millisecond,
				ZipfS:      isp.Population.Zipf,
			}
			if p.Population.Think == 0 {
				p.Population.Think = 3 * time.Second
			}
			if p.Population.ZipfS == 0 {
				p.Population.ZipfS = 1.1
			}
			if p.Population.DNSShare == 0 && p.Population.HTTPShare == 0 && p.Population.HTTPSShare == 0 {
				p.Population.HTTPShare = 1
			}
		}
		if isp.Notification != (scenario.NotifSpec{}) {
			p.Style = middlebox.NotifStyle{
				ISP:          isp.Name,
				BodyHTML:     isp.Notification.Body,
				MimicHeaders: isp.Notification.MimicHeaders,
				IPID:         isp.Notification.IPID,
				Covert:       isp.Notification.Covert,
			}
		}
		for _, t := range isp.Transits {
			p.Transits = append(p.Transits, TransitLink{
				Provider: t.Provider, Region: t.Region, CollateralCount: t.Collateral,
			})
		}
		cfg.Profiles = append(cfg.Profiles, p)
	}
	return cfg, nil
}

// notifSpecOf lifts a middlebox style back into spec form (the ISP name is
// reassigned by the compiler).
func notifSpecOf(st middlebox.NotifStyle) scenario.NotifSpec {
	return scenario.NotifSpec{Body: st.BodyHTML, MimicHeaders: st.MimicHeaders, IPID: st.IPID, Covert: st.Covert}
}

// PaperScenario is the Table 2/Table 3 calibration of Yadav et al. as a
// scenario spec: the nine studied ISPs plus TATA, the 1200-website
// population, Alexa 1000 and 40 vantage points. Compiling it yields
// exactly DefaultConfig — the paper is one point in the scenario space.
func PaperScenario() scenario.Scenario {
	return scenario.Scenario{
		Name:        "paper-2018",
		Description: "the nine studied Indian ISPs plus TATA, calibrated from the paper's Tables 2-3 and Figures 2/5",
		Seed:        2018, PBWSites: 1200, AlexaSites: 1000, VantagePoints: 40, Pods: 80,
		ISPs: []scenario.ISPSpec{
			{
				Name: "Airtel", Mechanism: CensorWM.String(),
				Edges: 10, Borders: 16,
				Middleboxes: 12, InboundMiddleboxes: 9, Consistency: 0.123, HTTPBlocklist: 234,
				WiretapLossProb: 0.3, Notification: notifSpecOf(middlebox.StyleAirtel),
			},
			{
				Name: "Idea", Mechanism: CensorIMOvert.String(),
				Edges: 8, Borders: 12,
				Middleboxes: 11, InboundMiddleboxes: 11, Consistency: 0.768, HTTPBlocklist: 338,
				Notification: notifSpecOf(middlebox.StyleIdea),
			},
			{
				Name: "Vodafone", Mechanism: CensorIMCovert.String(),
				Edges: 8, Borders: 80,
				Middleboxes: 9, InboundMiddleboxes: 1, Consistency: 0.116, HTTPBlocklist: 483,
				Notification: notifSpecOf(middlebox.StyleVodafone),
			},
			{
				Name: "Jio", Mechanism: CensorWM.String(),
				Edges: 8, Borders: 32,
				Middleboxes: 2, InboundMiddleboxes: 0, Consistency: 0.5, HTTPBlocklist: 200,
				WiretapLossProb: 0.3, Notification: notifSpecOf(middlebox.StyleJio),
			},
			{
				Name: "MTNL", Mechanism: CensorDNS.String(),
				Edges:     56,
				Resolvers: 448, PoisonedResolvers: 345,
				DNSBlocklist: 450, DNSConsistency: 0.424, ClientResolverPoison: 45,
				Transits: []scenario.TransitSpec{
					{Provider: "TATA", Region: "US", Collateral: 134},
					{Provider: "Airtel", Region: "EU", Collateral: 25},
				},
			},
			{
				Name: "BSNL", Mechanism: CensorDNS.String(),
				Edges:     23,
				Resolvers: 182, PoisonedResolvers: 17,
				DNSBlocklist: 300, DNSConsistency: 0.075, ClientResolverPoison: 22,
				Transits: []scenario.TransitSpec{
					{Provider: "TATA", Region: "US", Collateral: 156},
					{Provider: "Airtel", Region: "EU", Collateral: 1},
				},
			},
			{
				Name: "NKN", Mechanism: CensorNone.String(),
				Edges: 4,
				Transits: []scenario.TransitSpec{
					{Provider: "Vodafone", Region: "US", Collateral: 69},
					{Provider: "TATA", Region: "EU", Collateral: 8},
				},
			},
			{
				Name: "Sify", Mechanism: CensorNone.String(),
				Edges: 4,
				Transits: []scenario.TransitSpec{
					{Provider: "TATA", Region: "US", Collateral: 142},
					{Provider: "Airtel", Region: "EU", Collateral: 2},
				},
			},
			{
				Name: "Siti", Mechanism: CensorNone.String(),
				Edges: 4,
				Transits: []scenario.TransitSpec{
					{Provider: "Airtel", Region: "ALL", Collateral: 110},
				},
			},
			{
				Name: "TATA", Mechanism: CensorNone.String(),
				Edges: 6, Borders: 16,
				Notification: notifSpecOf(middlebox.StyleTATA),
			},
		},
	}
}

// LoadedScenario is the paper calibration under population-scale load:
// 11000 synthetic users spread over the ten ISPs in rough subscriber-share
// proportion, and realistic (bounded) flow tables on every ISP that
// deploys middleboxes. Under this load the HTTP boxes' 2048-entry tables
// turn over in tens of seconds, so a connection that idles between
// handshake and request loses its flow state — the eviction-induced
// censorship miss an idle world never shows.
func LoadedScenario() scenario.Scenario {
	s := PaperScenario()
	s.Name = "paper-2018-loaded"
	s.Description = "the paper's ten-ISP world with 11k synthetic background users and bounded middlebox flow tables"
	users := []struct {
		name  string
		users int
		cap   int
	}{
		{"Airtel", 3000, 2048},
		{"Idea", 3000, 2048},
		{"Vodafone", 1200, 2048},
		{"Jio", 1800, 2048},
		{"MTNL", 400, 0},
		{"BSNL", 400, 0},
		{"NKN", 100, 0},
		{"Sify", 50, 0},
		{"Siti", 50, 0},
		{"TATA", 0, 2048},
	}
	for i := range s.ISPs {
		isp := &s.ISPs[i]
		for _, u := range users {
			if u.name != isp.Name {
				continue
			}
			isp.FlowCapacity = u.cap
			if u.users > 0 {
				isp.Population = scenario.PopulationSpec{
					Users: u.users,
					DNS:   0.1, HTTP: 0.8, HTTPS: 0.1,
					ThinkMS: 2000, Zipf: 1.1,
				}
			}
		}
	}
	return s
}

// SmallScenario is the paper calibration at reduced scale — the same ten
// ISPs over 240 PBWs, Alexa 100 and 16 vantage points — for tests and
// smoke runs. Compiling it yields exactly SmallConfig.
func SmallScenario() scenario.Scenario {
	s := PaperScenario()
	s.Name = "small"
	s.Description = "the paper's ten-ISP world at reduced scale (240 PBWs) for experimentation and tests"
	s.PBWSites = 240
	s.AlexaSites = 100
	s.VantagePoints = 16
	return s
}
