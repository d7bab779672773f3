package ispnet

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/httpwire"
	"repro/internal/middlebox"
	"repro/internal/websim"
	"repro/scenario"
)

// TestPaperScenarioCompile pins the compiler's address/ASN assignment and
// style lowering to the historical hand-written calibration, so the
// "paper is just a preset" refactor cannot drift the world.
func TestPaperScenarioCompile(t *testing.T) {
	cfg, err := Compile(PaperScenario())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if cfg.Seed != 2018 || cfg.PBWCount != 1200 || cfg.AlexaCount != 1000 || cfg.VPCount != 40 || cfg.Pods != 80 {
		t.Fatalf("paper sizing drifted: %+v", cfg)
	}
	if len(cfg.Profiles) != 10 {
		t.Fatalf("got %d profiles, want 10", len(cfg.Profiles))
	}
	spot := map[string]struct {
		asn   int
		base2 byte
		style middlebox.NotifStyle
	}{
		"Airtel":   {ASNAirtel, 10, middlebox.StyleAirtel},
		"Idea":     {ASNIdea, 20, middlebox.StyleIdea},
		"Vodafone": {ASNVodafone, 30, middlebox.StyleVodafone},
		"Jio":      {ASNJio, 40, middlebox.StyleJio},
		"MTNL":     {ASNMTNL, 50, middlebox.NotifStyle{}},
		"TATA":     {ASNTATA, 100, middlebox.StyleTATA},
	}
	for _, p := range cfg.Profiles {
		want, ok := spot[p.Name]
		if !ok {
			continue
		}
		if p.ASN != want.asn || p.Base1 != 23 || p.Base2 != want.base2 {
			t.Errorf("%s addressing: ASN %d base %d.%d, want ASN %d base 23.%d",
				p.Name, p.ASN, p.Base1, p.Base2, want.asn, want.base2)
		}
		if !reflect.DeepEqual(p.Style, want.style) {
			t.Errorf("%s style drifted:\n got %+v\nwant %+v", p.Name, p.Style, want.style)
		}
	}
	airtel := cfg.Profiles[0]
	if airtel.Boxes != 12 || airtel.BoxesSrcOrDst != 9 || airtel.Consistency != 0.123 ||
		airtel.BlockCount != 234 || airtel.Censor != CensorWM || airtel.WMLossProb != 0.3 {
		t.Errorf("Airtel calibration drifted: %+v", airtel)
	}
	mtnl := cfg.Profiles[4]
	if mtnl.Resolvers != 448 || mtnl.PoisonedResolvers != 345 || mtnl.DNSBlockCount != 450 ||
		mtnl.DNSConsistency != 0.424 || mtnl.ClientResolverSize != 45 || len(mtnl.Transits) != 2 {
		t.Errorf("MTNL calibration drifted: %+v", mtnl)
	}
	if mtnl.Transits[0] != (TransitLink{Provider: "TATA", Region: "US", CollateralCount: 134}) {
		t.Errorf("MTNL transit drifted: %+v", mtnl.Transits[0])
	}
}

// TestSmallScenarioCompile checks the reduced preset only resizes.
func TestSmallScenarioCompile(t *testing.T) {
	small, err := Compile(SmallScenario())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	paper, _ := Compile(PaperScenario())
	if small.PBWCount != 240 || small.AlexaCount != 100 || small.VPCount != 16 {
		t.Fatalf("small sizing drifted: %+v", small)
	}
	if !reflect.DeepEqual(small.Profiles, paper.Profiles) {
		t.Fatal("small profiles differ from paper profiles")
	}
}

// TestScenarioJSONRoundTrip: a spec survives marshal/unmarshal with an
// identical compiled config.
func TestScenarioJSONRoundTrip(t *testing.T) {
	for _, sc := range []scenario.Scenario{PaperScenario(), SmallScenario()} {
		raw, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", sc.Name, err)
		}
		var back scenario.Scenario
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: Unmarshal: %v", sc.Name, err)
		}
		want, _ := Compile(sc)
		got, err := Compile(back)
		if err != nil {
			t.Fatalf("%s: Compile after round trip: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: compiled config changed across JSON round trip", sc.Name)
		}
	}
}

// TestScenarioValidate rejects the malformed-spec catalogue.
func TestScenarioValidate(t *testing.T) {
	base := func() scenario.Scenario { return SmallScenario() }
	cases := []struct {
		name   string
		mutate func(*scenario.Scenario)
		want   string
	}{
		{"no ISPs", func(s *scenario.Scenario) { s.ISPs = nil }, "no ISPs"},
		{"negative edges", func(s *scenario.Scenario) { s.ISPs[0].Edges = -3 }, "negative"},
		{"zero edges", func(s *scenario.Scenario) { s.ISPs[0].Edges = 0 }, "edges"},
		{"consistency above 1", func(s *scenario.Scenario) { s.ISPs[0].Consistency = 1.5 }, "outside [0,1]"},
		{"dns consistency below 0", func(s *scenario.Scenario) { s.ISPs[4].DNSConsistency = -0.1 }, "outside [0,1]"},
		{"unknown mechanism", func(s *scenario.Scenario) { s.ISPs[0].Mechanism = "deep-packet-magic" }, "unknown mechanism"},
		{"unknown transit provider", func(s *scenario.Scenario) { s.ISPs[4].Transits[0].Provider = "Hathway" }, "unknown transit provider"},
		{"self transit", func(s *scenario.Scenario) { s.ISPs[4].Transits[0].Provider = "MTNL" }, "itself"},
		{"bad transit region", func(s *scenario.Scenario) { s.ISPs[4].Transits[0].Region = "APAC" }, "transit region"},
		{"duplicate ISP", func(s *scenario.Scenario) { s.ISPs[1].Name = "Airtel" }, "duplicate"},
		{"boxes without borders", func(s *scenario.Scenario) {
			s.ISPs[0].Borders = 0
			s.ISPs[0].Transits = []scenario.TransitSpec{{Provider: "TATA", Region: "ALL", Collateral: 5}}
		}, "borders"},
		{"inbound exceeds boxes", func(s *scenario.Scenario) { s.ISPs[0].InboundMiddleboxes = 99 }, "exceeds middleboxes"},
		{"poisoned exceeds resolvers", func(s *scenario.Scenario) { s.ISPs[4].PoisonedResolvers = 9999 }, "exceeds resolvers"},
		{"unreachable region", func(s *scenario.Scenario) { s.ISPs[4].Transits = s.ISPs[4].Transits[:1] }, "hosting region"},
		{"http fields on dns censor", func(s *scenario.Scenario) { s.ISPs[4].Middleboxes = 3 }, "mechanism is"},
		{"dns fields on wiretap censor", func(s *scenario.Scenario) { s.ISPs[0].DNSBlocklist = 10 }, "mechanism is"},
		{"loss prob on interceptive", func(s *scenario.Scenario) { s.ISPs[1].WiretapLossProb = 0.3 }, "only wiretap boxes race"},
		{"consistency on dns censor", func(s *scenario.Scenario) { s.ISPs[4].Consistency = 0.4 }, "mechanism is"},
		{"dns consistency on clean ISP", func(s *scenario.Scenario) { s.ISPs[6].DNSConsistency = 0.2 }, "mechanism is"},
		{"too few pods", func(s *scenario.Scenario) { s.Pods = 2 }, "Pods"},
		{"no vantage points", func(s *scenario.Scenario) { s.VantagePoints = 0 }, "VantagePoints"},
	}
	for _, tc := range cases {
		sc := base()
		tc.mutate(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, err := Compile(sc); err == nil {
			t.Errorf("%s: Compile accepted the spec", tc.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("unmutated small scenario rejected: %v", err)
	}
}

// TestWorldReset is the unit-level pooling contract: drive censoring
// traffic through a world, Reset it, and require the same fetch to behave
// byte-identically to a freshly built world.
func TestWorldReset(t *testing.T) {
	cfg := SmallConfig()
	dirty := NewWorld(cfg)
	isp := dirty.ISP("Idea")

	var blocked string
	var dst = dirty.Catalog.PBW[0].Addr(websim.RegionIN)
	for _, d := range isp.HTTPList {
		if s, ok := dirty.Catalog.Site(d); ok && s.Kind == websim.KindNormal {
			if yes, _ := dirty.HTTPTruthOnPath(isp.Client, s.Addr(websim.RegionIN), d); yes {
				blocked, dst = d, s.Addr(websim.RegionIN)
				break
			}
		}
	}
	if blocked == "" {
		t.Skip("no blocked normal-kind domain at small scale")
	}

	// fetch digests one raw GET for the blocked domain: connection fate
	// plus the exact byte stream received (notification pages included).
	fetch := func(w *World) string {
		i := w.ISP("Idea")
		c := i.Client.TCP.Connect(dst, 80)
		if err := c.WaitEstablished(2 * time.Second); err != nil {
			return "no-connect"
		}
		c.Send(httpwire.NewGET("/").Header("Host", blocked).Bytes())
		w.Eng.RunFor(2 * time.Second)
		return fmt.Sprintf("dead=%v closed=%v stream=%x", c.Dead(), c.PeerClosed(), c.Stream())
	}

	// Dirty the world thoroughly: fetches, DNS queries, engine time.
	for i := 0; i < 5; i++ {
		fetch(dirty)
		dirty.ISP("MTNL").Client.DNS.Query(dirty.ISP("MTNL").DefaultResolver, blocked, time.Second)
	}
	if dirty.Eng.Now() == 0 {
		t.Fatal("traffic did not advance the engine clock")
	}
	dirty.Reset()
	if dirty.Eng.Now() != 0 || dirty.Eng.Pending() != 0 {
		t.Fatalf("Reset left engine at now=%v pending=%d", dirty.Eng.Now(), dirty.Eng.Pending())
	}
	if n := isp.Boxes[0].Triggers(); n != 0 {
		t.Fatalf("Reset left %d triggers on %s", n, isp.Boxes[0].ID)
	}

	fresh := NewWorld(cfg)
	got, want := fetch(dirty), fetch(fresh)
	if got != want {
		t.Fatalf("reset world diverged from fresh world:\nreset: %s\nfresh: %s", got, want)
	}
	// And again: a second reset cycle must also match.
	dirty.Reset()
	fresh2 := NewWorld(cfg)
	if got, want := fetch(dirty), fetch(fresh2); got != want {
		t.Fatalf("second reset cycle diverged:\nreset: %s\nfresh: %s", got, want)
	}
}
