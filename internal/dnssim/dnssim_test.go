package dnssim

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netpkt"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/websim"
)

type fixture struct {
	eng      *sim.Engine
	net      *netsim.Network
	client   *Client
	chost    *netsim.Host
	resolver *Resolver
	cat      *websim.Catalog
	routers  []*netsim.Router
}

func newFixture(t *testing.T, hops int) *fixture {
	t.Helper()
	eng := sim.NewEngine(11)
	n := netsim.New(eng)
	routers := make([]*netsim.Router, hops)
	for i := range routers {
		routers[i] = n.AddRouter("r", 55, netip.AddrFrom4([4]byte{100, 64, byte(i), 1}))
		if i > 0 {
			n.Link(routers[i-1], routers[i], time.Millisecond)
		}
	}
	ch := n.AddHost(netip.MustParseAddr("10.1.0.2"), routers[0], time.Millisecond)
	rh := n.AddHost(netip.MustParseAddr("10.1.9.53"), routers[hops-1], time.Millisecond)
	n.Build()

	cat := websim.NewCatalog(100, 10)
	// Assign fake addresses so the authority can answer.
	for i, s := range cat.PBW {
		base := netip.AddrFrom4([4]byte{151, 10, byte(i / 250), byte(i%250 + 1)})
		s.Addrs[websim.RegionIN] = base
		s.Addrs[websim.RegionUS] = base
		s.Addrs[websim.RegionEU] = base
		if s.Kind == websim.KindCDN {
			s.Addrs[websim.RegionIN] = netip.AddrFrom4([4]byte{61, 50, 200, 1})
		}
	}
	auth := &CatalogAuthority{Catalog: cat}
	res := NewResolver(rh, websim.RegionIN, auth, time.Millisecond)
	return &fixture{
		eng: eng, net: n, client: NewClient(ch), chost: ch,
		resolver: res, cat: cat, routers: routers,
	}
}

// poison makes the fixture's resolver answer domain with addr. PBW[1]
// shares the index but stays out of the set, like a domain on the ISP's
// list that this resolver leaves alone.
func (f *fixture) poison(domain string, addr netip.Addr) {
	index := NewDomainIndex([]string{f.cat.PBW[1].Domain, domain})
	set := index.NewSet()
	set.Add(1)
	f.resolver.Poison(index, set, func(string) netip.Addr { return addr })
}

func TestResolveHonest(t *testing.T) {
	f := newFixture(t, 3)
	var normal *websim.Site
	for _, s := range f.cat.PBW {
		if s.Kind == websim.KindNormal {
			normal = s
			break
		}
	}
	addrs, rcode, err := f.client.ResolveA(f.resolver.Addr(), normal.Domain, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rcode != dnswire.RCodeNoError || len(addrs) != 1 || addrs[0] != normal.Addrs[websim.RegionIN] {
		t.Errorf("resolve = %v %v", addrs, rcode)
	}
}

func TestResolveRegional(t *testing.T) {
	f := newFixture(t, 3)
	var cdn *websim.Site
	for _, s := range f.cat.PBW {
		if s.Kind == websim.KindCDN {
			cdn = s
			break
		}
	}
	addrs, _, err := f.client.ResolveA(f.resolver.Addr(), cdn.Domain, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if addrs[0] != netip.MustParseAddr("61.50.200.1") {
		t.Errorf("IN resolver should return IN edge, got %v", addrs[0])
	}
}

func TestResolveNXDomain(t *testing.T) {
	f := newFixture(t, 3)
	_, rcode, err := f.client.ResolveA(f.resolver.Addr(), "no-such-site.invalid", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rcode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", rcode)
	}
}

func TestPoisonedResolver(t *testing.T) {
	f := newFixture(t, 3)
	victim := f.cat.PBW[0]
	blockIP := netip.MustParseAddr("10.1.255.1")
	f.poison(victim.Domain, blockIP)
	addrs, rcode, err := f.client.ResolveA(f.resolver.Addr(), victim.Domain, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rcode != dnswire.RCodeNoError || addrs[0] != blockIP {
		t.Errorf("poisoned answer = %v %v", addrs, rcode)
	}
	if f.resolver.PoisonedAnswers != 1 {
		t.Errorf("PoisonedAnswers = %d", f.resolver.PoisonedAnswers)
	}
	// Non-poisoned domains still resolve honestly.
	other := f.cat.PBW[1]
	addrs, _, err = f.client.ResolveA(f.resolver.Addr(), other.Domain, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if addrs[0] == blockIP {
		t.Error("unpoisoned domain got the block IP")
	}
}

func TestPoisonSetQueries(t *testing.T) {
	f := newFixture(t, 3)
	victim, other := f.cat.PBW[0].Domain, f.cat.PBW[1].Domain
	if f.resolver.Poisoned() || f.resolver.PoisonsDomain(victim) || len(f.resolver.PoisonList()) != 0 {
		t.Fatal("a fresh resolver must be honest")
	}
	blockIP := netip.MustParseAddr("10.1.255.1")
	f.poison(victim, blockIP)
	if !f.resolver.Poisoned() || !f.resolver.PoisonsDomain(victim) || f.resolver.PoisonsDomain(other) {
		t.Error("poison set membership wrong")
	}
	if got := f.resolver.PoisonList(); len(got) != 1 || got[0] != victim {
		t.Errorf("PoisonList = %v, want [%s]", got, victim)
	}
	if addr, ok := f.resolver.PoisonAnswer(victim); !ok || addr != blockIP {
		t.Errorf("PoisonAnswer(victim) = %v %v", addr, ok)
	}
	if _, ok := f.resolver.PoisonAnswer(other); ok {
		t.Error("PoisonAnswer must refuse a domain outside the set")
	}
}

func TestQueryTimeout(t *testing.T) {
	f := newFixture(t, 3)
	deadResolver := netip.MustParseAddr("10.1.9.54") // nothing there
	_, err := f.client.Query(deadResolver, "x.com", 100*time.Millisecond)
	if err == nil {
		t.Error("query to dead resolver should time out")
	}
}

func TestQueryAsyncScan(t *testing.T) {
	f := newFixture(t, 3)
	responders := map[netip.Addr]bool{}
	targets := []netip.Addr{
		f.resolver.Addr(),
		netip.MustParseAddr("10.1.9.99"), // dead
		netip.MustParseAddr("10.1.9.98"), // dead
	}
	for _, dst := range targets {
		dst := dst
		f.client.QueryAsync(dst, f.cat.PBW[3].Domain, func(m *dnswire.Message, from netip.Addr) {
			responders[from] = true
		})
	}
	f.eng.RunFor(2 * time.Second)
	if len(responders) != 1 || !responders[f.resolver.Addr()] {
		t.Errorf("responders = %v", responders)
	}
}

// The DNS tracer primitive: with poisoning (not injection), TTL-limited
// queries yield answers only when the TTL reaches the resolver itself.
func TestTTLProbePoisoningSignature(t *testing.T) {
	f := newFixture(t, 4)
	victim := f.cat.PBW[0]
	f.poison(victim.Domain, netip.MustParseAddr("10.1.255.1"))
	hops := f.net.HopsBetween(f.chost, f.resolver.Host())
	for ttl := 1; ttl < hops; ttl++ {
		if _, _, ok := f.client.TTLProbe(f.resolver.Addr(), victim.Domain, uint8(ttl), 300*time.Millisecond); ok {
			t.Errorf("ttl=%d: got a DNS answer before the final hop — looks like injection", ttl)
		}
	}
	m, from, ok := f.client.TTLProbe(f.resolver.Addr(), victim.Domain, uint8(hops), time.Second)
	if !ok {
		t.Fatal("no answer at full TTL")
	}
	if from != f.resolver.Addr() {
		t.Errorf("answer from %v, want resolver", from)
	}
	if len(m.Answers) != 1 {
		t.Errorf("answers = %v", m.Answers)
	}
}

func TestMismatchedIDIgnored(t *testing.T) {
	f := newFixture(t, 3)
	got := 0
	f.client.QueryAsync(f.resolver.Addr(), f.cat.PBW[0].Domain, func(m *dnswire.Message, from netip.Addr) { got++ })
	// Forge a response with the wrong transaction ID to the client's port.
	forged := dnswire.NewQuery(9999, f.cat.PBW[0].Domain).Answer(dnswire.RCodeNoError, 60, netip.MustParseAddr("6.6.6.6"))
	payload, _ := forged.Marshal()
	f.net.InjectAt(f.routers[1], netpkt.NewUDP(f.resolver.Addr(), f.chost.Addr(), &netpkt.UDPDatagram{
		SrcPort: 53, DstPort: 20000, Payload: payload,
	}))
	f.eng.RunFor(2 * time.Second)
	if got != 1 {
		t.Errorf("callbacks = %d, want 1 (forged ID must be ignored, real answer accepted)", got)
	}
}
