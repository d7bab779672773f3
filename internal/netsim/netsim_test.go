package netsim

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netpkt"
	"repro/internal/sim"
)

func addr(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

// lineNetwork builds client - r0 - r1 - ... - r(k-1) - server.
func lineNetwork(t testing.TB, k int) (*sim.Engine, *Network, *Host, *Host, []*Router) {
	t.Helper()
	eng := sim.NewEngine(1)
	n := New(eng)
	routers := make([]*Router, k)
	for i := 0; i < k; i++ {
		routers[i] = n.AddRouter("r", 100, addr(100, 64, byte(i), 1))
		if i > 0 {
			n.Link(routers[i-1], routers[i], time.Millisecond)
		}
	}
	client := n.AddHost(addr(10, 0, 0, 2), routers[0], time.Millisecond)
	server := n.AddHost(addr(203, 0, 113, 80), routers[k-1], time.Millisecond)
	n.Build()
	return eng, n, client, server, routers
}

func TestDelivery(t *testing.T) {
	eng, _, client, server, _ := lineNetwork(t, 4)
	var got *netpkt.Packet
	server.SetUDPHandler(53, func(p *netpkt.Packet) { got = p })
	pkt := netpkt.NewUDP(client.Addr(), server.Addr(), &netpkt.UDPDatagram{SrcPort: 9999, DstPort: 53, Payload: []byte("q")})
	client.Send(pkt)
	eng.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.IP.TTL != 64-4 {
		t.Errorf("TTL at delivery = %d, want 60 (4 router hops)", got.IP.TTL)
	}
}

func TestHopsBetween(t *testing.T) {
	_, n, client, server, _ := lineNetwork(t, 4)
	if h := n.HopsBetween(client, server); h != 5 {
		t.Errorf("hops = %d, want 5 (4 routers + host)", h)
	}
}

func TestTTLExpiryICMP(t *testing.T) {
	for ttl := 1; ttl <= 4; ttl++ {
		eng, _, client, server, routers := lineNetwork(t, 4)
		var icmp *netpkt.Packet
		client.SetICMPHandler(func(p *netpkt.Packet) { icmp = p })
		pkt := netpkt.NewUDP(client.Addr(), server.Addr(), &netpkt.UDPDatagram{SrcPort: 40000, DstPort: 53})
		pkt.IP.TTL = uint8(ttl)
		client.Send(pkt)
		eng.Run()
		if icmp == nil {
			t.Fatalf("ttl=%d: no ICMP received", ttl)
		}
		if icmp.ICMP.Type != netpkt.ICMPTimeExceeded {
			t.Fatalf("ttl=%d: got %v", ttl, icmp.ICMP.Kind())
		}
		if icmp.IP.Src != routers[ttl-1].Addr {
			t.Errorf("ttl=%d: ICMP from %v, want router %d (%v)", ttl, icmp.IP.Src, ttl-1, routers[ttl-1].Addr)
		}
		fk, ok := icmp.ICMP.OriginalFlow()
		if !ok || fk.SrcPort != 40000 {
			t.Errorf("ttl=%d: original flow not recoverable: %v", ttl, fk)
		}
	}
}

func TestTTLJustEnoughDelivers(t *testing.T) {
	eng, _, client, server, _ := lineNetwork(t, 4)
	delivered := false
	server.SetUDPHandler(53, func(p *netpkt.Packet) { delivered = true })
	pkt := netpkt.NewUDP(client.Addr(), server.Addr(), &netpkt.UDPDatagram{SrcPort: 1, DstPort: 53})
	pkt.IP.TTL = 5 // hops n = 5 reaches the host; n-1 = 4 dies at last router
	client.Send(pkt)
	eng.Run()
	if !delivered {
		t.Error("TTL=n packet should reach the destination host")
	}
}

func TestAnonymizedRouterSilent(t *testing.T) {
	eng, _, client, server, routers := lineNetwork(t, 4)
	routers[1].Anonymized = true
	var icmp *netpkt.Packet
	client.SetICMPHandler(func(p *netpkt.Packet) { icmp = p })
	pkt := netpkt.NewUDP(client.Addr(), server.Addr(), &netpkt.UDPDatagram{SrcPort: 1, DstPort: 53})
	pkt.IP.TTL = 2
	client.Send(pkt)
	eng.Run()
	if icmp != nil {
		t.Error("anonymized router should not emit ICMP")
	}
}

type recordingTap struct{ seen []netpkt.FlowKey }

func (rt *recordingTap) Observe(p *netpkt.Packet, at *Router) { rt.seen = append(rt.seen, p.Flow()) }

func TestTapSeesBothDirections(t *testing.T) {
	eng, _, client, server, routers := lineNetwork(t, 4)
	tap := &recordingTap{}
	routers[2].AttachTap(tap)
	server.SetUDPHandler(53, func(p *netpkt.Packet) {
		reply := netpkt.NewUDP(server.Addr(), client.Addr(), &netpkt.UDPDatagram{SrcPort: 53, DstPort: p.UDP.SrcPort, Payload: []byte("r")})
		server.Send(reply)
	})
	client.Send(netpkt.NewUDP(client.Addr(), server.Addr(), &netpkt.UDPDatagram{SrcPort: 7777, DstPort: 53, Payload: []byte("q")}))
	eng.Run()
	if len(tap.seen) != 2 {
		t.Fatalf("tap saw %d packets, want 2 (both directions)", len(tap.seen))
	}
	if tap.seen[0].Reverse() != tap.seen[1] {
		t.Errorf("tap flows not symmetric: %v vs %v", tap.seen[0], tap.seen[1])
	}
}

type consumeInline struct{ n int }

func (ci *consumeInline) Process(p *netpkt.Packet, at *Router) bool {
	ci.n++
	return p.UDP != nil && p.UDP.DstPort == 53
}

func TestInlineConsumes(t *testing.T) {
	eng, _, client, server, routers := lineNetwork(t, 4)
	ci := &consumeInline{}
	routers[1].AttachInline(ci)
	delivered := 0
	server.SetUDPHandler(53, func(p *netpkt.Packet) { delivered++ })
	server.SetUDPHandler(54, func(p *netpkt.Packet) { delivered++ })
	client.Send(netpkt.NewUDP(client.Addr(), server.Addr(), &netpkt.UDPDatagram{SrcPort: 1, DstPort: 53}))
	client.Send(netpkt.NewUDP(client.Addr(), server.Addr(), &netpkt.UDPDatagram{SrcPort: 1, DstPort: 54}))
	eng.Run()
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1 (port-53 packet consumed inline)", delivered)
	}
	if ci.n != 2 {
		t.Errorf("inline saw %d packets, want 2", ci.n)
	}
}

// Inline elements must see matching packets even when the TTL expires at
// their hop — this is how the iterative tracer elicits a censorship
// response instead of ICMP at the middlebox hop.
func TestInlineBeforeTTLExpiry(t *testing.T) {
	eng, _, client, server, routers := lineNetwork(t, 4)
	ci := &consumeInline{}
	routers[1].AttachInline(ci)
	var icmp *netpkt.Packet
	client.SetICMPHandler(func(p *netpkt.Packet) { icmp = p })
	pkt := netpkt.NewUDP(client.Addr(), server.Addr(), &netpkt.UDPDatagram{SrcPort: 1, DstPort: 53})
	pkt.IP.TTL = 2 // would expire exactly at routers[1]
	client.Send(pkt)
	eng.Run()
	if ci.n != 1 {
		t.Error("inline did not see the expiring packet")
	}
	if icmp != nil {
		t.Error("consumed packet must not also produce ICMP")
	}
}

func TestInjectAt(t *testing.T) {
	eng, n, client, _, routers := lineNetwork(t, 4)
	var got *netpkt.Packet
	client.SetUDPHandler(1234, func(p *netpkt.Packet) { got = p })
	forged := netpkt.NewUDP(addr(203, 0, 113, 80), client.Addr(), &netpkt.UDPDatagram{SrcPort: 53, DstPort: 1234, Payload: []byte("forged")})
	n.InjectAt(routers[2], forged)
	eng.Run()
	if got == nil {
		t.Fatal("injected packet not delivered")
	}
	if got.IP.Src != addr(203, 0, 113, 80) {
		t.Errorf("forged source lost: %v", got.IP.Src)
	}
}

func TestPathSymmetry(t *testing.T) {
	// Diamond topology with an equal-cost tie: a-b1-c and a-b2-c.
	eng := sim.NewEngine(1)
	n := New(eng)
	a := n.AddRouter("a", 1, addr(100, 0, 0, 1))
	b1 := n.AddRouter("b1", 1, addr(100, 0, 0, 2))
	b2 := n.AddRouter("b2", 1, addr(100, 0, 0, 3))
	c := n.AddRouter("c", 1, addr(100, 0, 0, 4))
	n.Link(a, b1, time.Millisecond)
	n.Link(a, b2, time.Millisecond)
	n.Link(b1, c, time.Millisecond)
	n.Link(b2, c, time.Millisecond)
	n.Build()
	fwd := n.PathRouters(a, c)
	rev := n.PathRouters(c, a)
	if len(fwd) != 3 || len(rev) != 3 {
		t.Fatalf("path lengths: %d, %d", len(fwd), len(rev))
	}
	for i := range fwd {
		if fwd[i] != rev[len(rev)-1-i] {
			t.Fatalf("paths not symmetric: %v vs %v", fwd, rev)
		}
	}
}

func TestDisconnectedDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	r1 := n.AddRouter("r1", 1, addr(100, 0, 0, 1))
	r2 := n.AddRouter("r2", 2, addr(100, 0, 0, 2)) // no link
	h1 := n.AddHost(addr(10, 0, 0, 1), r1, time.Millisecond)
	n.AddHost(addr(10, 0, 1, 1), r2, time.Millisecond)
	n.Build()
	h1.Send(netpkt.NewUDP(h1.Addr(), addr(10, 0, 1, 1), &netpkt.UDPDatagram{SrcPort: 1, DstPort: 2}))
	eng.Run()
	if n.Drops != 1 {
		t.Errorf("Drops = %d, want 1", n.Drops)
	}
}

// A policy that names a router with no link to it is a wiring bug:
// forwarding must panic, not invent a latency.
func TestPolicyToUnlinkedRouterPanics(t *testing.T) {
	eng, _, client, server, routers := lineNetwork(t, 3)
	routers[0].SetPolicy(func(netip.Addr) (*Router, bool) { return routers[2], true })
	client.Send(netpkt.NewUDP(client.Addr(), server.Addr(), &netpkt.UDPDatagram{SrcPort: 1, DstPort: 2}))
	defer func() {
		if recover() == nil {
			t.Error("forwarding across a missing link must panic")
		}
	}()
	eng.Run()
}

func TestDeadPrefixAddressDrops(t *testing.T) {
	eng, n, client, _, routers := lineNetwork(t, 4)
	n.ClaimPrefix(netip.MustParsePrefix("203.0.114.0/24"), routers[3])
	n.Build()
	client.Send(netpkt.NewUDP(client.Addr(), addr(203, 0, 114, 77), &netpkt.UDPDatagram{SrcPort: 1, DstPort: 53}))
	eng.Run()
	if n.Drops != 1 {
		t.Errorf("Drops = %d, want 1 (dead IP in claimed prefix)", n.Drops)
	}
}

func TestASNOf(t *testing.T) {
	_, n, client, server, routers := lineNetwork(t, 4)
	n.ClaimPrefix(netip.MustParsePrefix("203.0.114.0/24"), routers[3])
	if n.ASNOf(client.Addr()) != 100 || n.ASNOf(server.Addr()) != 100 {
		t.Error("host ASN lookup failed")
	}
	if n.ASNOf(addr(203, 0, 114, 9)) != 100 {
		t.Error("prefix ASN lookup failed")
	}
	if n.ASNOf(addr(8, 8, 8, 8)) != 0 {
		t.Error("unrouted address should have ASN 0")
	}
}

// Regression for the IPv4 host index: a host removed with RemoveHost (the
// bridge's DetachBridgeHost) stops being found by Host and ASNOf, packets
// to its address fall back to prefix routing and die as a dead IP, and
// the address can be seated again.
func TestRemoveHostFallsBackToPrefix(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng)
	r0 := n.AddRouter("r0", 1, addr(100, 0, 0, 1))
	r1 := n.AddRouter("r1", 2, addr(100, 0, 0, 2))
	n.Link(r0, r1, time.Millisecond)
	n.ClaimPrefix(netip.MustParsePrefix("10.0.0.0/24"), r0)
	server := n.AddHost(addr(203, 0, 113, 80), r0, time.Millisecond)
	n.Build()

	bridgeAddr := addr(10, 0, 0, 210)
	send := func() {
		server.Send(netpkt.NewUDP(server.Addr(), bridgeAddr, &netpkt.UDPDatagram{SrcPort: 1, DstPort: 53}))
		eng.Run()
	}
	seat := func() (*Host, *int) {
		h := n.AddHost(bridgeAddr, r1, time.Millisecond) // seated after Build, like a bridge host
		got := new(int)
		h.SetUDPHandler(53, func(*netpkt.Packet) { *got++ })
		return h, got
	}

	h, got := seat()
	if found, ok := n.Host(bridgeAddr); !ok || found != h {
		t.Fatalf("Host(%v) = %v, %v; want the seated host", bridgeAddr, found, ok)
	}
	if asn := n.ASNOf(bridgeAddr); asn != 2 {
		t.Errorf("ASNOf(seated) = %d, want 2 (the host's router)", asn)
	}
	send()
	if *got != 1 || n.Drops != 0 {
		t.Fatalf("seated host: delivered %d, drops %d; want 1, 0", *got, n.Drops)
	}

	n.RemoveHost(h)
	if found, ok := n.Host(bridgeAddr); ok || found != nil {
		t.Errorf("Host(%v) after RemoveHost = %v, %v; want nil, false", bridgeAddr, found, ok)
	}
	if asn := n.ASNOf(bridgeAddr); asn != 1 {
		t.Errorf("ASNOf(removed) = %d, want 1 (the claimed prefix)", asn)
	}
	if p := n.PathHostToAddr(server, bridgeAddr); len(p) != 1 || p[0] != r0 {
		t.Errorf("path to removed host = %v, want [r0] (the prefix's home)", p)
	}
	send()
	if *got != 1 || n.Drops != 1 {
		t.Errorf("removed host: delivered %d, drops %d; want 1, 1 (dead-IP drop)", *got, n.Drops)
	}

	_, again := seat()
	send()
	if *again != 1 {
		t.Errorf("re-seated host: delivered %d, want 1", *again)
	}
}

func TestAddHostRejectsIPv6(t *testing.T) {
	n := New(sim.NewEngine(1))
	r := n.AddRouter("r", 1, addr(100, 0, 0, 1))
	defer func() {
		if recover() == nil {
			t.Error("AddHost with an IPv6 address should panic: hosts are indexed by IPv4")
		}
	}()
	n.AddHost(netip.MustParseAddr("2001:db8::1"), r, time.Millisecond)
}

func TestIngressFilterDrops(t *testing.T) {
	eng, _, client, server, _ := lineNetwork(t, 4)
	got := 0
	client.SetUDPHandler(99, func(p *netpkt.Packet) { got++ })
	client.SetIngressFilter(func(raw []byte, p *netpkt.Packet) bool {
		return p.UDP == nil || string(p.UDP.Payload) != "evil"
	})
	server.Send(netpkt.NewUDP(server.Addr(), client.Addr(), &netpkt.UDPDatagram{SrcPort: 1, DstPort: 99, Payload: []byte("evil")}))
	server.Send(netpkt.NewUDP(server.Addr(), client.Addr(), &netpkt.UDPDatagram{SrcPort: 1, DstPort: 99, Payload: []byte("good")}))
	eng.Run()
	if got != 1 {
		t.Errorf("delivered %d, want 1 (filter drops 'evil')", got)
	}
}

func TestCapture(t *testing.T) {
	eng, _, client, server, _ := lineNetwork(t, 4)
	server.SetUDPHandler(53, func(p *netpkt.Packet) {
		server.Send(netpkt.NewUDP(server.Addr(), client.Addr(), &netpkt.UDPDatagram{SrcPort: 53, DstPort: p.UDP.SrcPort}))
	})
	client.StartCapture()
	client.Send(netpkt.NewUDP(client.Addr(), server.Addr(), &netpkt.UDPDatagram{SrcPort: 5000, DstPort: 53}))
	eng.Run()
	cap := client.StopCapture()
	if len(cap) != 2 {
		t.Fatalf("captured %d, want 2", len(cap))
	}
	if cap[0].Dir != DirOut || cap[1].Dir != DirIn {
		t.Errorf("directions: %v %v", cap[0].Dir, cap[1].Dir)
	}
	if cap[1].At <= cap[0].At {
		t.Error("capture timestamps not increasing")
	}
}

// Property: on random connected graphs, every router pair routes
// symmetrically and paths terminate, and a packet between hosts on any two
// routers crosses exactly the canonical path.
func TestPropertyRandomTopologySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		eng := sim.NewEngine(seed)
		n := New(eng)
		rng := eng.Rand()
		R := 3 + rng.Intn(12)
		rs := make([]*Router, R)
		hosts := make([]*Host, R)
		var crossed []*Router
		for i := range rs {
			rs[i] = n.AddRouter("r", 1, addr(100, 1, byte(i), 1))
			hosts[i] = n.AddHost(addr(10, 1, byte(i), 2), rs[i], time.Millisecond)
			rs[i].AttachTap(tapFunc(func(_ *netpkt.Packet, at *Router) { crossed = append(crossed, at) }))
			if i > 0 {
				n.Link(rs[rng.Intn(i)], rs[i], time.Millisecond) // spanning tree
			}
		}
		for e := 0; e < R/2; e++ { // extra edges
			a, b := rng.Intn(R), rng.Intn(R)
			if a != b {
				n.Link(rs[a], rs[b], time.Millisecond)
			}
		}
		n.Build()
		samePath := func(a, b []*Router) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if a[k] != b[k] {
					return false
				}
			}
			return true
		}
		for i := 0; i < R; i++ {
			for j := i + 1; j < R; j++ {
				fwd := n.PathRouters(rs[i], rs[j])
				rev := n.PathRouters(rs[j], rs[i])
				if fwd == nil || rev == nil || len(fwd) != len(rev) {
					return false
				}
				for k := range fwd {
					if fwd[k] != rev[len(rev)-1-k] {
						return false
					}
				}
				for _, dir := range [][2]int{{i, j}, {j, i}} {
					crossed = crossed[:0]
					src, dst := hosts[dir[0]], hosts[dir[1]]
					src.Send(netpkt.NewUDP(src.Addr(), dst.Addr(), &netpkt.UDPDatagram{SrcPort: 1, DstPort: 2}))
					eng.Run()
					if !samePath(crossed, n.PathRouters(rs[dir[0]], rs[dir[1]])) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
