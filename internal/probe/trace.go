package probe

import (
	"net/netip"
	"time"

	"repro/internal/httpwire"
	"repro/internal/ispnet"
	"repro/internal/netpkt"
	"repro/internal/tcpsim"
)

// Hop is one traceroute hop. Asterisked hops sent no ICMP within the
// per-TTL wait — in the paper's data these are the anonymized routers that
// middleboxes sit behind (§6.1).
type Hop struct {
	TTL      int
	Addr     netip.Addr
	Asterisk bool
}

// TracerouteResult is a full route measurement.
type TracerouteResult struct {
	Dst  netip.Addr
	Hops []Hop
	// N is the paper's hop count to the destination host (0 if the
	// destination never answered).
	N int
}

// Traceroute measures the router path from an endpoint to dst using
// TCP-SYN probes against port 80, one TTL at a time.
func Traceroute(ep *ispnet.Endpoint, dst netip.Addr, maxTTL int, perHop time.Duration) *TracerouteResult {
	res := &TracerouteResult{Dst: dst}
	eng := ep.Host.Engine()
	for ttl := 1; ttl <= maxTTL; ttl++ {
		srcPort := uint16(33434 + ttl)
		ep.Host.StartInboundCapture()
		probe := rawTCP(ep, dst, &netpkt.TCPSegment{
			SrcPort: srcPort, DstPort: 80,
			Seq: uint32(0x51e00000 + ttl), Flags: netpkt.SYN, Window: 65535,
		}, uint8(ttl))
		ep.Host.Send(probe)
		eng.RunFor(perHop)
		hop := Hop{TTL: ttl, Asterisk: true}
		reached := false
		for _, rec := range ep.Host.StopCapture() {
			switch {
			case rec.Pkt.ICMP != nil && rec.Pkt.ICMP.Type == netpkt.ICMPTimeExceeded:
				if fk, ok := rec.Pkt.ICMP.OriginalFlow(); ok && fk.SrcPort == srcPort {
					hop.Addr = rec.Pkt.IP.Src
					hop.Asterisk = false
				}
			case rec.Pkt.TCP != nil && rec.Pkt.IP.Src == dst && rec.Pkt.TCP.DstPort == srcPort:
				// SYN+ACK or RST from the destination host itself.
				reached = true
			}
		}
		if reached {
			res.N = ttl
			return res
		}
		res.Hops = append(res.Hops, hop)
	}
	return res
}

// IterTraceResult is the output of the Iterative Network Tracer (Figure 1):
// per-TTL observations against a censored request.
type IterTraceResult struct {
	Domain string
	Dst    netip.Addr
	// CensorHop is the first TTL at which a censorship response appeared
	// (0 = never).
	CensorHop int
	// Covert is true when the censorship response was a bare RST rather
	// than a notification page.
	Covert bool
	// SignatureISP attributes the notification content, when overt.
	SignatureISP string
	// ICMPAt records which TTLs produced ICMP Time Exceeded (visible
	// routers); absent TTLs below CensorHop are the anonymized ones.
	ICMPAt map[int]netip.Addr
	// TraceHops is the plain traceroute measurement of the same path.
	TraceHops []Hop
	// TotalHops is the traceroute hop count to the destination.
	TotalHops int
}

// IterativeTraceHTTP runs the HTTP variant of the Iterative Network
// Tracer: a fresh TCP connection per TTL, then one crafted GET for the
// censored domain with that TTL. The hop where the censorship
// notification-cum-disconnection first appears locates the middlebox.
func IterativeTraceHTTP(ep *ispnet.Endpoint, dst netip.Addr, domain string, timeout time.Duration) *IterTraceResult {
	res := &IterTraceResult{Domain: domain, Dst: dst, ICMPAt: map[int]netip.Addr{}}
	eng := ep.Host.Engine()
	tr := Traceroute(ep, dst, 30, timeout/4)
	res.TotalHops = tr.N
	res.TraceHops = tr.Hops
	maxTTL := tr.N
	if maxTTL == 0 {
		maxTTL = 12
	}
	req := httpwire.NewGET("/").Header("Host", domain).Bytes()
	for ttl := 1; ttl <= maxTTL; ttl++ {
		c, err := connEstablish(ep, dst, timeout)
		if err != nil {
			// Connection no longer possible (e.g. interceptive box
			// blackholed earlier flows keyed differently — should not
			// happen with fresh ports, but stay robust).
			continue
		}
		ep.Host.StartInboundCapture()
		c.SendRaw(req, tcpsim.RawOpts{TTL: uint8(ttl), Advance: true})
		eng.RunFor(timeout / 2)
		censored := false
		if _, reset := c.WasReset(); reset && len(c.Stream()) == 0 {
			censored = true
			res.Covert = true
		}
		if c.PeerClosed() && len(c.Stream()) > 0 {
			censored = true
			if isp, ok := MatchSignatureIn(ep.World, c.Stream()); ok {
				res.SignatureISP = isp
			}
		}
		for _, rec := range ep.Host.StopCapture() {
			if rec.Pkt.ICMP != nil && rec.Pkt.ICMP.Type == netpkt.ICMPTimeExceeded {
				if _, seen := res.ICMPAt[ttl]; !seen {
					res.ICMPAt[ttl] = rec.Pkt.IP.Src
				}
			}
		}
		if !c.Dead() {
			c.Abort()
			eng.RunFor(10 * time.Millisecond)
		}
		if censored {
			res.CensorHop = ttl
			return res
		}
	}
	return res
}

// DNSTraceResult is the DNS variant's output: whether manipulated answers
// come from mid-path (injection) or only the final hop (poisoning).
type DNSTraceResult struct {
	Resolver netip.Addr
	Domain   string
	// AnswerHop is the first TTL at which a DNS answer arrived.
	AnswerHop int
	// ResolverHop is the TTL of the resolver itself.
	ResolverHop int
	// Injected is true when an answer appeared before the final hop.
	Injected bool
}

// IterativeTraceDNS runs the DNS variant of the tracer against one
// censored domain and resolver. The paper ran exactly this to conclude
// that Indian DNS censorship is resolver poisoning, not on-path injection
// ("in all our tests we received manipulated IP addresses from the last
// hop only").
func IterativeTraceDNS(ep *ispnet.Endpoint, resolver netip.Addr, domain string, timeout time.Duration) *DNSTraceResult {
	res := &DNSTraceResult{Resolver: resolver, Domain: domain}
	// Router-level path to the resolver first (as in §3.2).
	hostsNet := ep.Host.Network()
	rh, ok := hostsNet.Host(resolver)
	if !ok {
		return res
	}
	res.ResolverHop = hostsNet.HopsBetween(ep.Host, rh)
	for ttl := 1; ttl <= res.ResolverHop; ttl++ {
		if _, _, ok := ep.DNS.TTLProbe(resolver, domain, uint8(ttl), timeout/2); ok {
			res.AnswerHop = ttl
			res.Injected = ttl < res.ResolverHop
			return res
		}
	}
	return res
}
