package probe

import (
	"net/netip"
	"time"

	"repro/internal/difflib"
	"repro/internal/httpwire"
	"repro/internal/ispnet"
	"repro/internal/netpkt"
	"repro/internal/tcpsim"
)

// HTTPDetection is the per-domain outcome of the paper's own detection
// pipeline (§3.1/§3.4): HTTP-diff against a Tor fetch with a 0.3
// threshold, followed by manual verification of everything over it.
type HTTPDetection struct {
	Domain        string
	Diff          float64
	OverThreshold bool
	// Blocked is the post-manual-verification verdict.
	Blocked bool
	// Notification/SignatureISP/Reset describe what manual inspection saw.
	Notification bool
	SignatureISP string
	Reset        bool
}

// DiffThreshold is the paper's HTTP-diff threshold.
const DiffThreshold = 0.3

// DetectHTTP runs the pipeline for one domain: fetch via Tor (ground
// path), fetch directly, compute the body diff, and — when over threshold
// — "manually" verify by refetching a few times and inspecting for actual
// censorship evidence (notification pages, mid-request resets, timeouts).
// Unlike OONI, an over-threshold diff alone never produces a verdict.
func (p *Probe) DetectHTTP(domain string) HTTPDetection {
	det := HTTPDetection{Domain: domain}
	tor, err := p.FetchViaTor(domain)
	if err != nil || len(tor.Responses) == 0 {
		// Unreachable even via Tor: excluded, like the paper's dead-site
		// filtering.
		return det
	}
	direct, err := p.FetchDirect(domain)
	if err != nil {
		// DNS failure locally: not an HTTP verdict.
		return det
	}
	det.Diff = 1 - difflib.RatioLines(string(direct.Body()), string(tor.Body()))
	if len(direct.Responses) == 0 {
		det.Diff = 1
	}
	det.OverThreshold = det.Diff >= DiffThreshold
	if !det.OverThreshold {
		return det
	}
	// Manual verification: retry and look for censorship evidence rather
	// than content drift (the step OONI skips, per §6.2).
	for attempt := 0; attempt < p.attempts(3); attempt++ {
		r, err := p.FetchDirect(domain)
		if err != nil {
			continue
		}
		if censored, mech := r.CensorVerdict(); censored {
			det.Blocked = true
			det.Notification = mech == MechNotification
			det.SignatureISP = r.SignatureISP
			det.Reset = mech == MechReset
			return det
		}
	}
	return det
}

// DetectTCP is the paper's crude TCP/IP-filtering test (§3.3): if the
// 3-way handshake works via Tor but five direct attempts spaced ~2s apart
// all fail, the address is TCP/IP filtered. The paper never observed this
// in any ISP; neither does the reproduction.
func (p *Probe) DetectTCP(domain string) bool {
	addrs, err := p.ResolveViaTor(domain)
	if err != nil {
		return false
	}
	addr := addrs[0]
	torConn, err := connEstablish(p.World.TorExit, addr, p.Timeout)
	if err != nil {
		return false // not reachable at all: no verdict
	}
	torConn.Abort()
	for i := 0; i < 5; i++ {
		c, err := connEstablish(p.ISP.Client, addr, p.Timeout)
		if err == nil {
			c.Abort()
			return false
		}
		p.World.Eng.RunFor(2 * time.Second)
	}
	return true
}

// TriggerReport is the outcome of the §3.4 trigger-localization
// experiments against one censored domain.
type TriggerReport struct {
	Domain string
	// CensoredAtTTLBelowServer: the GET that never reaches the site still
	// drew a censorship response (rules out response-triggered boxes).
	CensoredAtTTLBelowServer bool
	// CensoredAtFullTTL: the normally-delivered GET drew one too.
	CensoredAtFullTTL bool
	// HostCaseEvades: "HOst:" passed the box but the server answered —
	// with the above, this pins possibility 1 (request-only inspection).
	HostCaseEvades bool
	// HostFieldOnly: the censored domain elsewhere in the request (URL
	// path, other headers) does not trigger; only the Host field does.
	HostFieldOnly bool
	// Statefulness (§4.2.1 caveat): no trigger without a complete
	// observed handshake, and state expires after a few idle minutes.
	SYNOnlyTriggers         bool
	NoHandshakeTriggers     bool
	HandshakeThenTriggers   bool
	StateExpiresAfterIdle   bool
	StateRefreshedByTraffic bool
}

// censoredOutcome recognizes a censorship response on a connection,
// matching notification markers against the world's own catalogue.
func (p *Probe) censoredOutcome(c *tcpsim.Conn) bool {
	if _, reset := c.WasReset(); reset && len(c.Stream()) == 0 {
		return true
	}
	if c.PeerClosed() && len(c.Stream()) > 0 {
		if _, ok := MatchSignatureIn(p.World, c.Stream()); ok {
			return true
		}
		// FIN-bearing response without any known marker still counts when
		// it is not a well-formed 404/200 from the site (covert pages).
	}
	return false
}

// TriggerExperiments runs the full §3.4/§4.2.1 battery against a censored
// domain. dst should be the site's real address (resolved via Tor).
func (p *Probe) TriggerExperiments(domain string, dst netip.Addr) *TriggerReport {
	rep := &TriggerReport{Domain: domain}
	ep := p.ISP.Client
	eng := p.World.Eng
	n := Traceroute(ep, dst, 30, p.Timeout/4).N
	if n == 0 {
		n = 10
	}
	get := httpwire.NewGET("/").Header("Host", domain).Bytes()

	// Paired-TTL experiment: TTL n-1 (never reaches the site, same
	// sequence position) then TTL n on a fresh connection.
	if c, err := connEstablish(ep, dst, p.Timeout); err == nil {
		c.SendRaw(get, tcpsim.RawOpts{TTL: uint8(n - 1)})
		eng.RunFor(p.Timeout)
		rep.CensoredAtTTLBelowServer = p.censoredOutcome(c)
		c.Abort()
	}
	if c, err := connEstablish(ep, dst, p.Timeout); err == nil {
		c.SendRaw(get, tcpsim.RawOpts{Advance: true})
		eng.RunFor(p.Timeout)
		rep.CensoredAtFullTTL = p.censoredOutcome(c)
		c.Abort()
	}

	// Host-case mutation: box misses, RFC 2616 server answers.
	if c, err := connEstablish(ep, dst, p.Timeout); err == nil {
		c.Send(httpwire.NewGET("/").RawLine("HOst: " + domain).Bytes())
		eng.RunFor(p.Timeout)
		rep.HostCaseEvades = !p.censoredOutcome(c) && len(c.Stream()) > 0
		c.Abort()
	}

	// Offset fudging: censored domain in the path and a custom header,
	// Host pointing at an uncensored name; TTL stops short of the server
	// so any response is the middlebox's.
	fudged := httpwire.NewGET("/"+domain).
		Header("Host", "popular-0000.com").
		Header("X-Pad", domain).
		Bytes()
	if c, err := connEstablish(ep, dst, p.Timeout); err == nil {
		c.SendRaw(fudged, tcpsim.RawOpts{TTL: uint8(n - 1)})
		eng.RunFor(p.Timeout)
		rep.HostFieldOnly = !p.censoredOutcome(c)
		c.Abort()
	}

	// Statefulness battery with raw packets that expire at the
	// penultimate hop (past any middlebox, short of the server).
	raw := func(seg *netpkt.TCPSegment) *tcpsim.Conn {
		pkt := rawTCP(ep, dst, seg, uint8(n-1))
		ep.Host.Send(pkt)
		eng.RunFor(p.Timeout / 2)
		return nil
	}
	ep.Host.StartInboundCapture()
	raw(&netpkt.TCPSegment{SrcPort: 47001, DstPort: 80, Seq: 9000, Flags: netpkt.SYN, Window: 65535})
	raw(&netpkt.TCPSegment{SrcPort: 47001, DstPort: 80, Seq: 9001, Ack: 1, Flags: netpkt.PSH | netpkt.ACK, Payload: get})
	rep.SYNOnlyTriggers = capturedCensorship(ep, 47001)
	ep.Host.StopCapture()

	ep.Host.StartInboundCapture()
	raw(&netpkt.TCPSegment{SrcPort: 47002, DstPort: 80, Seq: 9500, Ack: 1, Flags: netpkt.PSH | netpkt.ACK, Payload: get})
	rep.NoHandshakeTriggers = capturedCensorship(ep, 47002)
	ep.Host.StopCapture()

	// Control: a real handshake followed by the GET must trigger.
	if c, err := connEstablish(ep, dst, p.Timeout); err == nil {
		c.SendRaw(get, tcpsim.RawOpts{TTL: uint8(n - 1)})
		eng.RunFor(p.Timeout)
		rep.HandshakeThenTriggers = p.censoredOutcome(c)
		c.Abort()
	}

	// Idle state expiry (paper: 2-3 minutes) and refresh.
	if c, err := connEstablish(ep, dst, p.Timeout); err == nil {
		eng.RunFor(4 * time.Minute)
		c.SendRaw(get, tcpsim.RawOpts{Advance: true})
		eng.RunFor(p.Timeout)
		rep.StateExpiresAfterIdle = !p.censoredOutcome(c)
		c.Abort()
	}
	if c, err := connEstablish(ep, dst, p.Timeout); err == nil {
		for i := 0; i < 4; i++ {
			eng.RunFor(time.Minute)
			c.SendRaw([]byte("X"), tcpsim.RawOpts{Advance: true})
		}
		c.SendRaw(get, tcpsim.RawOpts{Advance: true})
		eng.RunFor(p.Timeout)
		rep.StateRefreshedByTraffic = p.censoredOutcome(c)
		c.Abort()
	}
	return rep
}

// NoHandshakeTriggers injects a lone PSH GET for domain toward dst on a
// flow the network never saw handshake, with a TTL that expires at hop
// pathHops-1 (one short of the server, past any middlebox) so that any
// FIN/RST coming back is a middlebox's own. It reports whether the
// un-handshaked request still drew a censorship-style teardown — false
// for the stateful boxes of §4.2.1, which track handshakes before
// matching. pathHops comes from a prior traceroute; values below 2
// cannot isolate the box and report false.
func (p *Probe) NoHandshakeTriggers(domain string, dst netip.Addr, pathHops int) bool {
	if pathHops < 2 {
		return false
	}
	ep := p.ISP.Client
	get := httpwire.NewGET("/").Header("Host", domain).Bytes()
	ep.Host.StartInboundCapture()
	defer ep.Host.StopCapture()
	ep.Host.Send(rawTCP(ep, dst, &netpkt.TCPSegment{
		SrcPort: 47101, DstPort: 80, Seq: 9500, Ack: 1,
		Flags: netpkt.PSH | netpkt.ACK, Payload: get, Window: 65535,
	}, uint8(pathHops-1)))
	p.World.Eng.RunFor(p.Timeout / 2)
	return capturedCensorship(ep, 47101)
}

// capturedCensorship looks for a censorship-looking TCP response to the
// given raw source port in the endpoint's capture. Only inbound packets
// are addressed to that port, so an inbound-only window suffices.
func capturedCensorship(ep *ispnet.Endpoint, srcPort uint16) bool {
	for _, rec := range ep.Host.Captures() {
		if rec.Pkt.TCP == nil || rec.Pkt.TCP.DstPort != srcPort {
			continue
		}
		if rec.Pkt.TCP.Flags.Has(netpkt.FIN) || rec.Pkt.TCP.Flags.Has(netpkt.RST) {
			return true
		}
	}
	return false
}

// BoxClassification is the remote-controlled-host experiment of §4.2.1
// distinguishing wiretap from interceptive middleboxes.
type BoxClassification struct {
	// ClientSawCensorship: the crafted GET drew a censorship response.
	ClientSawCensorship bool
	// RemoteGotRequest: the GET reached the remote server (wiretap boxes
	// only copy traffic; interceptive boxes consume it).
	RemoteGotRequest bool
	// RemoteGotForeignRST: the remote server received a RST whose
	// sequence number differs from anything the client sent (the
	// interceptive box's own teardown).
	RemoteGotForeignRST bool
	// RendersSometimes: repeated fetches of a blocked domain sometimes
	// deliver real content (the wiretap race, ~3 in 10 in the paper).
	RendersSometimes bool
	// Type is the verdict: "wiretap", "interceptive" or "unknown".
	Type string
}

// ClassifyMiddlebox runs the remote-host experiment: the client sends a
// censored GET to a server under our control and both ends observe.
func (p *Probe) ClassifyMiddlebox(domain string, remote *ispnet.Endpoint, attempts int) *BoxClassification {
	out := &BoxClassification{}
	eng := p.World.Eng
	sawContent := false
	for i := 0; i < attempts; i++ {
		before := remote.Server.Requests
		remote.Host.StartCapture()
		c, err := connEstablish(p.ISP.Client, remote.Addr(), p.Timeout)
		if err != nil {
			continue
		}
		c.Send(httpwire.NewGET("/").Header("Host", domain).Bytes())
		eng.RunFor(p.Timeout)
		clientRSTSeq := c.SndNxt()
		if p.censoredOutcome(c) {
			out.ClientSawCensorship = true
		} else if len(c.Stream()) > 0 {
			sawContent = true
		}
		if remote.Server.Requests > before {
			out.RemoteGotRequest = true
		}
		for _, rec := range remote.Host.StopCapture() {
			if rec.Pkt.TCP != nil && rec.Pkt.TCP.Flags.Has(netpkt.RST) &&
				rec.Pkt.IP.Src == p.ISP.Client.Addr() && rec.Pkt.TCP.Seq != clientRSTSeq {
				out.RemoteGotForeignRST = true
			}
		}
		if !c.Dead() {
			c.Abort()
			eng.RunFor(10 * time.Millisecond)
		}
	}
	// "Renders sometimes" is meaningful only when censorship was also
	// observed: it is the wiretap race, not an unfiltered path.
	out.RendersSometimes = out.ClientSawCensorship && sawContent
	switch {
	case out.ClientSawCensorship && out.RemoteGotRequest:
		out.Type = "wiretap"
	case out.ClientSawCensorship && !out.RemoteGotRequest:
		out.Type = "interceptive"
	default:
		out.Type = "unknown"
	}
	return out
}
