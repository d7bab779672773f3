// Package probe implements the paper's measurement toolkit — the primary
// contribution of the reproduction. It contains the semi-automatic
// detection pipeline the authors built after abandoning OONI (§3), the
// Iterative Network Tracer (Figure 1) in both its HTTP and DNS variants,
// the trigger-localization experiments of §3.4/§4.2.1, the coverage and
// consistency metrics of §4, and the collateral-damage attribution of §4.3.
//
// The probe deliberately uses only what a real measurement client can see:
// packets on its own host, responses from the network, and fetches through
// a Tor-like uncensored vantage. Ground truth (the ispnet oracle) is used
// only by the accuracy evaluation, never by the detectors.
package probe

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/httpwire"
	"repro/internal/ispnet"
	"repro/internal/netpkt"
	"repro/internal/tcpsim"
	"repro/internal/websim"
)

// KnownSignatures are the notification fingerprints the study catalogued
// (§6.1), e.g. Airtel's embedded iframe pointing at airtel.in/dot.
var KnownSignatures = []ispnet.NotifSignature{
	{ISP: "Airtel", Marker: "airtel.in/dot"},
	{ISP: "Jio", Marker: "49.44.18.2"},
	{ISP: "Idea", Marker: "competent Government Authority"},
	{ISP: "TATA", Marker: "TATA Communications"},
}

// Probe is a measurement client inside one ISP.
type Probe struct {
	World *ispnet.World
	ISP   *ispnet.ISP
	// Timeout bounds every network wait.
	Timeout time.Duration
	// Attempts overrides the per-detector retry counts when positive
	// (DetectHTTP's manual verification, CollateralFor's race retries).
	// Zero keeps each detector's paper-calibrated default.
	Attempts int

	// reqDomain/reqBytes cache the standard browser-style GET for the
	// domain currently under measurement: a single detector run fetches
	// the same domain several times (Tor ground path, direct fetch, the
	// manual-verification retries), and all of them reuse one rendering.
	reqDomain string
	reqBytes  []byte
}

// stdRequest returns the standard browser-style GET bytes for domain,
// rebuilt only when the domain changes. The returned slice is shared —
// callers transmit it, never mutate it.
func (p *Probe) stdRequest(domain string) []byte {
	if p.reqDomain != domain || p.reqBytes == nil {
		p.reqBytes = httpwire.NewGET("/").
			Header("Host", domain).
			Header("User-Agent", "Mozilla/5.0 (X11; Linux x86_64) repro/1.0").
			Bytes()
		p.reqDomain = domain
	}
	return p.reqBytes
}

// attempts resolves the retry count for a detector with default def.
func (p *Probe) attempts(def int) int {
	if p.Attempts > 0 {
		return p.Attempts
	}
	return def
}

// New creates a probe for an ISP's measurement client.
func New(w *ispnet.World, isp *ispnet.ISP) *Probe {
	return &Probe{World: w, ISP: isp, Timeout: 3 * time.Second}
}

// FetchResult is the outcome of one HTTP fetch attempt.
type FetchResult struct {
	Domain    string
	Addr      netip.Addr
	Connected bool
	// Reset is true when a valid RST killed the connection.
	Reset bool
	// PeerClosed is true when a FIN was accepted.
	PeerClosed bool
	// Responses are the parsed HTTP responses, in order. Their bodies
	// alias Stream.
	Responses []*httpwire.Response
	// Stream is the raw received byte stream. It is the receive buffer of
	// the fetch's own connection, taken over once that connection is dead,
	// so nothing writes to it afterwards and later fetches never disturb
	// it; callers must not modify it either.
	Stream []byte
	// Notification is set when the stream matches a known censorship
	// signature; SignatureISP names the censor.
	Notification bool
	SignatureISP string
	// SawIPID242 reports an Airtel-style fixed IP identifier on ingress.
	SawIPID242 bool
}

// Body returns the first response body, or nil.
func (r *FetchResult) Body() []byte {
	if len(r.Responses) == 0 {
		return nil
	}
	return r.Responses[0].Body
}

// classify fills the notification fields from the stream, consulting the
// world's own signature catalogue so custom censors attribute too.
func (r *FetchResult) classify(w *ispnet.World) {
	if isp, ok := MatchSignatureIn(w, r.Stream); ok {
		r.Notification = true
		r.SignatureISP = isp
	}
}

// GetFrom performs one GET for domain against dst from an arbitrary
// endpoint, with full result capture. rawRequest overrides the standard
// browser-style request bytes when non-nil.
func GetFrom(ep *ispnet.Endpoint, dst netip.Addr, domain string, rawRequest []byte, timeout time.Duration) *FetchResult {
	res := &FetchResult{Domain: domain, Addr: dst}
	// Only inbound IP IDs are read, so outbound packets go unrecorded.
	ep.Host.StartInboundCapture()
	defer ep.Host.StopCapture()
	c := ep.TCP.Connect(dst, 80)
	if err := c.WaitEstablished(timeout); err != nil {
		return res
	}
	res.Connected = true
	req := rawRequest
	if req == nil {
		req = httpwire.NewGET("/").
			Header("Host", domain).
			Header("User-Agent", "Mozilla/5.0 (X11; Linux x86_64) repro/1.0").
			Bytes()
	}
	c.Send(req)
	// Wait for a complete response, teardown, or quiet timeout.
	eng := ep.Host.Engine()
	eng.RunFor(timeout / 3)
	for deadline := 3; deadline > 0 && !httpwire.HasResponse(c.Stream()) && !c.Dead() && !c.PeerClosed(); deadline-- {
		eng.RunFor(timeout / 3)
	}
	_, res.Reset = c.WasReset()
	res.PeerClosed = c.PeerClosed()
	for _, rec := range ep.Host.Captures() {
		if rec.Pkt.IP.ID == 242 {
			res.SawIPID242 = true
			break
		}
	}
	aborted := !c.Dead()
	if aborted {
		c.Abort()
	}
	// The connection is dead, so its receive buffer never changes again:
	// the result takes it over instead of copying it.
	res.Stream = c.Stream()
	res.Responses = httpwire.ParseResponses(res.Stream)
	res.classify(ep.World)
	if aborted {
		eng.RunFor(10 * time.Millisecond)
	}
	return res
}

// ResolveLocal resolves a domain through the ISP's default resolver.
func (p *Probe) ResolveLocal(domain string) ([]netip.Addr, error) {
	addrs, rcode, err := p.ISP.Client.DNS.ResolveA(p.ISP.DefaultResolver, domain, p.Timeout)
	if err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("probe: %s: empty answer (%v)", domain, rcode)
	}
	return addrs, nil
}

// ResolveViaTor resolves through the Tor-exit vantage (uncensored ground
// path), using the public resolver at the exit.
func (p *Probe) ResolveViaTor(domain string) ([]netip.Addr, error) {
	addrs, rcode, err := p.World.TorExit.DNS.ResolveA(p.World.GoogleDNS, domain, p.Timeout)
	if err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("probe: tor %s: empty answer (%v)", domain, rcode)
	}
	return addrs, nil
}

// FetchDirect resolves and fetches a domain from the ISP client, exactly
// like a subscriber's browser.
func (p *Probe) FetchDirect(domain string) (*FetchResult, error) {
	addrs, err := p.ResolveLocal(domain)
	if err != nil {
		return nil, err
	}
	return GetFrom(p.ISP.Client, addrs[0], domain, p.stdRequest(domain), p.Timeout), nil
}

// FetchDirectAt fetches a domain from the ISP client at a known address.
func (p *Probe) FetchDirectAt(domain string, addr netip.Addr) *FetchResult {
	return GetFrom(p.ISP.Client, addr, domain, p.stdRequest(domain), p.Timeout)
}

// FetchViaTor fetches through the Tor-like uncensored circuit: resolution
// and HTTP both happen at the exit.
func (p *Probe) FetchViaTor(domain string) (*FetchResult, error) {
	addrs, err := p.ResolveViaTor(domain)
	if err != nil {
		return nil, err
	}
	return GetFrom(p.World.TorExit, addrs[0], domain, p.stdRequest(domain), p.Timeout), nil
}

// SiteRegionAddr is a convenience for tests: the address a region sees.
func (p *Probe) SiteRegionAddr(domain string, region websim.Region) (netip.Addr, bool) {
	s, ok := p.World.Catalog.Site(domain)
	if !ok {
		return netip.Addr{}, false
	}
	a, ok := s.Addrs[region]
	return a, ok
}

// rawTCP builds a raw TCP packet from the client.
func rawTCP(ep *ispnet.Endpoint, dst netip.Addr, seg *netpkt.TCPSegment, ttl uint8) *netpkt.Packet {
	pkt := netpkt.NewTCP(ep.Addr(), dst, seg)
	if ttl > 0 {
		pkt.IP.TTL = ttl
	}
	return pkt
}

// connEstablish opens a TCP connection from an endpoint and waits.
func connEstablish(ep *ispnet.Endpoint, dst netip.Addr, timeout time.Duration) (*tcpsim.Conn, error) {
	c := ep.TCP.Connect(dst, 80)
	if err := c.WaitEstablished(timeout); err != nil {
		return nil, err
	}
	return c, nil
}
