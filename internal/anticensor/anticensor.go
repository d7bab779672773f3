// Package anticensor implements the paper's §5 evasion techniques — the
// ones that defeated every middlebox in every ISP without proxies, VPNs or
// Tor. Each technique is expressed as either a crafted request builder
// (exploiting the middleboxes' literal matching vs the servers' RFC 2616
// tolerance) or a client-side packet-filter rule (dropping the forged
// teardown packets a wiretap box injects).
package anticensor

import (
	"bytes"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/httpwire"
	"repro/internal/ispnet"
	"repro/internal/netpkt"
	"repro/internal/netsim"
	"repro/internal/probe"
	"repro/internal/tcpsim"
)

// Technique identifies one evasion.
type Technique string

// The §5 techniques.
const (
	// TechHostCase mutates the case of the Host keyword ("HOst:"):
	// middleboxes match literally, servers are case-insensitive. Worked
	// against the wiretap boxes of Airtel and Jio.
	TechHostCase Technique = "host-keyword-case"
	// TechExtraSpace pads the Host value with an extra space: defeats the
	// overt interceptive boxes (Idea).
	TechExtraSpace Technique = "host-extra-space"
	// TechTrailingSpace appends a space after the domain.
	TechTrailingSpace Technique = "host-trailing-space"
	// TechMultiHost appends a second, uncensored Host after the end of
	// the request: covert interceptive boxes (Vodafone) match only the
	// last Host; the server answers the real request plus a 400.
	TechMultiHost Technique = "multiple-host-headers"
	// TechSegmented splits the GET across TCP segments: per-packet
	// matchers never see a complete Host line.
	TechSegmented Technique = "segmented-request"
	// TechDropFINRST installs a local packet filter dropping forged
	// FIN/RST packets (optionally keyed on Airtel's fixed IP-ID 242);
	// the real response then renders. Only helps against wiretap boxes —
	// interceptive boxes consume the request itself.
	TechDropFINRST Technique = "drop-fin-rst"
	// TechAltResolver switches to an uncensored public resolver —
	// the complete fix for BSNL/MTNL DNS poisoning.
	TechAltResolver Technique = "alternate-resolver"
)

// AllTechniques lists every HTTP evasion (DNS evasion is separate).
var AllTechniques = []Technique{
	TechHostCase, TechExtraSpace, TechTrailingSpace, TechMultiHost,
	TechSegmented, TechDropFINRST,
}

// CraftRequest renders the technique's request bytes for a domain, or
// ok=false when the technique is not a request mutation.
func CraftRequest(t Technique, domain string) (req []byte, ok bool) {
	switch t {
	case TechHostCase:
		return httpwire.NewGET("/").RawLine("HOst: " + domain).Bytes(), true
	case TechExtraSpace:
		return httpwire.NewGET("/").RawLine("Host:  " + domain).Bytes(), true
	case TechTrailingSpace:
		return httpwire.NewGET("/").RawLine("Host: " + domain + " ").Bytes(), true
	case TechMultiHost:
		base := httpwire.NewGET("/").Header("Host", domain).Bytes()
		return append(base, []byte(" Host: popular-0000.com\r\n\r\n")...), true
	default:
		return nil, false
	}
}

// FINRSTDropper builds the iptables-like ingress rule of §5: drop any
// TCP packet from siteAddr carrying FIN or RST; when ipid is non-zero,
// also drop any packet bearing that IP identifier (Airtel's 242). The
// filter works on raw wire bytes, like a real netfilter rule.
func FINRSTDropper(siteAddr netip.Addr, ipid uint16) netsim.IngressFilter {
	return func(raw []byte, pkt *netpkt.Packet) bool {
		p := pkt
		if p == nil {
			parsed, err := netpkt.Parse(raw)
			if err != nil {
				return true
			}
			p = parsed
		}
		if p.TCP == nil {
			return true
		}
		if ipid != 0 && p.IP.ID == ipid && (p.TCP.Flags.Has(netpkt.FIN) || p.TCP.Flags.Has(netpkt.RST)) {
			return false
		}
		if p.IP.Src == siteAddr && (p.TCP.Flags.Has(netpkt.FIN) || p.TCP.Flags.Has(netpkt.RST)) {
			return false
		}
		return true
	}
}

// Attempt is the outcome of one evasion attempt.
type Attempt struct {
	Technique Technique
	Domain    string
	// Success: the client received genuine site content.
	Success bool
	// Censored: a censorship response was still observed.
	Censored bool
	Detail   string
}

// Evade tries one technique for one censored domain from the ISP client.
// The destination address is resolved through Tor (combining with the
// alternate-resolver evasion when local DNS is also poisoned).
func Evade(p *probe.Probe, t Technique, domain string) *Attempt {
	at := &Attempt{Technique: t, Domain: domain}
	addrs, err := p.ResolveViaTor(domain)
	if err != nil {
		at.Detail = "unresolvable: " + err.Error()
		return at
	}
	addr := addrs[0]
	ep := p.ISP.Client
	eng := p.World.Eng

	switch t {
	case TechAltResolver:
		// DNS-only evasion: resolving via the public resolver must give a
		// non-manipulated answer; then a plain fetch works (for DNS-only
		// censors).
		fr := probe.GetFrom(ep, addr, domain, nil, p.Timeout)
		at.Success = goodContent(fr.Stream, fr.Responses)
		at.Censored = fr.Notification || (fr.Reset && len(fr.Responses) == 0)
		return at

	case TechDropFINRST:
		// The paper keyed its drop rule on Airtel's pinned IP-ID 242; the
		// profile's style carries whatever this world's censor pins (0 for
		// censors without the signature, which disables the IP-ID rule).
		ipid := p.ISP.Profile.Style.IPID
		ep.Host.SetIngressFilter(FINRSTDropper(addr, ipid))
		defer ep.Host.SetIngressFilter(nil)
		fr := probe.GetFrom(ep, addr, domain, nil, p.Timeout)
		at.Success = goodContent(fr.Stream, fr.Responses)
		at.Censored = fr.Notification
		return at

	case TechSegmented:
		c, err := ep.TCP.Connect(addr, 80), error(nil)
		if err = c.WaitEstablished(p.Timeout); err != nil {
			at.Detail = "connect failed"
			return at
		}
		c.SendSegmented(httpwire.NewGET("/").Header("Host", domain).Bytes(), 4)
		eng.RunFor(p.Timeout)
		at.Success = goodContent(c.Stream(), nil)
		at.Censored = censoredStream(p.World, c)
		c.Abort()
		eng.RunFor(10 * time.Millisecond)
		return at

	default:
		req, ok := CraftRequest(t, domain)
		if !ok {
			at.Detail = fmt.Sprintf("technique %s builds no request", t)
			return at
		}
		fr := probe.GetFrom(ep, addr, domain, req, p.Timeout)
		at.Success = goodContent(fr.Stream, fr.Responses)
		at.Censored = fr.Notification || (fr.Reset && len(fr.Responses) == 0)
		return at
	}
}

// goodContent recognizes genuine site content: a 200 response whose body
// looks like the simulated web's pages rather than a censorship notice.
func goodContent(stream []byte, responses []*httpwire.Response) bool {
	if responses == nil {
		responses = httpwire.ParseResponses(stream)
	}
	for _, r := range responses {
		if r.StatusCode == 200 && bytes.Contains(r.Body, []byte("portal")) {
			return true
		}
	}
	return false
}

func censoredStream(w *ispnet.World, c *tcpsim.Conn) bool {
	if _, reset := c.WasReset(); reset && len(c.Stream()) == 0 {
		return true
	}
	_, notified := probe.MatchSignatureIn(w, c.Stream())
	return notified
}

// Matrix evaluates every technique against a sample of an ISP's blocked
// domains, reproducing §5's claim table ("we managed to anti-censor all
// blocked websites in all ISPs under test").
type Matrix struct {
	ISP string
	// Success[technique] = successes out of Tried.
	Success map[Technique]int
	Tried   int
	// AnyPerDomain counts domains evaded by at least one technique.
	AnyPerDomain int
}

// RunMatrix evaluates the techniques over blocked domains.
func RunMatrix(p *probe.Probe, blocked []string, techniques []Technique, perDomainRetries int) *Matrix {
	m := &Matrix{ISP: p.ISP.Name, Success: map[Technique]int{}}
	for _, d := range blocked {
		m.Tried++
		evaded := false
		for _, t := range techniques {
			ok := false
			for r := 0; r <= perDomainRetries && !ok; r++ {
				ok = Evade(p, t, d).Success
			}
			if ok {
				m.Success[t]++
				evaded = true
			}
		}
		if evaded {
			m.AnyPerDomain++
		}
	}
	return m
}
