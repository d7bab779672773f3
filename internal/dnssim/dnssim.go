// Package dnssim provides the DNS side of the simulation: an authoritative
// view of the simulated web (which address a domain has, per region), open
// recursive resolvers that ISPs run — some of them poisoned, answering
// censored domains with an ISP block-page address or a bogon — and a stub
// client for hosts that need lookups.
//
// The paper found DNS censorship in exactly two of the nine ISPs (MTNL and
// BSNL), implemented by poisoning the ISPs' own resolvers rather than by
// on-path injection; the Iterative Network Tracer variant that proves this
// (responses always come from the last hop) runs against these resolvers.
package dnssim

import (
	"math/bits"
	"net/netip"
	"sort"
	"time"

	"repro/internal/dnswire"
	"repro/internal/netpkt"
	"repro/internal/netsim"
	"repro/internal/websim"
)

// Authority answers what a domain truly resolves to from a given region.
type Authority interface {
	Lookup(domain string, region websim.Region) ([]netip.Addr, dnswire.RCode)
}

// CatalogAuthority implements Authority from a websim catalog with filled
// per-region addresses.
type CatalogAuthority struct {
	Catalog *websim.Catalog
}

// Lookup resolves a domain the way the real DNS would: per-region CDN
// steering included.
func (a *CatalogAuthority) Lookup(domain string, region websim.Region) ([]netip.Addr, dnswire.RCode) {
	site, ok := a.Catalog.Site(domain)
	if !ok {
		return nil, dnswire.RCodeNXDomain
	}
	addr, ok := site.Addrs[region]
	if !ok {
		return nil, dnswire.RCodeServFail
	}
	return []netip.Addr{addr}, dnswire.RCodeNoError
}

// DomainIndex numbers the censored domains one operator's resolvers may
// poison. It is built once per operator and shared read-only by all of
// its resolvers; each poisoned resolver holds its own list as a bitset
// over the index.
type DomainIndex struct {
	names []string         // position -> domain
	pos   map[string]int32 // domain -> position
}

// NewDomainIndex numbers domains in the given order.
func NewDomainIndex(domains []string) *DomainIndex {
	x := &DomainIndex{names: domains, pos: make(map[string]int32, len(domains))}
	for i, d := range domains {
		x.pos[d] = int32(i)
	}
	return x
}

// NewSet returns an empty set over the index's positions.
func (x *DomainIndex) NewSet() DomainSet { return make(DomainSet, (len(x.names)+63)/64) }

// DomainSet is a bitset of DomainIndex positions.
type DomainSet []uint64

// Add puts position i in the set.
func (s DomainSet) Add(i int) { s[i>>6] |= 1 << (i & 63) }

// Has reports whether position i is in the set.
func (s DomainSet) Has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// Resolver is one recursive resolver host.
type Resolver struct {
	host      *netsim.Host
	region    websim.Region
	authority Authority
	latency   time.Duration

	// The poisoned domains: the positions of index set in poisoned, each
	// answered with poisonAddr(domain). Nil index: an honest resolver.
	index      *DomainIndex
	poisoned   DomainSet
	poisonAddr func(domain string) netip.Addr

	// Queries and PoisonedAnswers count traffic for metrics.
	Queries         int
	PoisonedAnswers int
}

// NewResolver binds resolver logic to a host's UDP port 53.
func NewResolver(h *netsim.Host, region websim.Region, authority Authority, latency time.Duration) *Resolver {
	r := &Resolver{host: h, region: region, authority: authority, latency: latency}
	h.SetUDPHandler(53, r.handle)
	return r
}

// Host returns the resolver's host.
func (r *Resolver) Host() *netsim.Host { return r.host }

// Addr returns the resolver's address.
func (r *Resolver) Addr() netip.Addr { return r.host.Addr() }

// Poison makes the resolver manipulate the domains whose index positions
// are in set, answering each with addr(domain). addr runs on every
// poisoned query, so it must be cheap and must not allocate.
func (r *Resolver) Poison(index *DomainIndex, set DomainSet, addr func(domain string) netip.Addr) {
	r.index, r.poisoned, r.poisonAddr = index, set, addr
}

// Poisoned reports whether the resolver manipulates any domain.
func (r *Resolver) Poisoned() bool {
	for _, w := range r.poisoned {
		if w != 0 {
			return true
		}
	}
	return false
}

// PoisonsDomain reports whether the resolver manipulates one domain.
func (r *Resolver) PoisonsDomain(domain string) bool {
	if r.index == nil {
		return false
	}
	i, ok := r.index.pos[domain]
	return ok && r.poisoned.Has(int(i))
}

// PoisonAnswer returns the manipulated answer the resolver gives for
// domain, and whether it manipulates domain at all.
func (r *Resolver) PoisonAnswer(domain string) (netip.Addr, bool) {
	if !r.PoisonsDomain(domain) {
		return netip.Addr{}, false
	}
	return r.poisonAddr(domain), true
}

// PoisonList returns the censored domains this resolver manipulates,
// sorted so the same configuration always lists the same way.
func (r *Resolver) PoisonList() []string {
	var out []string
	for i, w := range r.poisoned {
		for ; w != 0; w &= w - 1 {
			out = append(out, r.index.names[i*64+bits.TrailingZeros64(w)])
		}
	}
	sort.Strings(out)
	return out
}

// Reset clears the traffic counters. The poison list is build-time
// configuration and stays.
func (r *Resolver) Reset() {
	r.Queries = 0
	r.PoisonedAnswers = 0
}

// handle answers one DNS query datagram.
func (r *Resolver) handle(pkt *netpkt.Packet) {
	q, err := dnswire.Parse(pkt.UDP.Payload)
	if err != nil || q.Response || len(q.Questions) == 0 {
		return
	}
	r.Queries++
	domain := q.Questions[0].Name
	var resp *dnswire.Message
	if addr, bad := r.PoisonAnswer(domain); bad {
		r.PoisonedAnswers++
		resp = q.Answer(dnswire.RCodeNoError, 60, addr)
	} else {
		addrs, rcode := r.authority.Lookup(domain, r.region)
		resp = q.Answer(rcode, 300, addrs...)
	}
	payload, err := resp.Marshal()
	if err != nil {
		return
	}
	out := netpkt.NewUDP(r.host.Addr(), pkt.IP.Src, &netpkt.UDPDatagram{
		SrcPort: 53, DstPort: pkt.UDP.SrcPort, Payload: payload,
	})
	r.host.SendAfter(r.latency, out)
}
