package ispnet

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/middlebox"
	"repro/internal/netpkt"
	"repro/internal/netsim"
	"repro/internal/websim"
)

// createPeerings builds the customer-transit relationships of Table 3: each
// transit link gets a dedicated peering router owned by the provider,
// carrying one of the provider's middleboxes — the mechanism behind the
// paper's intra-country collateral damage.
//
// Must run before Net.Build (it adds routers and links).
func (w *World) createPeerings() {
	for _, isp := range w.ISPList {
		for i, tl := range isp.Transits {
			provider := w.ISPs[tl.Provider]
			if provider == nil {
				panic(fmt.Sprintf("ispnet: unknown transit provider %q", tl.Provider))
			}
			pa := byte(provider.ASN - 100)
			peer := w.Net.AddRouter(
				fmt.Sprintf("%s-peer-%s", provider.Name, isp.Name),
				provider.ASN,
				netip.AddrFrom4([4]byte{100, pa, byte(200 + 4*peerIdx(isp) + i), 1}),
			)
			peer.Anonymized = true
			w.Net.Link(isp.Core, peer, 2*time.Millisecond)
			w.Net.Link(peer, provider.Core, 2*time.Millisecond)
			isp.peers = append(isp.peers, transitPeer{link: tl, provider: provider, router: peer})

			// The provider's middlebox on this peering link, carrying
			// exactly the calibrated collateral list.
			list := w.collateralList(isp, provider, tl)
			kind := provider.Censor
			if !provider.HTTPCensoring() {
				kind = CensorWM // TATA operates wiretap boxes on customer links
			}
			w.deployBox(provider, fmt.Sprintf("%s-peerbox-%s", provider.Name, isp.Name),
				peer, kind, list, middlebox.ScopeAll)
		}
	}
}

// peerIdx gives each customer a small stable index for address allocation.
func peerIdx(isp *ISP) int {
	switch isp.Name {
	case "NKN":
		return 0
	case "Sify":
		return 1
	case "Siti":
		return 2
	case "MTNL":
		return 3
	case "BSNL":
		return 4
	default:
		return 5
	}
}

// collateralList samples the provider's peering-link blocklist: PBWs with
// stable dedicated hosting (normal/dynamic kinds) in the region this
// transit link serves, preferring the provider's own HTTP list.
func (w *World) collateralList(customer, provider *ISP, tl TransitLink) []string {
	inProvider := map[string]bool{}
	for _, d := range provider.HTTPList {
		inProvider[d] = true
	}
	var pool, fallback []string
	for _, s := range w.Catalog.PBW {
		if s.Kind != websim.KindNormal && s.Kind != websim.KindDynamic {
			continue
		}
		if tl.Region == "US" && s.HomeRegion != websim.RegionUS {
			continue
		}
		if tl.Region == "EU" && s.HomeRegion != websim.RegionEU {
			continue
		}
		if len(inProvider) == 0 || inProvider[s.Domain] {
			pool = append(pool, s.Domain)
		} else {
			fallback = append(fallback, s.Domain)
		}
	}
	count := scaled(tl.CollateralCount, w)
	if len(pool) < count {
		pool = append(pool, fallback...)
	}
	return pickDomains(pool, count, customer.Name+"|"+provider.Name+"|collateral")
}

// transitPeer records one wired transit link.
type transitPeer struct {
	link     TransitLink
	provider *ISP
	router   *netsim.Router
}

// wireTransits installs the policy routing that steers customer traffic
// through the calibrated transit per hosting region, symmetrically in both
// directions so the peering middleboxes see complete flows.
//
// Must run after Net.Build.
func (w *World) wireTransits() {
	for _, isp := range w.ISPList {
		if len(isp.peers) == 0 {
			continue
		}
		isp := isp
		// Forward: at the customer core, destinations in global pods pick
		// the transit assigned to their hosting region.
		isp.Core.SetPolicy(func(dst netip.Addr) (*netsim.Router, bool) {
			p, ok := w.podOf(dst)
			if !ok {
				return nil, false
			}
			region := w.podRegion(p)
			for _, tp := range isp.peers {
				if tp.link.Region == "ALL" ||
					(tp.link.Region == "US" && region == websim.RegionUS) ||
					(tp.link.Region == "EU" && region == websim.RegionEU) {
					return tp.router, true
				}
			}
			return nil, false
		})
		// Reverse: at every pod, traffic back to the customer enters the
		// same provider via the provider's border adjacent to that pod.
		for p, pod := range w.Pods {
			region := w.podRegion(p)
			var next *netsim.Router
			for _, tp := range isp.peers {
				if tp.link.Region == "ALL" ||
					(tp.link.Region == "US" && region == websim.RegionUS) ||
					(tp.link.Region == "EU" && region == websim.RegionEU) {
					if pb := w.podBorders[tp.provider.Name]; pb != nil {
						next = pb[p]
					}
				}
			}
			if next == nil {
				continue
			}
			w.addPodPolicy(pod, isp.Prefixes, next)
		}
	}
	for _, pp := range w.podPolicies {
		pp.install()
	}
}

// podPolicy accumulates per-pod (prefixes -> next hop) rules so multiple
// customers compose into a single policy closure.
type podPolicy struct {
	pod   *netsim.Router
	rules []podRule
}

type podRule struct {
	prefixes []netip.Prefix
	next     *netsim.Router
}

func (w *World) addPodPolicy(pod *netsim.Router, prefixes []netip.Prefix, next *netsim.Router) {
	if w.podPolicies == nil {
		w.podPolicies = make(map[int]*podPolicy)
	}
	pp := w.podPolicies[pod.ID]
	if pp == nil {
		pp = &podPolicy{pod: pod}
		w.podPolicies[pod.ID] = pp
	}
	pp.rules = append(pp.rules, podRule{prefixes: prefixes, next: next})
}

// podRange is one compiled rule prefix: IPv4 addresses lo..hi, as
// uint32, route to next.
type podRange struct {
	lo, hi uint32
	next   *netsim.Router
}

// install compiles the rules into address ranges, in rule order so the
// first matching prefix still wins, and installs the policy. Packets carry
// IPv4 only, so IPv6 prefixes and destinations never match. A next hop
// must be linked to the pod: a policy only picks among adjacent routers.
func (pp *podPolicy) install() {
	var ranges []podRange
	for _, r := range pp.rules {
		if !pp.pod.Network().Linked(pp.pod, r.next) {
			panic(fmt.Sprintf("ispnet: pod policy at %s names %s, which is not linked to it", pp.pod.Name, r.next.Name))
		}
		for _, pfx := range r.prefixes {
			if !pfx.Addr().Is4() {
				continue
			}
			lo := netpkt.V4Key(pfx.Masked().Addr())
			ranges = append(ranges, podRange{lo: lo, hi: lo | (1<<(32-pfx.Bits()) - 1), next: r.next})
		}
	}
	pp.pod.SetPolicy(func(dst netip.Addr) (*netsim.Router, bool) {
		if !dst.Is4() {
			return nil, false
		}
		a := netpkt.V4Key(dst)
		for _, r := range ranges {
			if r.lo <= a && a <= r.hi {
				return r.next, true
			}
		}
		return nil, false
	})
}

// podOf maps an address to its pod index (web-hosting space 199.p.0.0/16).
func (w *World) podOf(addr netip.Addr) (int, bool) {
	b := addr.As4()
	if b[0] != 199 || int(b[1]) >= w.Cfg.Pods {
		return 0, false
	}
	return int(b[1]), true
}
