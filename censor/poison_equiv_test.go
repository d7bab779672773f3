package censor

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"
	"testing"

	"repro/internal/ispnet"
)

// TestPoisonSetsMatchMaterializedMaps materializes, for every resolver of
// every registered preset, a reference poison map (domain -> answer,
// hashed from formatted strings with hash/fnv) and checks the bitset
// poison sets against it: the same poisoned domains, listed the same way,
// answered with the same addresses.
func TestPoisonSetsMatchMaterializedMaps(t *testing.T) {
	entries := map[string]int{}
	for _, name := range Scenarios() {
		cfg, err := ispnet.Compile(MustLookupScenario(name))
		if err != nil {
			t.Fatal(err)
		}
		w := ispnet.NewWorld(cfg)
		probes := append(append([]string{"no-such-site.invalid"}, w.Catalog.PBWDomains()...), w.Catalog.AlexaDomains()...)
		for _, isp := range w.ISPList {
			if got, want := isp.DNSList, refPickDomains(w.Catalog.PBWDomains(), len(isp.DNSList), isp.Name+"|dns"); !equalStrings(got, want) {
				t.Fatalf("%s/%s: DNS list differs from the reference selection", name, isp.Name)
			}
			maps := refPoisonMaps(isp)
			for i, r := range isp.Resolvers {
				ref := maps[i]
				entries[name] += len(ref)
				want := make([]string, 0, len(ref))
				for d := range ref {
					want = append(want, d)
				}
				sort.Strings(want)
				if got := r.PoisonList(); !equalStrings(got, want) {
					t.Fatalf("%s/%s resolver %d: PoisonList has %d domains, reference %d", name, isp.Name, i, len(got), len(want))
				}
				if r.Poisoned() != (len(ref) > 0) {
					t.Fatalf("%s/%s resolver %d: Poisoned() = %v", name, isp.Name, i, r.Poisoned())
				}
				for _, d := range probes {
					wantAddr, wantOK := ref[d]
					if r.PoisonsDomain(d) != wantOK {
						t.Fatalf("%s/%s resolver %d: PoisonsDomain(%s) = %v", name, isp.Name, i, d, !wantOK)
					}
					if addr, ok := r.PoisonAnswer(d); ok != wantOK || addr != wantAddr {
						t.Fatalf("%s/%s resolver %d: PoisonAnswer(%s) = %v %v, reference %v %v", name, isp.Name, i, d, addr, ok, wantAddr, wantOK)
					}
				}
			}
		}
	}
	// The paper world's MTNL and BSNL resolvers hold 66,063 entries in all.
	if entries["paper-2018"] != 66063 {
		t.Errorf("paper-2018 has %d poison entries, want 66063", entries["paper-2018"])
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func refHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// refPickDomains is the selection rule, hashing inside the sort
// comparator: the count domains with the smallest salted hashes, ties by
// position, returned in catalogue order.
func refPickDomains(all []string, count int, salt string) []string {
	if count >= len(all) {
		return append([]string(nil), all...)
	}
	idx := make([]int, len(all))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ha, hb := refHash(salt+"|"+all[idx[a]]), refHash(salt+"|"+all[idx[b]])
		if ha != hb {
			return ha < hb
		}
		return idx[a] < idx[b]
	})
	chosen := append([]int(nil), idx[:count]...)
	sort.Ints(chosen)
	out := make([]string, count)
	for i, j := range chosen {
		out[i] = all[j]
	}
	return out
}

// refPoisonMaps materializes one domain -> answer map per resolver of a
// DNS-censoring ISP: circulant lists over its DNS list, the default
// resolver cut to its first ClientResolverSize entries, and each answer
// hashed from "<isp>|<resolver>|<domain>|poison".
func refPoisonMaps(isp *ispnet.ISP) []map[string]netip.Addr {
	maps := make([]map[string]netip.Addr, len(isp.Resolvers))
	for i := range maps {
		maps[i] = map[string]netip.Addr{}
	}
	p := isp.Profile
	if p.Censor != ispnet.CensorDNS || p.PoisonedResolvers == 0 {
		return maps
	}
	k := min(p.PoisonedResolvers, len(isp.Resolvers))
	lists := make([][]string, k)
	base := int(p.DNSConsistency * float64(k))
	frac := p.DNSConsistency*float64(k) - float64(base)
	for r, d := range isp.DNSList {
		w := base
		if refHash("w|"+p.Name+"|dns|"+d)%1000 < uint64(frac*1000) {
			w++
		}
		w = max(1, min(w, k))
		start := r * k / len(isp.DNSList)
		for m := 0; m < w; m++ {
			lists[(start+m)%k] = append(lists[(start+m)%k], d)
		}
	}
	for i, list := range lists {
		if i == 0 && p.ClientResolverSize > 0 && len(list) > p.ClientResolverSize {
			list = list[:p.ClientResolverSize]
		}
		for _, d := range list {
			h := refHash(fmt.Sprintf("%s|%d|%s|poison", isp.Name, i, d))
			addr := isp.BlockIP
			if h%100 >= 70 {
				addr = netip.AddrFrom4([4]byte{10, 66, byte(h >> 8), byte(h >> 16)})
			}
			maps[i][d] = addr
		}
	}
	return maps
}
