package ispnet

import (
	"fmt"

	"repro/internal/dnswire"
	"repro/internal/httpwire"
	"repro/internal/tlswire"
	"repro/internal/trafficgen"
	"repro/internal/websim"
)

// buildTraffic compiles the profiles' Population calibrations into the
// world's background-traffic generator. It runs after every ISP is built
// (generator hosts and default resolvers exist) and before MarkBaseline
// (the generator's handler registrations are baseline state); it draws no
// engine randomness — Traffic.Start, called after the baseline is marked,
// does that.
func (w *World) buildTraffic() {
	var isps []trafficgen.ISPConfig
	for _, isp := range w.ISPList {
		pop := isp.Profile.Population
		if pop.Users <= 0 || len(isp.genHosts) == 0 {
			continue
		}
		isps = append(isps, trafficgen.ISPConfig{
			Name:       isp.Name,
			Hosts:      isp.genHosts,
			Users:      pop.Users,
			DNSShare:   pop.DNSShare,
			HTTPShare:  pop.HTTPShare,
			HTTPSShare: pop.HTTPSShare,
			Think:      pop.Think,
			ZipfS:      pop.ZipfS,
			Resolver:   isp.DefaultResolver,
		})
	}
	if len(isps) == 0 {
		return
	}
	w.Traffic = trafficgen.New(w.Eng, w.trafficTargets(), isps)
}

// trafficTargets renders the shared ranked site list the populations
// browse: Alexa sites first (the popular head of the Zipf distribution),
// then the potentially-blocked population — so a real-world-shaped slice
// of background flows carries blocklisted Host headers past the boxes.
// Every request is rendered once here; the tick path only points at these
// bytes.
func (w *World) trafficTargets() []trafficgen.Target {
	domains := append([]string(nil), w.Catalog.AlexaDomains()...)
	domains = append(domains, w.Catalog.PBWDomains()...)
	targets := make([]trafficgen.Target, 0, len(domains))
	for _, d := range domains {
		site, ok := w.Catalog.Site(d)
		if !ok {
			continue
		}
		addr := site.Addr(websim.RegionIN)
		if !addr.IsValid() {
			continue
		}
		hello, err := tlswire.ClientHello(d, tlsRandom(d))
		if err != nil {
			panic(fmt.Sprintf("trafficgen: render ClientHello for %s: %v", d, err))
		}
		query, err := dnswire.NewQuery(uint16(fnvOffset.str(d)), d).Marshal()
		if err != nil {
			panic(fmt.Sprintf("trafficgen: render DNS query for %s: %v", d, err))
		}
		targets = append(targets, trafficgen.Target{
			Domain: d,
			Addr:   addr,
			Req:    httpwire.StandardGET(d, "/"),
			TLS:    hello,
			DNSQ:   query,
		})
	}
	return targets
}

// tlsRandom derives a deterministic ClientHello random for a domain from
// the build-time string hash — no engine randomness, so rendering targets
// never perturbs the world's draw sequence. Word 0 hashes
// "<domain>|tls-random", word k "<domain>|tls-random|<8(k-1)>".
func tlsRandom(domain string) [32]byte {
	var out [32]byte
	seed := fnvOffset.str(domain).str("|tls-random")
	h := uint64(seed)
	for i := 0; i < 32; i += 8 {
		for j := 0; j < 8; j++ {
			out[i+j] = byte(h >> (8 * j))
		}
		h = uint64(seed.str("|").int(i))
	}
	return out
}
