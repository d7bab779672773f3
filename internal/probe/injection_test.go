package probe

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/ispnet"
	"repro/internal/middlebox"
	"repro/internal/websim"
)

// The DNS variant of the Iterative Network Tracer exists to separate
// resolver poisoning from on-path injection. India showed only poisoning;
// this test validates the tracer's discriminating power by wiring a
// GFW-style injector into an otherwise honest path and checking the
// verdict flips.
func TestDNSTracerDetectsInjection(t *testing.T) {
	w := world(t)
	// Use a clean ISP (Sify) whose resolver is honest, and attach an
	// injector tap at its core router.
	sify := w.ISP("Sify")
	victim := w.Catalog.PBWDomains()[0]
	inj := middlebox.NewDNSInjector(w.Net, middlebox.Config{
		ID: "synthetic-injector", ASN: sify.ASN,
		Blocklist:   middlebox.NewBlocklist([]string{victim}),
		Scope:       middlebox.ScopeAll,
		OwnPrefixes: sify.Prefixes,
	}, netip.MustParseAddr("10.99.99.99"))
	sify.Edges[0].AttachTap(inj) // on the client/resolver path

	tr := IterativeTraceDNS(sify.Client, sify.DefaultResolver, victim, time.Second)
	if tr.AnswerHop == 0 {
		t.Fatal("no answer")
	}
	if !tr.Injected {
		t.Errorf("injection not detected: answer at hop %d of %d", tr.AnswerHop, tr.ResolverHop)
	}
	if inj.Triggers == 0 {
		t.Error("injector never fired")
	}

	// Control: a non-censored domain keeps the poisoning signature
	// (answer only from the final hop).
	ctr := IterativeTraceDNS(sify.Client, sify.DefaultResolver, w.Catalog.PBWDomains()[1], time.Second)
	if ctr.Injected {
		t.Error("clean domain misclassified as injected")
	}
}

// The resolver-scan heuristics must also survive an injector: answers
// arriving from mid-path carry the forged address, which the bogon
// heuristic catches.
func TestScanHeuristicsCatchInjectedBogon(t *testing.T) {
	w := world(t)
	siti := w.ISP("Siti")
	victim := pickNormal(t, w)
	inj := middlebox.NewDNSInjector(w.Net, middlebox.Config{
		ID: "synthetic-injector-2", ASN: siti.ASN,
		Blocklist:   middlebox.NewBlocklist([]string{victim}),
		Scope:       middlebox.ScopeAll,
		OwnPrefixes: siti.Prefixes,
	}, netip.MustParseAddr("10.66.6.6"))
	siti.Edges[0].AttachTap(inj)

	p := New(w, siti)
	scan := p.ScanResolvers([]netip.Addr{siti.DefaultResolver}, []string{victim})
	if len(scan.BlockedBy) != 1 {
		t.Errorf("injected-bogon answer not flagged: %+v", scan.BlockedBy)
	}
}

func pickNormal(t testing.TB, w *ispnet.World) string {
	t.Helper()
	for _, s := range w.Catalog.PBW {
		if s.Kind == websim.KindNormal {
			return s.Domain
		}
	}
	t.Fatal("no normal site")
	return ""
}

// dnssim keeps resolvers honest for non-censoring ISPs: sanity-check that
// clean ISPs' default resolvers answer identically to the public one.
func TestCleanResolversHonest(t *testing.T) {
	w := world(t)
	for _, name := range []string{"NKN", "Sify", "Airtel", "Jio"} {
		isp := w.ISP(name)
		d := pickNormal(t, w)
		local, _, err := isp.Client.DNS.ResolveA(isp.DefaultResolver, d, 2*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		public, _, err := w.Control.DNS.ResolveA(w.GoogleDNS, d, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if local[0] != public[0] {
			t.Errorf("%s: local %v != public %v for %s", name, local[0], public[0], d)
		}
	}
}
