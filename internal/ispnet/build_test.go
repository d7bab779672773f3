package ispnet

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/netip"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// fnvOf hashes a whole formatted key with hash/fnv: the reference the
// streamed build-time hashes must match.
func fnvOf(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func TestStreamedHashMatchesFNV(t *testing.T) {
	for _, s := range []string{"", "|", "MTNL", "www.example.com", "ü|\x00"} {
		for _, v := range []int{0, 7, 10, -3, 637, math.MaxInt64, math.MinInt64} {
			want := fnvOf(fmt.Sprintf("%s|%d|%s|poison", s, v, s))
			if got := uint64(fnvOffset.str(s).str("|").int(v).str("|").str(s).str("|poison")); got != want {
				t.Errorf("(%q, %d): streamed %#x, hash/fnv %#x", s, v, got, want)
			}
		}
	}
	// tlsRandom's words hash "<d>|tls-random", then "<d>|tls-random|<i>".
	for _, d := range []string{"a.com", "www.example.org"} {
		var want [32]byte
		h := fnvOf(d + "|tls-random")
		for i := 0; i < 32; i += 8 {
			for j := 0; j < 8; j++ {
				want[i+j] = byte(h >> (8 * j))
			}
			h = fnvOf(fmt.Sprintf("%s|tls-random|%d", d, i))
		}
		if got := tlsRandom(d); got != want {
			t.Errorf("tlsRandom(%q) = %x, want %x", d, got, want)
		}
	}
}

func TestPoisonAnswerZeroAlloc(t *testing.T) {
	w := world(t)
	var sink netip.Addr
	for _, name := range []string{"MTNL", "BSNL"} {
		r := w.ISP(name).Resolvers[0]
		list := r.PoisonList()
		if len(list) == 0 {
			t.Fatalf("%s: default resolver poisons nothing", name)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for _, d := range list {
				sink, _ = r.PoisonAnswer(d)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: poisoned-answer lookup allocates %.1f times per pass", name, allocs)
		}
	}
	_ = sink
}

func TestPodPolicyRejectsUnlinkedNextHop(t *testing.T) {
	n := netsim.New(sim.NewEngine(1))
	pod := n.AddRouter("pod0", ASNPodsUS, netip.MustParseAddr("190.1.0.1"))
	hub := n.AddRouter("hub", ASNHub, netip.MustParseAddr("190.0.0.1"))
	far := n.AddRouter("far", ASNHub, netip.MustParseAddr("190.0.0.2"))
	n.Link(pod, hub, time.Millisecond)
	n.Link(hub, far, time.Millisecond)
	prefixes := []netip.Prefix{netip.MustParsePrefix("59.0.0.0/24")}

	(&podPolicy{pod: pod, rules: []podRule{{prefixes: prefixes, next: hub}}}).install()
	defer func() {
		if recover() == nil {
			t.Error("install must reject a next hop not linked to the pod")
		}
	}()
	(&podPolicy{pod: pod, rules: []podRule{{prefixes: prefixes, next: far}}}).install()
}
