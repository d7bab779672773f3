package probe

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ispnet"
)

// naiveMatch is the matcher the compiled signature sets replaced: one
// bytes.Contains per marker, the world catalogue first and then the
// paper's list. It returns the index of the winning signature in that
// combined order, or -1.
func naiveMatch(w *ispnet.World, stream []byte) (isp string, idx int) {
	var sigs []ispnet.NotifSignature
	if w != nil {
		sigs = append(sigs, w.NotifSignatures()...)
	}
	sigs = append(sigs, KnownSignatures...)
	for i, sig := range sigs {
		if bytes.Contains(stream, []byte(sig.Marker)) {
			return sig.ISP, i
		}
	}
	return "", -1
}

// customWorld is the small world with one censor's notification page
// replaced by a body no paper list knows. The body opens with a periodic
// run of capitals, so its anchor sits at the start and can occur again
// overlapping itself: a stream with an extra "BLOCK" in front holds an
// anchor hit that fails verification just before the true one.
func customWorld(t *testing.T) *ispnet.World {
	t.Helper()
	sc := ispnet.SmallScenario()
	sc.Name = "custom-notification"
	for i := range sc.ISPs {
		if sc.ISPs[i].Notification.Body != "" {
			sc.ISPs[i].Notification.Body = "BLOCKBLOCKBLOCK: by order of the Ministry " +
				"(ref 7/2018-CS) this site is unavailable. Contact noc@example.net"
			break
		}
	}
	cfg, err := ispnet.Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	return ispnet.NewWorld(cfg)
}

// randomStream builds a stream of HTML-ish filler with markers spliced in
// whole, truncated at either end, overlapping a partial copy of
// themselves or of another marker, with one byte flipped, and repeated.
func randomStream(rng *rand.Rand, markers []string) []byte {
	const filler = "<html><body>the quick DoT TATA 49.44 airtel.in/do Government </p>\r\n"
	var b []byte
	for n := rng.Intn(8); n >= 0; n-- {
		m := markers[rng.Intn(len(markers))]
		switch rng.Intn(8) {
		case 0:
			i := rng.Intn(len(filler))
			b = append(b, filler[i:i+rng.Intn(len(filler)-i)+1]...)
		case 1:
			b = append(b, m...)
		case 2:
			b = append(b, m[:rng.Intn(len(m))]...)
		case 3:
			b = append(b, m[rng.Intn(len(m))+1:]...)
		case 4:
			b = append(b, m[:rng.Intn(len(m))]...)
			b = append(b, m...)
		case 5:
			o := markers[rng.Intn(len(markers))]
			b = append(b, o[:rng.Intn(len(o))]...)
			b = append(b, m[rng.Intn(len(m)):]...)
		case 6:
			i := len(b)
			b = append(b, m...)
			b[i+rng.Intn(len(m))] ^= 1 << uint(rng.Intn(8))
		case 7:
			for k := rng.Intn(3) + 2; k > 0; k-- {
				b = append(b, m...)
			}
		}
	}
	return b
}

// Property: on random streams the compiled sets return exactly what the
// naive in-order scan returns, for the paper world, the small world, a
// world with its own notification body, and no world at all; every
// signature wins at least once, so every marker was exercised.
func TestMatchSignatureInMatchesNaive(t *testing.T) {
	worlds := []struct {
		name string
		w    *ispnet.World
	}{
		{"nil", nil},
		{"small", ispnet.NewWorld(ispnet.SmallConfig())},
		{"paper-2018", ispnet.NewWorld(ispnet.DefaultConfig())},
		{"custom", customWorld(t)},
	}
	for _, tc := range worlds {
		t.Run(tc.name, func(t *testing.T) {
			var markers []string
			if tc.w != nil {
				for _, sig := range tc.w.NotifSignatures() {
					markers = append(markers, sig.Marker)
				}
			}
			for _, sig := range KnownSignatures {
				markers = append(markers, sig.Marker)
			}
			won := make([]int, len(markers))
			misses := 0
			rng := rand.New(rand.NewSource(2018))
			for iter := 0; iter < 20000; iter++ {
				stream := randomStream(rng, markers)
				got, ok := MatchSignatureIn(tc.w, stream)
				want, idx := naiveMatch(tc.w, stream)
				if got != want || ok != (idx >= 0) {
					t.Fatalf("stream %q: got %q/%v, naive %q (signature %d)", stream, got, ok, want, idx)
				}
				if idx >= 0 {
					won[idx]++
				} else {
					misses++
				}
			}
			for i, n := range won {
				if n == 0 {
					t.Errorf("signature %d (%.30q) never won: the generator does not reach it", i, markers[i])
				}
			}
			if misses == 0 {
				t.Error("no stream without a signature")
			}
		})
	}
}

func TestMatchSignatureInAllocatesNothing(t *testing.T) {
	w := world(t)
	sigs := w.NotifSignatures()
	streams := [][]byte{
		[]byte("HTTP/1.1 200 OK\r\n\r\n" + sigs[len(sigs)-1].Marker),
		[]byte("HTTP/1.1 200 OK\r\n\r\n<html>" + KnownSignatures[len(KnownSignatures)-1].Marker),
		bytes.Repeat([]byte("<html><body>an ordinary page</body></html>\n"), 20),
	}
	for _, s := range streams {
		if n := testing.AllocsPerRun(100, func() { MatchSignatureIn(w, s) }); n != 0 {
			t.Errorf("MatchSignatureIn: %v allocs/op, want 0", n)
		}
	}
}

// A FetchResult owns its bytes: they are the receive buffer of the fetch's
// own dead connection, so neither later fetches from the same endpoint nor
// a reader that consumes (and so compacts) another connection's buffer
// can change them.
func TestFetchResultBytesStayPut(t *testing.T) {
	w := world(t)
	p := New(w, w.ISP("NKN"))
	domain := pickNormal(t, w)
	res, err := p.FetchViaTor(domain)
	if err != nil || len(res.Responses) == 0 || len(res.Body()) == 0 {
		t.Fatalf("fetch %s via Tor: %v, %d responses", domain, err, len(res.Responses))
	}
	stream, body := bytes.Clone(res.Stream), bytes.Clone(res.Body())

	for i := 0; i < 3; i++ {
		if _, err := p.FetchViaTor(domain); err != nil {
			t.Fatal(err)
		}
		p.FetchDirect(w.Catalog.PBW[i+1].Domain)
	}

	c, err := connEstablish(w.TorExit, res.Addr, p.Timeout)
	if err != nil {
		t.Fatal(err)
	}
	compacted := false
	for i := 0; i < 200 && !compacted; i++ {
		c.Send(p.stdRequest(domain))
		w.Eng.RunFor(200 * time.Millisecond)
		before := c.Buffered()
		c.Consume(before)
		compacted = before > 0 && len(c.Stream()) == 0
	}
	if !compacted {
		t.Fatal("the reader never compacted its receive buffer")
	}
	c.Send(p.stdRequest(domain))
	w.Eng.RunFor(200 * time.Millisecond)
	c.Abort()

	if !bytes.Equal(res.Stream, stream) || !bytes.Equal(res.Body(), body) {
		t.Error("the fetch result's bytes changed after later traffic on its endpoint")
	}
}
