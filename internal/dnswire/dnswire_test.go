package dnswire

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "www.Example.COM.")
	b, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 0x1234 || m.Response || !m.RecursionDesired {
		t.Errorf("header mismatch: %+v", m)
	}
	if len(m.Questions) != 1 || m.Questions[0].Name != "www.example.com" {
		t.Errorf("question = %+v", m.Questions)
	}
	if m.Questions[0].Type != TypeA || m.Questions[0].Class != ClassIN {
		t.Errorf("qtype/qclass = %d/%d", m.Questions[0].Type, m.Questions[0].Class)
	}
}

func TestAnswerRoundTrip(t *testing.T) {
	q := NewQuery(7, "blocked.example.in")
	a1 := netip.AddrFrom4([4]byte{192, 0, 2, 1})
	a2 := netip.AddrFrom4([4]byte{192, 0, 2, 2})
	resp := q.Answer(RCodeNoError, 300, a1, a2)
	b, err := resp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Response || !m.RecursionAvailable || m.RCode != RCodeNoError {
		t.Errorf("response header: %+v", m)
	}
	if len(m.Answers) != 2 || m.Answers[0].Addr != a1 || m.Answers[1].Addr != a2 {
		t.Errorf("answers = %+v", m.Answers)
	}
	if m.Answers[0].Name != "blocked.example.in" || m.Answers[0].TTL != 300 {
		t.Errorf("answer rr = %+v", m.Answers[0])
	}
}

func TestNameCompressionUsed(t *testing.T) {
	q := NewQuery(1, "a-long-domain-name.example.org")
	resp := q.Answer(RCodeNoError, 60,
		netip.AddrFrom4([4]byte{1, 1, 1, 1}),
		netip.AddrFrom4([4]byte{2, 2, 2, 2}),
		netip.AddrFrom4([4]byte{3, 3, 3, 3}))
	b, err := resp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// With compression each answer name is a 2-byte pointer; uncompressed
	// it would be 32 bytes. 3 answers uncompressed would exceed this bound.
	if len(b) > 12+32+4+3*(2+14) {
		t.Errorf("message not compressed: %d bytes", len(b))
	}
	m, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range m.Answers {
		if a.Name != "a-long-domain-name.example.org" {
			t.Errorf("decompressed name = %q", a.Name)
		}
	}
}

func TestNXDomain(t *testing.T) {
	q := NewQuery(9, "nonexistent.test")
	resp := q.Answer(RCodeNXDomain, 0)
	b, _ := resp.Marshal()
	m, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.RCode != RCodeNXDomain || len(m.Answers) != 0 {
		t.Errorf("nxdomain response = %+v", m)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		// header claiming one question but no body
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0},
		// label running past end
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 9, 'a'},
		// forward compression pointer
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 0x20},
	}
	for i, b := range cases {
		if _, err := Parse(b); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
}

func TestCompressionLoopRejected(t *testing.T) {
	// Pointer at offset 12 pointing to itself is a forward/self pointer.
	b := []byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 12, 0, 1, 0, 1}
	if _, err := Parse(b); err == nil {
		t.Error("self-pointing compression accepted")
	}
}

func TestLabelTooLong(t *testing.T) {
	q := NewQuery(1, strings.Repeat("x", 64)+".com")
	if _, err := q.Marshal(); err == nil {
		t.Error("64-byte label accepted")
	}
}

func TestRCodeStrings(t *testing.T) {
	if RCodeNXDomain.String() != "NXDOMAIN" || RCodeNoError.String() != "NOERROR" {
		t.Error("rcode strings wrong")
	}
}

// Property: query for any well-formed name round-trips.
func TestPropertyNameRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		// Build a well-formed name out of the fuzz bytes.
		var labels []string
		for i := 0; i < len(raw) && len(labels) < 6; i += 8 {
			end := i + 8
			if end > len(raw) {
				end = len(raw)
			}
			var sb strings.Builder
			for _, c := range raw[i:end] {
				sb.WriteByte("abcdefghijklmnopqrstuvwxyz0123456789-"[int(c)%37])
			}
			if sb.Len() > 0 {
				labels = append(labels, sb.String())
			}
		}
		if len(labels) == 0 {
			return true
		}
		name := strings.Join(labels, ".")
		name = strings.Trim(name, "-.")
		if name == "" || strings.Contains(name, "..") {
			return true
		}
		q := NewQuery(1, name)
		b, err := q.Marshal()
		if err != nil {
			return false
		}
		m, err := Parse(b)
		if err != nil {
			return false
		}
		return m.Questions[0].Name == canonical(name)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: answers with arbitrary IPv4 addresses round-trip.
func TestPropertyAnswerRoundTrip(t *testing.T) {
	f := func(id uint16, ip [4]byte, ttl uint32) bool {
		q := NewQuery(id, "site.example")
		resp := q.Answer(RCodeNoError, ttl, netip.AddrFrom4(ip))
		b, err := resp.Marshal()
		if err != nil {
			return false
		}
		m, err := Parse(b)
		if err != nil || len(m.Answers) != 1 {
			return false
		}
		return m.ID == id && m.Answers[0].Addr == netip.AddrFrom4(ip) && m.Answers[0].TTL == ttl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseAllocations(t *testing.T) {
	q := NewQuery(7, "blocked.example.in")
	b, err := q.Answer(RCodeNoError, 300, netip.AddrFrom4([4]byte{192, 0, 2, 1})).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = Parse(b) }); n > 5 {
		t.Errorf("Parse of an A answer: %v allocs/op, want <= 5", n)
	}
}
