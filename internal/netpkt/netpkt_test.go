package netpkt

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

var (
	srcA = netip.AddrFrom4([4]byte{10, 1, 2, 3})
	dstA = netip.AddrFrom4([4]byte{203, 0, 113, 9})
)

func TestTCPRoundTrip(t *testing.T) {
	p := NewTCP(srcA, dstA, &TCPSegment{
		SrcPort: 43512, DstPort: 80,
		Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: SYN | ACK, Window: 65535,
		Payload: []byte("GET / HTTP/1.1\r\nHost: example.com\r\n\r\n"),
	})
	p.IP.TTL = 9
	p.IP.ID = 242
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.IP != p.IP {
		t.Errorf("IP header mismatch: %+v vs %+v", q.IP, p.IP)
	}
	if q.TCP == nil {
		t.Fatal("TCP layer lost")
	}
	if q.TCP.Seq != p.TCP.Seq || q.TCP.Ack != p.TCP.Ack || q.TCP.Flags != p.TCP.Flags ||
		q.TCP.SrcPort != p.TCP.SrcPort || q.TCP.DstPort != p.TCP.DstPort || q.TCP.Window != p.TCP.Window {
		t.Errorf("TCP header mismatch: %+v vs %+v", q.TCP, p.TCP)
	}
	if !bytes.Equal(q.TCP.Payload, p.TCP.Payload) {
		t.Errorf("payload mismatch")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	p := NewUDP(srcA, dstA, &UDPDatagram{SrcPort: 5353, DstPort: 53, Payload: []byte{1, 2, 3, 4, 5}})
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.UDP == nil || q.UDP.SrcPort != 5353 || q.UDP.DstPort != 53 || !bytes.Equal(q.UDP.Payload, p.UDP.Payload) {
		t.Errorf("UDP mismatch: %+v", q.UDP)
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	p := &Packet{
		IP:   IPv4{Src: srcA, Dst: dstA, TTL: 64, Protocol: ProtoICMP},
		ICMP: &ICMPMessage{Type: ICMPEchoRequest, ID: 77, Seq: 3},
	}
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.ICMP.Type != ICMPEchoRequest || q.ICMP.ID != 77 || q.ICMP.Seq != 3 {
		t.Errorf("ICMP echo mismatch: %+v", q.ICMP)
	}
}

func TestTimeExceededEmbedsOriginalFlow(t *testing.T) {
	probe := NewTCP(srcA, dstA, &TCPSegment{SrcPort: 40000, DstPort: 80, Seq: 1, Flags: SYN})
	probe.IP.TTL = 1
	router := netip.AddrFrom4([4]byte{100, 64, 0, 1})
	te := NewTimeExceeded(router, probe)
	b, err := te.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.IP.Src != router || q.IP.Dst != srcA {
		t.Errorf("time-exceeded addressed wrong: %v > %v", q.IP.Src, q.IP.Dst)
	}
	fk, ok := q.ICMP.OriginalFlow()
	if !ok {
		t.Fatal("OriginalFlow failed")
	}
	want := FlowKey{Src: srcA, Dst: dstA, SrcPort: 40000, DstPort: 80, Proto: ProtoTCP}
	if fk != want {
		t.Errorf("original flow = %v, want %v", fk, want)
	}
}

func TestCorruptionDetected(t *testing.T) {
	p := NewTCP(srcA, dstA, &TCPSegment{SrcPort: 1, DstPort: 2, Payload: []byte("hello")})
	b, _ := p.Marshal()
	for _, i := range []int{8 /*TTL*/, 13 /*src ip*/, 22 /*tcp*/, len(b) - 1 /*payload*/} {
		c := append([]byte(nil), b...)
		c[i] ^= 0xff
		if _, err := Parse(c); err == nil {
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x45},
		bytes.Repeat([]byte{0}, 20), // version 0
		append([]byte{0x46}, make([]byte, 19)...), // IHL beyond buffer
	}
	for i, b := range cases {
		if _, err := Parse(b); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: srcA, Dst: dstA, SrcPort: 1234, DstPort: 80, Proto: ProtoTCP}
	r := k.Reverse()
	if r.Src != dstA || r.Dst != srcA || r.SrcPort != 80 || r.DstPort != 1234 {
		t.Errorf("Reverse = %v", r)
	}
	if r.Reverse() != k {
		t.Error("double reverse should be identity")
	}
	// The pointer-free FlowID keys the same flows and reverses the same way.
	if k.ID().Reverse() != r.ID() || k.ID() == r.ID() {
		t.Errorf("FlowID.Reverse disagrees with FlowKey.Reverse: %v vs %v", k.ID().Reverse(), r.ID())
	}
	if got := V4Key(netip.MustParseAddr("10.1.2.3")); got != 0x0a010203 {
		t.Errorf("V4Key(10.1.2.3) = %#x, want 0x0a010203", got)
	}
}

func TestSeqSpan(t *testing.T) {
	cases := []struct {
		seg  TCPSegment
		want uint32
	}{
		{TCPSegment{Flags: SYN}, 1},
		{TCPSegment{Flags: FIN}, 1},
		{TCPSegment{Flags: SYN | FIN}, 2},
		{TCPSegment{Flags: ACK}, 0},
		{TCPSegment{Flags: PSH | ACK, Payload: make([]byte, 10)}, 10},
		{TCPSegment{Flags: FIN | PSH | ACK, Payload: make([]byte, 5)}, 6},
	}
	for i, c := range cases {
		if got := c.seg.SeqSpan(); got != c.want {
			t.Errorf("case %d: SeqSpan = %d, want %d", i, got, c.want)
		}
	}
}

func TestClone(t *testing.T) {
	p := NewTCP(srcA, dstA, &TCPSegment{SrcPort: 1, DstPort: 2, Payload: []byte("abc")})
	q := p.Clone()
	q.TCP.Payload[0] = 'X'
	q.TCP.Seq = 999
	if p.TCP.Payload[0] != 'a' || p.TCP.Seq == 999 {
		t.Error("Clone aliases original")
	}
}

func TestFlagsString(t *testing.T) {
	if s := (SYN | ACK).String(); s != "SYN+ACK" {
		t.Errorf("SYN|ACK = %q", s)
	}
	if s := (FIN | PSH | ACK).String(); s != "ACK+FIN+PSH" {
		t.Errorf("FIN|PSH|ACK = %q", s)
	}
	if s := TCPFlags(0).String(); s != "none" {
		t.Errorf("zero flags = %q", s)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0x0001, 0xf203, 0xf4f5, 0xf6f7 -> sum 0xddf2 -> ^= 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := checksum(b); got != 0x220d {
		t.Errorf("checksum = %#04x, want 0x220d", got)
	}
}

// Property: Marshal/Parse round-trips arbitrary TCP segments.
func TestPropertyTCPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		p := NewTCP(srcA, dstA, &TCPSegment{
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: TCPFlags(flags & 0x3f), Window: win, Payload: payload,
		})
		b, err := p.Marshal()
		if err != nil {
			return false
		}
		q, err := Parse(b)
		if err != nil {
			return false
		}
		return q.TCP.Seq == seq && q.TCP.Ack == ack && q.TCP.Flags == TCPFlags(flags&0x3f) &&
			bytes.Equal(q.TCP.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: UDP round-trips arbitrary payloads.
func TestPropertyUDPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		p := NewUDP(srcA, dstA, &UDPDatagram{SrcPort: sp, DstPort: dp, Payload: payload})
		b, err := p.Marshal()
		if err != nil {
			return false
		}
		q, err := Parse(b)
		if err != nil {
			return false
		}
		return q.UDP.SrcPort == sp && q.UDP.DstPort == dp && bytes.Equal(q.UDP.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMarshalTCP(b *testing.B) {
	p := NewTCP(srcA, dstA, &TCPSegment{SrcPort: 1234, DstPort: 80, Payload: make([]byte, 512)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseTCP(b *testing.B) {
	p := NewTCP(srcA, dstA, &TCPSegment{SrcPort: 1234, DstPort: 80, Payload: make([]byte, 512)})
	buf, _ := p.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(buf); err != nil {
			b.Fatal(err)
		}
	}
}
