// Package netpkt models IPv4, TCP, UDP and ICMP packets with full wire
// serialization, in the layered style of gopacket but with zero
// dependencies. The simulator passes *Packet values between nodes; the
// Marshal/Parse pair produces and consumes real header bytes (including
// checksums), so components that must behave like on-path hardware — the
// censorship middleboxes, the client packet filter — can work from raw
// bytes exactly as their real counterparts do.
package netpkt

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Protocol is an IPv4 protocol number.
type Protocol uint8

// Protocol numbers used by the simulation (IANA assigned values).
const (
	ProtoICMP Protocol = 1
	ProtoTCP  Protocol = 6
	ProtoUDP  Protocol = 17
)

func (p Protocol) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Packet is one IPv4 datagram with exactly one transport layer attached.
// Exactly one of TCP, UDP, ICMP is non-nil, matching IP.Protocol.
type Packet struct {
	IP   IPv4
	TCP  *TCPSegment
	UDP  *UDPDatagram
	ICMP *ICMPMessage
}

// Clone deep-copies the packet, so taps (wiretap middleboxes) can hold a
// copy without aliasing payload bytes mutated elsewhere.
func (p *Packet) Clone() *Packet {
	q := &Packet{IP: p.IP}
	if p.TCP != nil {
		t := *p.TCP
		t.Payload = append([]byte(nil), p.TCP.Payload...)
		q.TCP = &t
	}
	if p.UDP != nil {
		u := *p.UDP
		u.Payload = append([]byte(nil), p.UDP.Payload...)
		q.UDP = &u
	}
	if p.ICMP != nil {
		i := *p.ICMP
		i.Original = append([]byte(nil), p.ICMP.Original...)
		q.ICMP = &i
	}
	return q
}

// FlowKey identifies one direction of a transport flow.
type FlowKey struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Proto            Protocol
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s %s:%d>%s:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// FlowID is the pointer-free form of a FlowKey, for map keys on the
// packet path: it hashes and compares as plain bytes, where FlowKey's
// netip.Addr fields carry a pointer.
type FlowID struct {
	Src, Dst         [16]byte // netip.Addr.As16
	SrcPort, DstPort uint16
	Proto            Protocol
}

// ID returns the key's FlowID.
func (k FlowKey) ID() FlowID {
	return FlowID{Src: k.Src.As16(), Dst: k.Dst.As16(), SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto}
}

// Reverse returns the ID of the opposite direction.
func (id FlowID) Reverse() FlowID {
	return FlowID{Src: id.Dst, Dst: id.Src, SrcPort: id.DstPort, DstPort: id.SrcPort, Proto: id.Proto}
}

// V4Key returns an IPv4 address as a big-endian uint32, the index key
// of per-address tables on the packet path. addr must be IPv4.
func V4Key(addr netip.Addr) uint32 {
	b := addr.As4()
	return binary.BigEndian.Uint32(b[:])
}

// Flow returns the packet's flow key, or a zero key for ICMP.
func (p *Packet) Flow() FlowKey {
	switch {
	case p.TCP != nil:
		return FlowKey{Src: p.IP.Src, Dst: p.IP.Dst, SrcPort: p.TCP.SrcPort, DstPort: p.TCP.DstPort, Proto: ProtoTCP}
	case p.UDP != nil:
		return FlowKey{Src: p.IP.Src, Dst: p.IP.Dst, SrcPort: p.UDP.SrcPort, DstPort: p.UDP.DstPort, Proto: ProtoUDP}
	default:
		return FlowKey{Src: p.IP.Src, Dst: p.IP.Dst, Proto: ProtoICMP}
	}
}

// Summary renders a one-line tcpdump-style description, used by the packet
// trace renderers for Figures 1, 3 and 4.
func (p *Packet) Summary() string {
	switch {
	case p.TCP != nil:
		s := fmt.Sprintf("%s:%d > %s:%d TCP %s seq=%d ack=%d len=%d ttl=%d",
			p.IP.Src, p.TCP.SrcPort, p.IP.Dst, p.TCP.DstPort,
			p.TCP.Flags, p.TCP.Seq, p.TCP.Ack, len(p.TCP.Payload), p.IP.TTL)
		if p.IP.ID != 0 {
			s += fmt.Sprintf(" ipid=%d", p.IP.ID)
		}
		return s
	case p.UDP != nil:
		return fmt.Sprintf("%s:%d > %s:%d UDP len=%d ttl=%d",
			p.IP.Src, p.UDP.SrcPort, p.IP.Dst, p.UDP.DstPort, len(p.UDP.Payload), p.IP.TTL)
	case p.ICMP != nil:
		return fmt.Sprintf("%s > %s ICMP %s", p.IP.Src, p.IP.Dst, p.ICMP.Kind())
	default:
		return fmt.Sprintf("%s > %s proto=%d", p.IP.Src, p.IP.Dst, p.IP.Protocol)
	}
}
