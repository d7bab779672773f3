// Package dnswire implements the subset of the RFC 1035 DNS wire format the
// reproduction needs: A-record queries and responses with name compression.
// Both the simulated resolvers and the probe's DNS measurement code speak
// this format over simulated UDP, so a censor that injects or poisons
// responses must produce bytes a real stub resolver would accept.
package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
)

// RCode is a DNS response code.
type RCode uint8

// Response codes used in the simulation.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeRefused  RCode = 5
)

func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE(%d)", uint8(r))
	}
}

// Record types and classes.
const (
	TypeA   uint16 = 1
	ClassIN uint16 = 1
)

// Question is one DNS question.
type Question struct {
	Name  string
	Type  uint16
	Class uint16
}

// ARecord is an answer-section A record.
type ARecord struct {
	Name string
	TTL  uint32
	Addr netip.Addr
}

// Message is a DNS message restricted to A queries/answers.
type Message struct {
	ID                 uint16
	Response           bool
	RecursionDesired   bool
	RecursionAvailable bool
	Authoritative      bool
	RCode              RCode
	Questions          []Question
	Answers            []ARecord
}

// NewQuery builds a recursive A query for name with the given transaction ID.
func NewQuery(id uint16, name string) *Message {
	return &Message{
		ID:               id,
		RecursionDesired: true,
		Questions:        []Question{{Name: canonical(name), Type: TypeA, Class: ClassIN}},
	}
}

// Answer builds the response to q carrying the given addresses. An empty
// addrs slice with RCodeNoError yields a NODATA answer.
func (m *Message) Answer(rcode RCode, ttl uint32, addrs ...netip.Addr) *Message {
	r := &Message{
		ID:                 m.ID,
		Response:           true,
		RecursionDesired:   m.RecursionDesired,
		RecursionAvailable: true,
		RCode:              rcode,
		Questions:          append([]Question(nil), m.Questions...),
	}
	if len(m.Questions) > 0 {
		for _, a := range addrs {
			r.Answers = append(r.Answers, ARecord{Name: m.Questions[0].Name, TTL: ttl, Addr: a})
		}
	}
	return r
}

// canonical lower-cases and strips any trailing dot.
func canonical(name string) string {
	return strings.TrimSuffix(strings.ToLower(name), ".")
}

// Marshal serializes the message to wire bytes, compressing answer names
// that repeat the question name.
func (m *Message) Marshal() ([]byte, error) {
	b := make([]byte, 12, 64)
	binary.BigEndian.PutUint16(b[0:2], m.ID)
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode) & 0x0f
	binary.BigEndian.PutUint16(b[2:4], flags)
	binary.BigEndian.PutUint16(b[4:6], uint16(len(m.Questions)))
	binary.BigEndian.PutUint16(b[6:8], uint16(len(m.Answers)))

	nameOffsets := map[string]int{}
	var err error
	for _, q := range m.Questions {
		if b, err = appendName(b, q.Name, nameOffsets); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint16(b, q.Type)
		b = binary.BigEndian.AppendUint16(b, q.Class)
	}
	for _, a := range m.Answers {
		if b, err = appendName(b, a.Name, nameOffsets); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint16(b, TypeA)
		b = binary.BigEndian.AppendUint16(b, ClassIN)
		b = binary.BigEndian.AppendUint32(b, a.TTL)
		b = binary.BigEndian.AppendUint16(b, 4)
		if !a.Addr.Is4() {
			return nil, fmt.Errorf("dnswire: A record with non-IPv4 address %v", a.Addr)
		}
		v4 := a.Addr.As4()
		b = append(b, v4[:]...)
	}
	return b, nil
}

// appendName appends name in wire format, emitting a compression pointer if
// the exact name was already written.
func appendName(b []byte, name string, offsets map[string]int) ([]byte, error) {
	name = canonical(name)
	if name == "" {
		return append(b, 0), nil
	}
	if off, ok := offsets[name]; ok && off < 0x3fff {
		return binary.BigEndian.AppendUint16(b, 0xc000|uint16(off)), nil
	}
	offsets[name] = len(b)
	for _, label := range strings.Split(name, ".") {
		if label == "" {
			return nil, fmt.Errorf("dnswire: empty label in %q", name)
		}
		if len(label) > 63 {
			return nil, fmt.Errorf("dnswire: label too long in %q", name)
		}
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	return append(b, 0), nil
}

// Parse decodes wire bytes into a Message. Unknown record types in the
// answer section are skipped, not rejected.
func Parse(b []byte) (*Message, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("dnswire: short message (%d bytes)", len(b))
	}
	m := &Message{ID: binary.BigEndian.Uint16(b[0:2])}
	flags := binary.BigEndian.Uint16(b[2:4])
	m.Response = flags&(1<<15) != 0
	m.Authoritative = flags&(1<<10) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.RCode = RCode(flags & 0x0f)
	qd := int(binary.BigEndian.Uint16(b[4:6]))
	an := int(binary.BigEndian.Uint16(b[6:8]))

	off := 12
	var last string // the last name parsed: answers usually repeat it
	for i := 0; i < qd; i++ {
		name, n, err := parseName(b, off, last)
		if err != nil {
			return nil, err
		}
		last = name
		off = n
		if off+4 > len(b) {
			return nil, fmt.Errorf("dnswire: truncated question")
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  binary.BigEndian.Uint16(b[off : off+2]),
			Class: binary.BigEndian.Uint16(b[off+2 : off+4]),
		})
		off += 4
	}
	for i := 0; i < an; i++ {
		name, n, err := parseName(b, off, last)
		if err != nil {
			return nil, err
		}
		last = name
		off = n
		if off+10 > len(b) {
			return nil, fmt.Errorf("dnswire: truncated answer")
		}
		typ := binary.BigEndian.Uint16(b[off : off+2])
		ttl := binary.BigEndian.Uint32(b[off+4 : off+8])
		rdlen := int(binary.BigEndian.Uint16(b[off+8 : off+10]))
		off += 10
		if off+rdlen > len(b) {
			return nil, fmt.Errorf("dnswire: truncated rdata")
		}
		if typ == TypeA && rdlen == 4 {
			m.Answers = append(m.Answers, ARecord{
				Name: name, TTL: ttl,
				Addr: netip.AddrFrom4([4]byte(b[off : off+4])),
			})
		}
		off += rdlen
	}
	return m, nil
}

// parseName decodes a possibly-compressed name starting at off, returning
// the name and the offset just past it. The name is assembled in a stack
// buffer sized for the RFC 1035 limit and converted to a string once; when
// it equals like (the name parsed before it), like itself is returned and
// nothing is allocated.
func parseName(b []byte, off int, like string) (string, int, error) {
	var buf [255]byte
	name := buf[:0]
	end := -1 // offset after the name in the original stream
	jumps := 0
	for {
		if off >= len(b) {
			return "", 0, fmt.Errorf("dnswire: name runs past message")
		}
		c := int(b[off])
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			if string(name) == like {
				return like, end, nil
			}
			return string(name), end, nil
		case c&0xc0 == 0xc0:
			if off+1 >= len(b) {
				return "", 0, fmt.Errorf("dnswire: truncated compression pointer")
			}
			if end < 0 {
				end = off + 2
			}
			ptr := (c&0x3f)<<8 | int(b[off+1])
			if ptr >= off {
				return "", 0, fmt.Errorf("dnswire: forward compression pointer")
			}
			off = ptr
			if jumps++; jumps > 32 {
				return "", 0, fmt.Errorf("dnswire: compression loop")
			}
		case c&0xc0 != 0:
			return "", 0, fmt.Errorf("dnswire: bad label type %#x", c)
		default:
			if off+1+c > len(b) {
				return "", 0, fmt.Errorf("dnswire: truncated label")
			}
			if len(name) > 0 {
				name = append(name, '.')
			}
			name = append(name, b[off+1:off+1+c]...)
			off += 1 + c
		}
	}
}
