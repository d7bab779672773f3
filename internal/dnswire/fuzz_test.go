package dnswire

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// referenceParse and referenceParseName are Parse and parseName as they
// were before names were built in a stack buffer, kept verbatim as the
// behaviour the new decoder must match.
func referenceParse(b []byte) (*Message, error) {
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
	for i := 0; i < qd; i++ {
		name, n, err := referenceParseName(b, off)
		if err != nil {
			return nil, err
		}
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
		name, n, err := referenceParseName(b, off)
		if err != nil {
			return nil, err
		}
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

func referenceParseName(b []byte, off int) (string, int, error) {
	var labels []string
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
			return strings.Join(labels, "."), end, nil
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
			labels = append(labels, string(b[off+1:off+1+c]))
			off += 1 + c
		}
	}
}

// messageSeeds are the unit-test vectors plus hand-made edge cases; they
// seed the fuzzer and run as plain test cases.
func messageSeeds(t testing.TB) [][]byte {
	marshal := func(m *Message) []byte {
		b, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	q := NewQuery(7, "blocked.example.in")
	long := NewQuery(1, "a-long-domain-name.example.org")
	return [][]byte{
		marshal(NewQuery(0x1234, "www.Example.COM.")),
		marshal(q.Answer(RCodeNoError, 300,
			netip.AddrFrom4([4]byte{192, 0, 2, 1}), netip.AddrFrom4([4]byte{192, 0, 2, 2}))),
		marshal(long.Answer(RCodeNoError, 60,
			netip.AddrFrom4([4]byte{1, 1, 1, 1}), netip.AddrFrom4([4]byte{2, 2, 2, 2}), netip.AddrFrom4([4]byte{3, 3, 3, 3}))),
		marshal(q.Answer(RCodeNXDomain, 0)),
		marshal(NewQuery(3, "")),
		nil,
		{1, 2, 3},
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0},
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 9, 'a'},
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 0x20},
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 12, 0, 1, 0, 1},
		{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 1, 0, 1},
		// An answer whose name differs from the question's, and a CNAME
		// that is skipped.
		{0, 1, 0x81, 0x80, 0, 1, 0, 2, 0, 0, 0, 0,
			1, 'a', 0, 0, 1, 0, 1,
			1, 'b', 0xc0, 12, 0, 5, 0, 1, 0, 0, 0, 9, 0, 2, 0xc0, 12,
			0xc0, 12, 0, 1, 0, 1, 0, 0, 0, 9, 0, 4, 10, 0, 0, 1},
	}
}

// checkAgainstReference fails on any difference between Parse and the
// reference: error or not (and its text), and every field.
func checkAgainstReference(t *testing.T, b []byte) {
	t.Helper()
	got, gotErr := Parse(b)
	want, wantErr := referenceParse(b)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("% x: err = %v, reference %v", b, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("% x:\n got %+v\nwant %+v", b, got, want)
	}
}

func TestParseMatchesReference(t *testing.T) {
	for _, b := range messageSeeds(t) {
		checkAgainstReference(t, b)
	}
}

func FuzzParse(f *testing.F) {
	for _, b := range messageSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(checkAgainstReference)
}
