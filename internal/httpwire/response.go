package httpwire

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Response is an HTTP/1.1 response with a fully buffered body.
type Response struct {
	Proto      string
	StatusCode int
	Status     string // reason phrase
	Headers    []Header
	Body       []byte
}

// NewResponse builds a response with the given status and body, setting
// Content-Length automatically.
func NewResponse(code int, reason string, body []byte) *Response {
	return &Response{
		Proto:      "HTTP/1.1",
		StatusCode: code,
		Status:     reason,
		Body:       body,
		Headers: []Header{
			{Name: "Content-Length", Raw: " " + strconv.Itoa(len(body))},
		},
	}
}

// AddHeader appends a canonical "name: value" header.
func (r *Response) AddHeader(name, value string) *Response {
	r.Headers = append(r.Headers, Header{Name: name, Raw: " " + value})
	return r
}

// HeaderValue returns the trimmed value of the first header matching name
// case-insensitively.
func (r *Response) HeaderValue(name string) (string, bool) {
	for _, h := range r.Headers {
		if strings.EqualFold(h.Name, name) {
			return h.Value(), true
		}
	}
	return "", false
}

// HeaderNames returns the field names in order. OONI's web_connectivity
// compares exactly this set (names, not values) between control and
// experiment responses.
func (r *Response) HeaderNames() []string {
	names := make([]string, len(r.Headers))
	for i, h := range r.Headers {
		names[i] = h.Name
	}
	return names
}

// Marshal renders the response to wire bytes.
func (r *Response) Marshal() []byte {
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "%s %d %s%s", r.Proto, r.StatusCode, r.Status, CRLF)
	for _, h := range r.Headers {
		sb.WriteString(h.Name)
		sb.WriteByte(':')
		sb.WriteString(h.Raw)
		sb.WriteString(CRLF)
	}
	sb.WriteString(CRLF)
	sb.Write(r.Body)
	return sb.Bytes()
}

// ParseResponse consumes one response from the front of stream. If the
// header block declares a Content-Length larger than the available bytes it
// returns ErrIncomplete; with no Content-Length the remainder of the stream
// is taken as the body (connection-delimited).
//
// The response aliases stream rather than copying it: Body is a sub-slice
// of stream (capacity clipped to the body, nil when empty), and the string
// fields are cut from one copy of the header block. A caller that parses a
// buffer it will later overwrite must copy Body first; the rest of the
// response stays valid either way.
func ParseResponse(stream []byte) (*Response, []byte, error) {
	resp := new(Response)
	rest, f, detail := parseResponse(stream, resp)
	if f != parsed {
		return nil, rest, f.err(detail)
	}
	return resp, rest, nil
}

// HasResponse reports whether stream starts with a complete, well-formed
// response — whether ParseResponse would succeed — without allocating.
// Fetchers poll it while waiting for a server to finish answering.
func HasResponse(stream []byte) bool {
	_, f, _ := parseResponse(stream, nil)
	return f == parsed
}

// ParseResponses parses the responses at the front of stream, stopping at
// the first that is incomplete or malformed. It returns nil when not even
// the first response parses. The responses alias stream as ParseResponse
// documents.
func ParseResponses(stream []byte) []*Response {
	var out []*Response
	for len(stream) > 0 {
		resp, rest, err := ParseResponse(stream)
		if err != nil {
			break
		}
		out = append(out, resp)
		stream = rest
	}
	return out
}

// fault is why parseResponse stopped; the error text is only formatted
// when a caller asks for it, so validation alone never allocates.
type fault uint8

const (
	parsed fault = iota
	incomplete
	badStatusLine
	badStatusCode
	badHeader
	badLength
)

// err renders the fault as ParseResponse's error, detail being the
// offending line or value.
func (f fault) err(detail []byte) error {
	switch f {
	case incomplete:
		return ErrIncomplete
	case badStatusLine:
		return fmt.Errorf("httpwire: malformed status line %q", detail)
	case badStatusCode:
		return fmt.Errorf("httpwire: bad status code in %q", detail)
	case badHeader:
		return fmt.Errorf("httpwire: malformed response header %q", detail)
	case badLength:
		return fmt.Errorf("httpwire: bad Content-Length %q", detail)
	}
	return nil
}

var (
	crlf          = []byte(CRLF)
	headEnd       = []byte(CRLF + CRLF)
	contentLength = []byte("Content-Length")
)

// parseResponse is the single pass behind ParseResponse and HasResponse.
// With resp nil it only validates; otherwise it also fills resp, cutting
// every string from one copy of the header block and presizing Headers.
// It returns the unconsumed bytes, the fault (parsed on success) and the
// bytes the fault's message quotes.
func parseResponse(stream []byte, resp *Response) (rest []byte, f fault, detail []byte) {
	end := bytes.Index(stream, headEnd)
	if end < 0 {
		return stream, incomplete, nil
	}
	head := stream[:end]
	rest = stream[end+len(headEnd):]
	var text string // head as a string, when filling resp
	if resp != nil {
		text = string(head)
	}

	eol := lineEnd(head, 0)
	line := head[:eol]
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 || !bytes.HasPrefix(line[:sp], []byte("HTTP/")) {
		return rest, badStatusLine, line
	}
	codeEnd := len(line)
	if i := bytes.IndexByte(line[sp+1:], ' '); i >= 0 {
		codeEnd = sp + 1 + i
	}
	code, ok := atoi(line[sp+1 : codeEnd])
	if !ok {
		return rest, badStatusCode, line
	}
	if resp != nil {
		resp.Proto = text[:sp]
		resp.StatusCode = code
		if codeEnd < len(line) {
			resp.Status = text[codeEnd+1 : eol]
		}
		if n := bytes.Count(head, crlf); n > 0 {
			resp.Headers = make([]Header, 0, n)
		}
	}

	var length []byte
	haveLength := false
	for off := eol; off < len(head); {
		off += len(crlf)
		e := lineEnd(head, off)
		l := head[off:e]
		colon := bytes.IndexByte(l, ':')
		if colon <= 0 {
			return rest, badHeader, l
		}
		if resp != nil {
			resp.Headers = append(resp.Headers, Header{Name: text[off : off+colon], Raw: text[off+colon+1 : e]})
		}
		if !haveLength && bytes.EqualFold(l[:colon], contentLength) {
			length, haveLength = bytes.Trim(l[colon+1:], " \t"), true
		}
		off = e
	}

	if !haveLength {
		if resp != nil && len(rest) > 0 {
			resp.Body = rest[:len(rest):len(rest)]
		}
		return nil, parsed, nil
	}
	n, ok := atoi(length)
	if !ok || n < 0 {
		return rest, badLength, length
	}
	if len(rest) < n {
		return stream, incomplete, nil
	}
	if resp != nil && n > 0 {
		resp.Body = rest[:n:n]
	}
	return rest[n:], parsed, nil
}

// lineEnd returns the offset of the first CRLF in head at or after off, or
// len(head) when the line runs to the end.
func lineEnd(head []byte, off int) int {
	if i := bytes.Index(head[off:], crlf); i >= 0 {
		return off + i
	}
	return len(head)
}

// atoi parses b exactly as strconv.Atoi would (an optional sign, then
// decimal digits, within int64 range) without converting it to a string.
func atoi(b []byte) (int, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return int(-n), true
	}
	return int(n), true
}

// Title extracts the contents of the first <title> element of an HTML body,
// case-insensitively, or "" if none. OONI compares titles between control
// and experiment measurements. The tags are matched ASCII case-insensitively
// in body itself, so offsets stay valid whatever else the body holds.
func Title(body []byte) string {
	start := indexTag(body, "<title>")
	if start < 0 {
		return ""
	}
	start += len("<title>")
	end := indexTag(body[start:], "</title>")
	if end < 0 {
		return ""
	}
	return strings.TrimSpace(string(body[start : start+end]))
}

// indexTag returns the offset of the first ASCII case-insensitive match of
// tag (lower case, starting with '<') in s, or -1.
func indexTag(s []byte, tag string) int {
	for off := 0; len(s)-off >= len(tag); off++ {
		i := bytes.IndexByte(s[off:], '<')
		if i < 0 {
			return -1
		}
		off += i
		if len(s)-off < len(tag) {
			return -1
		}
		if asciiEqualFold(s[off:off+len(tag)], tag) {
			return off
		}
	}
	return -1
}

// asciiEqualFold reports whether b equals the lower-case ASCII string lower
// under ASCII case folding.
func asciiEqualFold(b []byte, lower string) bool {
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}
