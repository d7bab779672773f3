package httpwire

import (
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// referenceParseResponse is ParseResponse as it was before the single-pass,
// zero-copy parser, kept verbatim as the behaviour the new one must match.
func referenceParseResponse(stream []byte) (*Response, []byte, error) {
	idx := bytes.Index(stream, []byte(CRLF+CRLF))
	if idx < 0 {
		return nil, stream, ErrIncomplete
	}
	head := string(stream[:idx])
	rest := stream[idx+4:]
	lines := strings.Split(head, CRLF)
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, rest, fmt.Errorf("httpwire: malformed status line %q", lines[0])
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, rest, fmt.Errorf("httpwire: bad status code in %q", lines[0])
	}
	resp := &Response{Proto: parts[0], StatusCode: code}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	for _, l := range lines[1:] {
		colon := strings.IndexByte(l, ':')
		if colon <= 0 {
			return nil, rest, fmt.Errorf("httpwire: malformed response header %q", l)
		}
		resp.Headers = append(resp.Headers, Header{Name: l[:colon], Raw: l[colon+1:]})
	}
	if cl, ok := resp.HeaderValue("Content-Length"); ok {
		n, err := strconv.Atoi(cl)
		if err != nil || n < 0 {
			return nil, rest, fmt.Errorf("httpwire: bad Content-Length %q", cl)
		}
		if len(rest) < n {
			return nil, stream, ErrIncomplete
		}
		resp.Body = append([]byte(nil), rest[:n]...)
		return resp, rest[n:], nil
	}
	resp.Body = append([]byte(nil), rest...)
	return resp, nil, nil
}

// responseSeeds are the unit-test vectors plus malformed neighbours of
// them; they seed the fuzzer and run as plain test cases.
func responseSeeds() [][]byte {
	typical := NewResponse(200, "OK", []byte("<html><title>Hi There</title><body>hello</body></html>")).
		AddHeader("Content-Type", "text/html").
		AddHeader("Server", "repro/1.0").
		Marshal()
	pipelined := append(NewResponse(200, "OK", []byte("first")).Marshal(),
		NewResponse(400, "Bad Request", []byte("second")).Marshal()...)
	return [][]byte{
		typical,
		typical[:len(typical)-3],
		pipelined,
		NewResponse(204, "No Content", nil).Marshal(),
		[]byte("HTTP/1.1 200 OK\r\nServer: x\r\n\r\nconnection-delimited body"),
		[]byte("HTTP/1.1 200 OK\r\nServer: x\r\n\r\n"),
		[]byte("HTTP/1.1 200\r\n\r\n"),
		[]byte("HTTP/1.1 -7 odd reason with spaces\r\ncontent-LENGTH:\t 2 \r\n\r\nokmore"),
		[]byte("HTTP/1.1 +0200 OK\r\nContent-Length: 00000000000000000000003\r\n\r\nabc"),
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 9223372036854775808\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 1_0\r\n\r\n0123456789"),
		[]byte("HTTP/1.1 200 OK\r\nX: 1\r\nContent-Length: 1\r\nContent-Length: x\r\n\r\nab"),
		[]byte("HTTP/1.1 200 OK\r\n: empty name\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\nno colon\r\n\r\n"),
		[]byte("HTTP/1.1 2x0 OK\r\n\r\n"),
		[]byte("HTTP/1.1\r\n\r\n"),
		[]byte("HTTP/ 200 OK\r\n\r\n"),
		[]byte("ICY 200 OK\r\n\r\n"),
		[]byte("\r\n\r\n"),
		[]byte("\r\nHTTP/1.1 200 OK\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK"),
		nil,
	}
}

// checkAgainstReference parses stream with ParseResponse and the reference
// and fails on any difference: error or not (and its text), every field of
// the response, and the bytes left over.
func checkAgainstReference(t *testing.T, stream []byte) {
	t.Helper()
	in := bytes.Clone(stream)
	got, gotRest, gotErr := ParseResponse(in)
	want, wantRest, wantErr := referenceParseResponse(stream)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%q: err = %v, reference %v", stream, gotErr, wantErr)
	}
	if !bytes.Equal(gotRest, wantRest) || (gotRest == nil) != (wantRest == nil) {
		t.Fatalf("%q: rest = %q, reference %q", stream, gotRest, wantRest)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\n got %#v\nwant %#v", stream, got, want)
	}
	if HasResponse(in) != (gotErr == nil) {
		t.Fatalf("%q: HasResponse = %v with err %v", stream, HasResponse(in), gotErr)
	}
	if got != nil && len(got.Body) > 0 && cap(got.Body) != len(got.Body) {
		t.Fatalf("%q: body capacity %d exceeds its length %d", stream, cap(got.Body), len(got.Body))
	}
}

func TestParseResponseMatchesReference(t *testing.T) {
	for _, s := range responseSeeds() {
		checkAgainstReference(t, s)
	}
}

func FuzzParseResponse(f *testing.F) {
	for _, s := range responseSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		checkAgainstReference(t, stream)
		if got, want := ParseResponses(stream), referenceParseAll(stream); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: ParseResponses = %#v, reference %#v", stream, got, want)
		}
	})
}

// referenceParseAll is the loop ParseResponses replaced, over the
// reference parser.
func referenceParseAll(stream []byte) []*Response {
	var out []*Response
	for len(stream) > 0 {
		resp, rest, err := referenceParseResponse(stream)
		if err != nil {
			break
		}
		out = append(out, resp)
		stream = rest
	}
	return out
}
