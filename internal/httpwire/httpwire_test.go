package httpwire

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestStandardGETParses(t *testing.T) {
	b := StandardGET("blocked.example.in", "/")
	req, rest, err := ParseRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("leftover bytes: %q", rest)
	}
	if req.Method != "GET" || req.Target != "/" || req.Proto != "HTTP/1.1" {
		t.Errorf("request line = %s %s %s", req.Method, req.Target, req.Proto)
	}
	host, ok := req.Host()
	if !ok || host != "blocked.example.in" {
		t.Errorf("Host = %q, %v", host, ok)
	}
}

// The wiretap-middlebox evasion: a server must accept "HOst:" etc. per RFC
// 2616, even though the middleboxes do literal matches.
func TestHostCaseInsensitive(t *testing.T) {
	for _, variant := range []string{"HOst", "HoST", "HoSt", "HOST", "host"} {
		b := NewGET("/").RawLine(variant + ": blocked.example.in").Bytes()
		req, _, err := ParseRequest(b)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		host, ok := req.Host()
		if !ok || host != "blocked.example.in" {
			t.Errorf("%s: Host = %q, %v", variant, host, ok)
		}
	}
}

// The overt-IM evasion: extra spaces/tabs around the Host value must be
// stripped by a compliant server.
func TestHostWhitespacePadding(t *testing.T) {
	cases := []string{
		"Host:  blocked.example.in",
		"Host:\tblocked.example.in",
		"Host: blocked.example.in   ",
		"Host:   blocked.example.in\t",
	}
	for _, line := range cases {
		b := NewGET("/").RawLine(line).Bytes()
		req, _, err := ParseRequest(b)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		host, ok := req.Host()
		if !ok || host != "blocked.example.in" {
			t.Errorf("%q: Host = %q", line, host)
		}
	}
}

// First Host wins at the server (RFC 2616 vhost selection); the covert IM
// in the paper matches the last one instead.
func TestFirstHostWins(t *testing.T) {
	b := NewGET("/").
		Header("Host", "blocked.example.in").
		Header("Host", "allowed.example.in").
		Bytes()
	req, _, err := ParseRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := req.Host()
	if host != "blocked.example.in" {
		t.Errorf("server picked %q, want first Host", host)
	}
}

func TestLowercaseMethodRejected(t *testing.T) {
	b := NewRequestLine("get / HTTP/1.1").Header("Host", "x.in").Bytes()
	if _, _, err := ParseRequest(b); err == nil {
		t.Error("lowercase method accepted")
	}
}

func TestIncompleteRequest(t *testing.T) {
	b := []byte("GET / HTTP/1.1\r\nHost: x.in\r\n") // no terminating blank line
	if _, _, err := ParseRequest(b); err != ErrIncomplete {
		t.Errorf("err = %v, want ErrIncomplete", err)
	}
}

func TestTrailingGarbageIsSecondMessage(t *testing.T) {
	// The covert-IM evasion payload: valid request, then junk that the
	// server should treat as a malformed second request.
	payload := append(StandardGET("blocked.example.in", "/"), []byte(" Host: allowed.example.in\r\n\r\n")...)
	req, rest, err := ParseRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := req.Host(); h != "blocked.example.in" {
		t.Errorf("first request host = %q", h)
	}
	if _, _, err := ParseRequest(rest); err == nil || err == ErrIncomplete {
		t.Errorf("junk second message should be a hard parse error, got %v", err)
	}
}

func TestWhitespaceBeforeColonRejected(t *testing.T) {
	b := NewGET("/").RawLine("Host : x.in").Bytes()
	if _, _, err := ParseRequest(b); err == nil {
		t.Error("space before colon accepted")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	body := []byte("<html><title>Hi There</title><body>hello</body></html>")
	r := NewResponse(200, "OK", body).
		AddHeader("Content-Type", "text/html").
		AddHeader("Server", "repro/1.0")
	b := r.Marshal()
	got, rest, err := ParseResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("leftover: %q", rest)
	}
	if got.StatusCode != 200 || got.Status != "OK" {
		t.Errorf("status = %d %s", got.StatusCode, got.Status)
	}
	if !bytes.Equal(got.Body, body) {
		t.Errorf("body mismatch")
	}
	if ct, _ := got.HeaderValue("content-type"); ct != "text/html" {
		t.Errorf("Content-Type = %q", ct)
	}
	names := got.HeaderNames()
	if len(names) != 3 || names[0] != "Content-Length" {
		t.Errorf("header names = %v", names)
	}
}

func TestResponseIncompleteBody(t *testing.T) {
	r := NewResponse(200, "OK", []byte("0123456789"))
	b := r.Marshal()
	if _, _, err := ParseResponse(b[:len(b)-3]); err != ErrIncomplete {
		t.Errorf("err = %v, want ErrIncomplete", err)
	}
}

func TestResponseNoContentLength(t *testing.T) {
	raw := []byte("HTTP/1.1 200 OK\r\nServer: x\r\n\r\nconnection-delimited body")
	r, rest, err := ParseResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Body) != "connection-delimited body" || rest != nil {
		t.Errorf("body = %q rest = %q", r.Body, rest)
	}
}

func TestPipelinedResponses(t *testing.T) {
	b := append(NewResponse(200, "OK", []byte("first")).Marshal(),
		NewResponse(400, "Bad Request", []byte("second")).Marshal()...)
	r1, rest, err := ParseResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	r2, rest, err := ParseResponse(rest)
	if err != nil {
		t.Fatal(err)
	}
	if r1.StatusCode != 200 || string(r1.Body) != "first" {
		t.Errorf("r1 = %d %q", r1.StatusCode, r1.Body)
	}
	if r2.StatusCode != 400 || string(r2.Body) != "second" || len(rest) != 0 {
		t.Errorf("r2 = %d %q rest=%q", r2.StatusCode, r2.Body, rest)
	}
}

func TestTitle(t *testing.T) {
	cases := []struct{ body, want string }{
		{"<html><title>My Site</title></html>", "My Site"},
		{"<HTML><TITLE> spaced </TITLE></HTML>", "spaced"},
		{"<html>no title</html>", ""},
		{"<title>unterminated", ""},
		{"", ""},
		// Bytes whose lower-casing changes length must not shift the
		// offsets: the tags are found in the body itself.
		{"İİİ<title>Hello</title>", "Hello"},
		{"\xff\xfe<title>Hello</title>", "Hello"},
		{"\xff<TiTlE>Ünïcode ŞİTE</tItLe>", "Ünïcode ŞİTE"},
		{"<<title<title>x</title>", "x"},
		{"<title></title>", ""},
	}
	for _, c := range cases {
		if got := Title([]byte(c.body)); got != c.want {
			t.Errorf("Title(%q) = %q, want %q", c.body, got, c.want)
		}
	}
}

func TestHeaderValueTrimming(t *testing.T) {
	h := Header{Name: "X", Raw: "  \t value with spaces \t "}
	if h.Value() != "value with spaces" {
		t.Errorf("Value = %q", h.Value())
	}
}

// Property: whatever headers we write with the builder, the parser returns
// them in order with names intact.
func TestPropertyBuilderParserAgree(t *testing.T) {
	f := func(names, values []string) bool {
		n := len(names)
		if len(values) < n {
			n = len(values)
		}
		if n > 20 {
			n = 20
		}
		b := NewGET("/page")
		var wantNames []string
		for i := 0; i < n; i++ {
			name := sanitizeToken(names[i])
			val := sanitizeValue(values[i])
			if name == "" {
				continue
			}
			b.Header(name, val)
			wantNames = append(wantNames, name)
		}
		req, _, err := ParseRequest(b.Bytes())
		if err != nil {
			return false
		}
		if len(req.Headers) != len(wantNames) {
			return false
		}
		for i, h := range req.Headers {
			if h.Name != wantNames[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sanitizeToken(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') || r == '-' {
			sb.WriteRune(r)
		}
	}
	if sb.Len() > 32 {
		return sb.String()[:32]
	}
	return sb.String()
}

func sanitizeValue(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if r >= 0x21 && r < 0x7f && r != ':' {
			sb.WriteRune(r)
		}
	}
	if sb.Len() > 64 {
		return sb.String()[:64]
	}
	return sb.String()
}

func TestParseAllocations(t *testing.T) {
	typical := NewResponse(200, "OK", []byte("<html><title>portal</title><body>hello</body></html>")).
		AddHeader("Content-Type", "text/html").
		AddHeader("Server", "repro/1.0").
		Marshal()
	if n := testing.AllocsPerRun(100, func() { _, _, _ = ParseResponse(typical) }); n > 3 {
		t.Errorf("ParseResponse: %v allocs/op, want <= 3", n)
	}
	for _, in := range [][]byte{typical, typical[:len(typical)-3], []byte("HTTP/1.1 2x0 OK\r\nA: b\r\n\r\n"), nil} {
		if n := testing.AllocsPerRun(100, func() { HasResponse(in) }); n != 0 {
			t.Errorf("HasResponse(%q): %v allocs/op, want 0", in, n)
		}
	}
	body := []byte("\xff<html><TITLE>portal</TITLE></html>")
	if n := testing.AllocsPerRun(100, func() { Title(body) }); n > 1 {
		t.Errorf("Title: %v allocs/op, want <= 1 (the result string)", n)
	}
}

// The parsed response aliases its input: the body is a window of it,
// clipped so that appending to the body cannot overwrite what follows.
func TestParseResponseAliasesInput(t *testing.T) {
	stream := append(NewResponse(200, "OK", []byte("first")).Marshal(),
		NewResponse(200, "OK", []byte("second")).Marshal()...)
	r, rest, err := ParseResponse(stream)
	if err != nil {
		t.Fatal(err)
	}
	if &r.Body[0] != &stream[len(stream)-len(rest)-len("first")] {
		t.Error("body does not alias the stream")
	}
	_ = append(r.Body, "XXXX"...)
	if r2, _, err := ParseResponse(rest); err != nil || string(r2.Body) != "second" {
		t.Errorf("appending to the first body clobbered the second response: %v %q", err, r2.Body)
	}
}
