package censor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// decoderSeeds are real campaign lines of every detector kind plus the
// edge cases of encoding/json's Result decoding the decoder must match.
var decoderSeeds = []string{
	// One line of each built-in detector.
	`{"vantage":"Idea","measurement":"dns","domain":"escort-site-000.in","blocked":false,"addrs":["199.41.1.1"]}`,
	`{"vantage":"Idea","measurement":"http","domain":"escort-site-000.in","blocked":true,"mechanism":"notification","censor":"Idea","diff":1}`,
	`{"vantage":"Idea","measurement":"https","domain":"escort-site-000.in","blocked":false,"addrs":["199.41.1.1"]}`,
	`{"vantage":"Idea","measurement":"tcp","domain":"escort-site-000.in","blocked":false}`,
	`{"vantage":"Idea","measurement":"collateral","domain":"escort-site-000.in","blocked":true,"mechanism":"notification","censor":"Idea"}`,
	`{"vantage":"Idea","measurement":"evasion","domain":"escort-site-000.in","blocked":true,"mechanism":"notification","censor":"Idea","detail":{"http_censored":true,"dns_poisoned":false,"evaded":true,"techniques":[{"technique":"host-keyword-case","success":true},{"technique":"host-extra-space","success":true},{"technique":"host-trailing-space","success":true},{"technique":"multiple-host-headers","success":false,"censored":true},{"technique":"segmented-request","success":true},{"technique":"drop-fin-rst","success":false}]}}`,
	`{"vantage":"Idea","measurement":"ooni","domain":"escort-site-000.in","blocked":true,"mechanism":"http-diff","detail":{"verdict":"http-diff","accessible":false,"dns_consistent":true,"tcp_succeeded":true,"body_prop_ok":false,"headers_match":false,"title_compared":false,"title_match":false,"truth_blocked":true,"agrees":true}}`,
	`{"vantage":"Idea","measurement":"fingerprint","domain":"escort-site-000.in","blocked":true,"mechanism":"notification","censor":"Idea","detail":{"box_type":"interceptive","overt":true,"signature_isp":"Idea","stateful_checked":true,"stateful":true,"censor_hop":3,"path_hops":5}}`,
	`{"vantage":"Jio","measurement":"dns","domain":"a.example","blocked":true,"mechanism":"dns-poisoning","censor":"Jio","addrs":["10.0.0.1","10.0.0.2"]}`,
	`{"vantage":"MTNL","measurement":"http","domain":"dead.example","blocked":false,"error":"domain unreachable even via the uncensored path"}`,
	"{\"vantage\":\"Idea\",\"measurement\":\"dns\",\"domain\":\"a\",\"blocked\":false}\n{\"vantage\":\"Idea\",\"measurement\":\"dns\",\"domain\":\"b\",\"blocked\":true}\n",

	// Keys: case-insensitive under Unicode simple folding, escaped, the
	// later of two wins, unknown ones validated and skipped.
	`{"VANTAGE":"a","meaſurement":"dns","bloc` + "K" + `ed":true,"Addrs":["x"]}`,
	`{"vantage":"a","vantage":"b"}`,
	`{"vant\u0061ge":"a","\u0076antage":"b","VANTAG\u00c9":"c"}`,
	`{"x":{"y":[1,2.5e3,{"z":null}],"w":"é"},"vantage":"a","t":true,"f":false}`,
	`{"vantage":"a","vantage":null,"blocked":true,"blocked":null,"diff":0.5,"diff":null,"error":"e","error":null}`,

	// Addrs and detail.
	`{"addrs":["a"],"addrs":null}`,
	`{"addrs":[]}`,
	`{"addrs":["a","b"],"addrs":[]}`,
	`{"addrs":["a","b"],"addrs":[null,null]}`,
	`{"addrs":["a","b"],"addrs":["x"],"addrs":[null,null]}`,
	`{"addrs":["a","b","c"],"addrs":["x"],"addrs":[null,null,null,null]}`,
	`{"addrs":[null]}`,
	`{"addrs":[1]}`,
	`{"addrs":[["a"]]}`,
	`{"addrs":"a"}`,
	`{"addrs":{}}`,
	`{"detail":{"a":1},"detail":null}`,
	`{"detail":{"a":1},"detail":{"b":[true,null,"s"]}}`,
	`{"detail":"s"}`,
	`{"detail":-0.0}`,
	`{"detail":[1e400]}`,
	`{"detail":1e400,"detail":null}`,

	// Top-level values.
	`null`,
	`null null`,
	`null{}`,
	`nullx`,
	`{}{}`,
	`{"vantage":"a"}{"vantage":"b"}`,
	`[]`,
	`[1,2]`,
	`"x"`,
	`5`,
	`5x`,
	`5 {}`,
	`true`,
	`{}x`,
	`{} x`,
	"\ufeff{}",
	"",
	" \t\r\n",
	" \t\r\n{\"vantage\":\"a\"} \n ",

	// Type mismatches and numbers.
	`{"vantage":1}`,
	`{"vantage":true}`,
	`{"vantage":{}}`,
	`{"blocked":"true"}`,
	`{"blocked":1}`,
	`{"diff":"1"}`,
	`{"diff":1e400}`,
	`{"diff":-1e400}`,
	`{"diff":1e-400}`,
	`{"diff":-0}`,
	`{"diff":01}`,
	`{"diff":-}`,
	`{"diff":.5}`,
	`{"diff":1.}`,
	`{"diff":1E+2}`,
	`{"diff":1e}`,
	`{"diff":0.1234567890123456789012345678901234567890}`,
	"{\"vantage\":1}\n{\"vantage\":\"b\"}",

	// Strings: invalid UTF-8 and lone surrogates become U+FFFD.
	"{\"vantage\":\"\xff\xfe\"}",
	"{\"vantage\":\"a\xc3\"}",
	"{\"vantage\":\"\xed\xa0\x80\"}",
	`{"vantage":"\ud800"}`,
	`{"vantage":"\udc00"}`,
	`{"vantage":"\ud800A"}`,
	`{"vantage":"\ud800𐀀"}`,
	`{"vantage":"😀"}`,
	`{"vantage":"\"\\\/\b\f\n\r\t\u0000é"}`,
	`{"vantage":"\'"}`,
	`{"vantage":"\x"}`,
	`{"vantage":"\u12"}`,
	`{"vantage":"\u12G4"}`,
	"{\"vantage\":\"a\tb\"}",
	"{\"vantage\":\"a\x7fb\"}",

	// Syntax errors and truncation.
	`{"vantage":"a",}`,
	`{,}`,
	`{"a" 1}`,
	`{"a":1 "b":2}`,
	`{"a":[1,]}`,
	`{"a":[1 2]}`,
	`{"a":tru}`,
	`{"a":nul`,
	`{"vantage":"a"`,
	`{"vantage":"a`,
	`{"vant`,
	`{"diff":1`,
	`{`,
	"{\"vantage\":\"a\"}\nxyz",
	"{\"vantage\":\"a\"}\n{\"blocked\":1}\n{\"vantage\":\"c\"}",
	"{\"vantage\":\"a\"}\n{\"vantage\":\"b\"",
	`]`,
	`}`,
}

// nestedSeeds sit at encoding/json's nesting limit and one past it.
func nestedSeeds() []string {
	nest := func(n int) string {
		return `{"x":` + strings.Repeat("[", n-1) + strings.Repeat("]", n-1) + `}`
	}
	return []string{nest(maxNesting), nest(maxNesting + 1)}
}

// choppyReader returns 1 to 7 bytes per Read, in a sequence fixed by its
// seed.
type choppyReader struct {
	data  []byte
	state uint32
}

func (c *choppyReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	c.state = c.state*1664525 + 1013904223
	n := min(1+int(c.state>>16)%7, len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// decodeStep is one Decode call: its Result when it succeeded, and the
// kind of its error.
type decodeStep struct {
	res  Result
	kind string
}

func errKind(err error) string {
	var typeErr *json.UnmarshalTypeError
	switch {
	case err == nil:
		return "ok"
	case err == io.EOF:
		return "eof"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected-eof"
	case errors.As(err, &typeErr):
		return "type"
	}
	return "syntax"
}

// decodeSteps decodes until the first error that is not a type mismatch:
// after one, both decoders go on with the next value.
func decodeSteps(decode func(*Result) error, limit int) []decodeStep {
	var steps []decodeStep
	for len(steps) <= limit {
		var r Result
		kind := errKind(decode(&r))
		if kind != "ok" {
			r = Result{}
		}
		steps = append(steps, decodeStep{r, kind})
		if kind != "ok" && kind != "type" {
			break
		}
	}
	return steps
}

// checkDecoder compares the decoder, fed 1 to 7 bytes per Read, with
// json.Decoder over the same bytes.
func checkDecoder(t *testing.T, data []byte, seed uint32) {
	t.Helper()
	ref := json.NewDecoder(bytes.NewReader(data))
	want := decodeSteps(func(r *Result) error { return ref.Decode(r) }, len(data)+1)
	dec := NewResultDecoder(&choppyReader{data: data, state: seed})
	got := decodeSteps(dec.Decode, len(data)+1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q (seed %d):\n got %+v\nwant %+v", data, seed, got, want)
	}
}

func TestResultDecoderMatchesReference(t *testing.T) {
	for _, s := range append(decoderSeeds, nestedSeeds()...) {
		for seed := uint32(0); seed < 4; seed++ {
			checkDecoder(t, []byte(s), seed)
		}
	}
	// A whole campaign's worth of lines in one stream.
	checkDecoder(t, []byte(strings.Join(decoderSeeds[:11], "\n")), 1)
}

func FuzzResultDecoder(f *testing.F) {
	for i, s := range decoderSeeds {
		f.Add([]byte(s), uint32(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint32) {
		checkDecoder(t, data, seed)
	})
}

// spanReader yields one JSON value whose string member is size bytes
// long, readSize bytes per Read, without holding it in memory.
type spanReader struct {
	head, tail string
	size, pos  int // pos counts bytes of head, body and tail delivered
	readSize   int
}

func (s *spanReader) Read(p []byte) (int, error) {
	total := len(s.head) + s.size + len(s.tail)
	if s.pos == total {
		return 0, io.EOF
	}
	n := min(len(p), s.readSize, total-s.pos)
	for i := range p[:n] {
		switch at := s.pos + i; {
		case at < len(s.head):
			p[i] = s.head[at]
		case at < len(s.head)+s.size:
			p[i] = 'a'
		default:
			p[i] = s.tail[at-len(s.head)-s.size]
		}
	}
	s.pos += n
	return n, nil
}

// TestResultDecoderLinearTime feeds one 32 MiB value 4 KiB per Read: the
// decoder must parse it again only as the pending bytes double, not
// after every read.
func TestResultDecoderLinearTime(t *testing.T) {
	const size, readSize = 32 << 20, 4 << 10
	dec := NewResultDecoder(&spanReader{
		head: `{"vantage":"v","padding":"`, tail: `"}`,
		size: size, readSize: readSize,
	})
	var r Result
	if err := dec.Decode(&r); err != nil || r.Vantage != "v" {
		t.Fatalf("Decode = %v, %+v", err, r)
	}
	if err := dec.Decode(&r); err != io.EOF {
		t.Fatalf("second Decode = %v, want io.EOF", err)
	}
	// Pending bytes double from one read (4 KiB) to the whole value
	// (32 MiB): 14 attempts, plus the one the end of input allows.
	if dec.parses > 16 {
		t.Errorf("%d parse attempts for one %d-byte value read %d bytes at a time, want at most 16",
			dec.parses, size, readSize)
	}
}

// TestResultDecoderReadError returns the values buffered before a read
// error, then the error itself.
func TestResultDecoderReadError(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader(`{"vantage":"a"} {"vantage":"b`), &failReader{boom})
	dec := NewResultDecoder(r)
	var res Result
	if err := dec.Decode(&res); err != nil || res.Vantage != "a" {
		t.Fatalf("first Decode = %v, %+v", err, res)
	}
	if err := dec.Decode(&res); err != boom {
		t.Fatalf("second Decode = %v, want the reader's error", err)
	}
	if _, err := ReadJSONL(io.MultiReader(strings.NewReader(`{}`), &failReader{boom})); !errors.Is(err, boom) {
		t.Fatalf("ReadJSONL = %v, want it to wrap the reader's error", err)
	}
}

type failReader struct{ err error }

func (f *failReader) Read([]byte) (int, error) { return 0, f.err }

// BenchmarkResultDecoder prices decoding a dns+http campaign's JSONL,
// against encoding/json's reflective decoder over the same bytes.
func BenchmarkResultDecoder(b *testing.B) {
	// Campaign order: by vantage, then measurement, then domain.
	var results []Result
	for _, v := range []string{"Airtel", "Idea", "Jio", "Vodafone"} {
		for d := 0; d < 500; d++ {
			dom := fmt.Sprintf("site-%04d.example", d)
			results = append(results, Result{Vantage: v, Measurement: "dns", Domain: dom, Addrs: []string{fmt.Sprintf("199.41.%d.%d", d/250, d%250)}})
		}
		for d := 0; d < 500; d++ {
			dom := fmt.Sprintf("site-%04d.example", d)
			results = append(results, Result{Vantage: v, Measurement: "http", Domain: dom, Blocked: d%3 == 0, Mechanism: MechanismNotification, Censor: v, Diff: 1})
		}
	}
	var body bytes.Buffer
	if err := WriteJSONL(&body, results); err != nil {
		b.Fatal(err)
	}
	decoders := []struct {
		name string
		new  func(io.Reader) func(*Result) error
	}{
		{"decoder", func(r io.Reader) func(*Result) error { return NewResultDecoder(r).Decode }},
		{"encoding-json", func(r io.Reader) func(*Result) error {
			dec := json.NewDecoder(r)
			return func(res *Result) error { return dec.Decode(res) }
		}},
	}
	for _, dec := range decoders {
		b.Run(dec.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(body.Len()))
			for i := 0; i < b.N; i++ {
				decode := dec.new(bytes.NewReader(body.Bytes()))
				var r Result
				n := 0
				for decode(&r) == nil {
					n++
				}
				if n != len(results) {
					b.Fatalf("decoded %d results, want %d", n, len(results))
				}
			}
			b.ReportMetric(float64(b.N*len(results))/b.Elapsed().Seconds(), "results/s")
		})
	}
}
