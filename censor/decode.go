package censor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// ResultDecoder reads Results from a stream of JSON values, such as the
// JSON Lines that WriteJSONL and JSONLSink write. It accepts and rejects
// exactly what json.Decoder.Decode does for a Result and yields the same
// values, but parses each value in one pass over a buffered window
// instead of through reflection. Only the open-typed Detail payload goes
// through encoding/json.
//
// A value that spans many reads is parsed again only once the pending
// bytes have at least doubled, so decoding stays linear in the input
// however the reader splits it. The price is read-ahead: Decode may wait
// for up to as many bytes again as the value it is decoding before it
// returns that value.
type ResultDecoder struct {
	r     io.Reader
	buf   []byte
	start int   // first unconsumed byte of buf
	off   int64 // stream offset of buf[0]
	rerr  error // the reader's error, io.EOF included
	err   error // sticky syntax or read error
	need  int   // parse the pending value again once this many bytes are pending

	parses int // parse attempts, for the linear-time test

	base    int64 // stream offset of the value being parsed
	terr    error // first type error in the value being parsed
	scratch []byte
	intern  map[string]string
	last    [fieldUnknown]string // each field's previous interned value
}

const (
	decodeBufSize = 32 << 10
	// maxNesting is encoding/json's nesting limit for arrays and objects.
	maxNesting = 10000
	// A decoder interns at most maxInterned distinct strings of at most
	// maxInternLen bytes: the repeated vantage, measurement, domain,
	// mechanism, censor and address values of a campaign. The table is
	// the decoder's own, so its memory goes when the decoder does.
	maxInterned  = 4096
	maxInternLen = 64
)

// NewResultDecoder returns a decoder reading from r. It buffers, and may
// read past the last value it returns.
func NewResultDecoder(r io.Reader) *ResultDecoder {
	return &ResultDecoder{r: r, buf: make([]byte, 0, decodeBufSize), intern: make(map[string]string)}
}

// errNeedMore reports that the pending bytes end inside the value.
var errNeedMore = errors.New("censor: need more input")

// Decode overwrites *r with the next Result of the stream. It returns
// io.EOF at a clean end of input, io.ErrUnexpectedEOF when the input
// ends inside a value, and the reader's error unchanged. A top-level
// null yields the zero Result. A type mismatch, such as a number where a
// string belongs, returns an error after the whole value is consumed,
// and the next call continues after it; syntax and read errors are
// sticky. *r is unspecified after an error.
func (d *ResultDecoder) Decode(r *Result) error {
	if d.err != nil {
		return d.err
	}
	for {
		for d.start < len(d.buf) && isSpace(d.buf[d.start]) {
			d.start++
		}
		pending := len(d.buf) - d.start
		if pending > 0 && (pending >= d.need || d.rerr != nil) {
			n, err := d.parse(r)
			if err == nil {
				d.start += n
				d.need = 0
				return d.terr
			}
			if err != errNeedMore {
				d.err = err
				return err
			}
			d.need = 2 * pending
		}
		if d.rerr != nil {
			switch {
			case d.rerr != io.EOF:
				d.err = d.rerr
			case pending > 0:
				d.err = io.ErrUnexpectedEOF
			default:
				d.err = io.EOF
			}
			return d.err
		}
		d.fill()
	}
}

// fill reads once into the free end of the buffer, first compacting or
// growing it when it is full.
func (d *ResultDecoder) fill() {
	if d.start == len(d.buf) || (d.start > 0 && len(d.buf) == cap(d.buf)) {
		n := copy(d.buf, d.buf[d.start:])
		d.off += int64(d.start)
		d.buf = d.buf[:n]
		d.start = 0
	}
	if len(d.buf) == cap(d.buf) {
		grown := make([]byte, len(d.buf), 2*cap(d.buf))
		copy(grown, d.buf)
		d.buf = grown
	}
	n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
	d.buf = d.buf[:len(d.buf)+n]
	d.rerr = err
}

// parse decodes the value at the start of the pending bytes into *r and
// returns its length.
func (d *ResultDecoder) parse(r *Result) (int, error) {
	d.parses++
	d.base = d.off + int64(d.start)
	d.terr = nil
	*r = Result{}
	data := d.buf[d.start:]
	var i int
	var err error
	switch c := data[0]; c {
	case '{':
		return d.result(data, r)
	case 'n':
		i, err = d.literal(data, 0, "null")
	default:
		d.typeError(0, jsonKind(c), resultType, nil)
		i, err = d.skip(data, 0, 0)
	}
	if err != nil {
		return 0, err
	}
	// A top-level scalar ends at the next byte, whatever it is, or at
	// the end of input.
	if i == len(data) && d.rerr != io.EOF {
		return 0, errNeedMore
	}
	return i, nil
}

// Result fields, in declaration order.
const (
	fieldVantage = iota
	fieldMeasurement
	fieldDomain
	fieldBlocked
	fieldMechanism
	fieldCensor
	fieldDiff
	fieldAddrs
	fieldError
	fieldDetail
	fieldUnknown
)

var fieldNames = [...][]byte{
	[]byte("vantage"), []byte("measurement"), []byte("domain"), []byte("blocked"),
	[]byte("mechanism"), []byte("censor"), []byte("diff"), []byte("addrs"),
	[]byte("error"), []byte("detail"),
}

// fieldOf maps a key to its Result field as encoding/json does: an exact
// match, else a case-insensitive one under Unicode simple folding.
func fieldOf(key []byte) int {
	switch string(key) {
	case "vantage":
		return fieldVantage
	case "measurement":
		return fieldMeasurement
	case "domain":
		return fieldDomain
	case "blocked":
		return fieldBlocked
	case "mechanism":
		return fieldMechanism
	case "censor":
		return fieldCensor
	case "diff":
		return fieldDiff
	case "addrs":
		return fieldAddrs
	case "error":
		return fieldError
	case "detail":
		return fieldDetail
	}
	for f, name := range fieldNames {
		if bytes.EqualFold(key, name) {
			return f
		}
	}
	return fieldUnknown
}

// result parses the object at data[0] into *r.
func (d *ResultDecoder) result(data []byte, r *Result) (int, error) {
	return d.object(data, 0, 1, func(key []byte, i int) (int, error) {
		switch f := fieldOf(key); f {
		case fieldVantage:
			return d.stringField(data, i, &r.Vantage, f, 1)
		case fieldMeasurement:
			return d.stringField(data, i, &r.Measurement, f, 1)
		case fieldDomain:
			return d.stringField(data, i, &r.Domain, f, 1)
		case fieldMechanism:
			return d.stringField(data, i, &r.Mechanism, f, 1)
		case fieldCensor:
			return d.stringField(data, i, &r.Censor, f, 1)
		case fieldError:
			return d.stringField(data, i, &r.Error, f, 1)
		case fieldBlocked:
			return d.boolField(data, i, &r.Blocked)
		case fieldDiff:
			return d.floatField(data, i, &r.Diff)
		case fieldAddrs:
			return d.addrsField(data, i, r)
		case fieldDetail:
			return d.detailField(data, i, r)
		}
		return d.skip(data, i, 1)
	})
}

// stringField parses a string or null into *dst, at depth containers
// deep; null leaves it as is. Every string field but error is interned.
func (d *ResultDecoder) stringField(data []byte, i int, dst *string, f, depth int) (int, error) {
	switch data[i] {
	case '"':
		end, esc, high, err := d.scanString(data, i)
		if err != nil {
			return 0, err
		}
		*dst = d.str(data[i+1:end-1], esc, high, f)
		return end, nil
	case 'n':
		return d.literal(data, i, "null")
	}
	d.typeError(i, jsonKind(data[i]), stringType, fieldNames[f])
	return d.skip(data, i, depth)
}

// boolField parses true, false or null into *dst; null leaves it as is.
func (d *ResultDecoder) boolField(data []byte, i int, dst *bool) (int, error) {
	switch data[i] {
	case 't':
		*dst = true
		return d.literal(data, i, "true")
	case 'f':
		*dst = false
		return d.literal(data, i, "false")
	case 'n':
		return d.literal(data, i, "null")
	}
	d.typeError(i, jsonKind(data[i]), boolType, fieldNames[fieldBlocked])
	return d.skip(data, i, 1)
}

// floatField parses a number or null into *dst; null leaves it as is.
func (d *ResultDecoder) floatField(data []byte, i int, dst *float64) (int, error) {
	switch c := data[i]; {
	case c == '-' || isDigit(c):
		end, err := d.number(data, i)
		if err != nil {
			return 0, err
		}
		f, err := strconv.ParseFloat(string(data[i:end]), 64)
		if err != nil {
			d.typeError(i, "number "+string(data[i:end]), float64Type, fieldNames[fieldDiff])
		} else {
			*dst = f
		}
		return end, nil
	case c == 'n':
		return d.literal(data, i, "null")
	}
	d.typeError(i, jsonKind(data[i]), float64Type, fieldNames[fieldDiff])
	return d.skip(data, i, 1)
}

// addrsField parses an array of strings, or null, into r.Addrs. Like
// encoding/json it decodes into the slice already there (a repeated
// key): elements are overwritten in place, null elements keep what the
// backing array holds, and an empty array gives a new empty slice.
func (d *ResultDecoder) addrsField(data []byte, i int, r *Result) (int, error) {
	switch data[i] {
	case 'n':
		r.Addrs = nil
		return d.literal(data, i, "null")
	case '[':
	default:
		d.typeError(i, jsonKind(data[i]), addrsType, fieldNames[fieldAddrs])
		return d.skip(data, i, 1)
	}
	s, n := r.Addrs, 0
	end, err := d.array(data, i, 2, func(i int) (int, error) {
		switch {
		case n < len(s):
		case n < cap(s):
			s = s[:n+1]
		default:
			s = append(s, "")
		}
		n++
		return d.stringField(data, i, &s[n-1], fieldAddrs, 2)
	})
	if err != nil {
		return 0, err
	}
	if n == 0 {
		s = []string{}
	}
	r.Addrs = s[:n]
	return end, nil
}

// detailField cuts the detail value out of the stream and decodes it
// into r.Detail through encoding/json, as generic JSON.
func (d *ResultDecoder) detailField(data []byte, i int, r *Result) (int, error) {
	if data[i] == 'n' {
		r.Detail = nil
		return d.literal(data, i, "null")
	}
	end, err := d.skip(data, i, 1)
	if err != nil {
		return 0, err
	}
	var v any
	if err := json.Unmarshal(data[i:end], &v); err != nil && d.terr == nil {
		d.terr = err
	}
	r.Detail = v
	return end, nil
}

// skip validates the value at data[i], nested depth containers deep,
// and returns the index past it.
func (d *ResultDecoder) skip(data []byte, i, depth int) (int, error) {
	switch c := data[i]; {
	case c == '"':
		end, _, _, err := d.scanString(data, i)
		return end, err
	case c == '{':
		return d.object(data, i, depth+1, func(_ []byte, i int) (int, error) { return d.skip(data, i, depth+1) })
	case c == '[':
		return d.array(data, i, depth+1, func(i int) (int, error) { return d.skip(data, i, depth+1) })
	case c == 't':
		return d.literal(data, i, "true")
	case c == 'f':
		return d.literal(data, i, "false")
	case c == 'n':
		return d.literal(data, i, "null")
	case c == '-' || isDigit(c):
		return d.number(data, i)
	}
	return 0, d.syntaxError(i, "looking for beginning of value")
}

// object parses the object whose '{' is data[i], depth containers deep.
// It calls member with each key, unquoted, and the index of its value;
// member parses the value and returns the index past it. The key is
// valid until member parses a string.
func (d *ResultDecoder) object(data []byte, i, depth int, member func(key []byte, i int) (int, error)) (int, error) {
	if depth > maxNesting {
		return 0, d.syntaxError(i, "exceeded max depth")
	}
	i, err := skipSpace(data, i+1)
	if err != nil {
		return 0, err
	}
	if data[i] == '}' {
		return i + 1, nil
	}
	for {
		if data[i] != '"' {
			return 0, d.syntaxError(i, "looking for beginning of object key string")
		}
		end, esc, high, err := d.scanString(data, i)
		if err != nil {
			return 0, err
		}
		key := d.unquote(data[i+1:end-1], esc, high)
		if i, err = skipSpace(data, end); err != nil {
			return 0, err
		}
		if data[i] != ':' {
			return 0, d.syntaxError(i, "after object key")
		}
		if i, err = skipSpace(data, i+1); err != nil {
			return 0, err
		}
		if i, err = member(key, i); err != nil {
			return 0, err
		}
		if i, err = skipSpace(data, i); err != nil {
			return 0, err
		}
		switch data[i] {
		case ',':
			if i, err = skipSpace(data, i+1); err != nil {
				return 0, err
			}
		case '}':
			return i + 1, nil
		default:
			return 0, d.syntaxError(i, "after object key:value pair")
		}
	}
}

// array parses the array whose '[' is data[i], depth containers deep,
// calling elem with the index of each element; elem parses the element
// and returns the index past it.
func (d *ResultDecoder) array(data []byte, i, depth int, elem func(i int) (int, error)) (int, error) {
	if depth > maxNesting {
		return 0, d.syntaxError(i, "exceeded max depth")
	}
	i, err := skipSpace(data, i+1)
	if err != nil {
		return 0, err
	}
	if data[i] == ']' {
		return i + 1, nil
	}
	for {
		if i, err = elem(i); err != nil {
			return 0, err
		}
		if i, err = skipSpace(data, i); err != nil {
			return 0, err
		}
		switch data[i] {
		case ',':
			if i, err = skipSpace(data, i+1); err != nil {
				return 0, err
			}
		case ']':
			return i + 1, nil
		default:
			return 0, d.syntaxError(i, "after array element")
		}
	}
}

// literal checks that data[i:] spells lit.
func (d *ResultDecoder) literal(data []byte, i int, lit string) (int, error) {
	for k := 0; k < len(lit); k++ {
		if i+k == len(data) {
			return 0, errNeedMore
		}
		if data[i+k] != lit[k] {
			return 0, d.syntaxError(i+k, "in literal "+lit)
		}
	}
	return i + len(lit), nil
}

// number validates the JSON number at data[i] and returns the index
// past it. A number may end with the pending bytes; only the caller
// knows whether more input could extend it.
func (d *ResultDecoder) number(data []byte, i int) (int, error) {
	j := i
	if data[j] == '-' {
		if j++; j == len(data) {
			return 0, errNeedMore
		}
	}
	switch c := data[j]; {
	case c == '0':
		j++
	case '1' <= c && c <= '9':
		j = digits(data, j+1)
	default:
		return 0, d.syntaxError(j, "in numeric literal")
	}
	if j < len(data) && data[j] == '.' {
		if j++; j == len(data) {
			return 0, errNeedMore
		}
		if !isDigit(data[j]) {
			return 0, d.syntaxError(j, "after decimal point in numeric literal")
		}
		j = digits(data, j+1)
	}
	if j < len(data) && (data[j] == 'e' || data[j] == 'E') {
		if j++; j < len(data) && (data[j] == '+' || data[j] == '-') {
			j++
		}
		if j == len(data) {
			return 0, errNeedMore
		}
		if !isDigit(data[j]) {
			return 0, d.syntaxError(j, "in exponent of numeric literal")
		}
		j = digits(data, j+1)
	}
	return j, nil
}

func digits(data []byte, j int) int {
	for j < len(data) && isDigit(data[j]) {
		j++
	}
	return j
}

// plainByte marks the bytes a string holds without a second look:
// printable ASCII other than '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString validates the string whose opening quote is data[i] and
// returns the index past its closing quote, whether it holds escapes,
// and whether it holds bytes outside ASCII.
func (d *ResultDecoder) scanString(data []byte, i int) (end int, esc, high bool, err error) {
	for j := i + 1; j < len(data); j++ {
		c := data[j]
		if plainByte[c] {
			continue
		}
		switch {
		case c == '"':
			return j + 1, esc, high, nil
		case c == '\\':
			esc = true
			if j++; j == len(data) {
				return 0, false, false, errNeedMore
			}
			switch data[j] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if j+k == len(data) {
						return 0, false, false, errNeedMore
					}
					if !isHex(data[j+k]) {
						return 0, false, false, d.syntaxError(j+k, "in \\u hexadecimal character escape")
					}
				}
				j += 4
			default:
				return 0, false, false, d.syntaxError(j, "in string escape code")
			}
		case c < 0x20:
			return 0, false, false, d.syntaxError(j, "in string literal")
		default:
			high = true
		}
	}
	return 0, false, false, errNeedMore
}

// unquote returns the content of a scanned string as encoding/json
// reads it: escapes decoded, and invalid UTF-8 and lone surrogates
// replaced by U+FFFD. Content that needs no change is returned as is;
// the rest is decoded into the decoder's scratch buffer, valid until the
// next call.
func (d *ResultDecoder) unquote(s []byte, esc, high bool) []byte {
	if !esc && (!high || utf8.Valid(s)) {
		return s
	}
	b := d.scratch[:0]
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if pair := utf16.DecodeRune(r, hex4(s[i+2:])); pair != utf8.RuneError {
							b = utf8.AppendRune(b, pair)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	d.scratch = b
	return b
}

// str converts a scanned string's content for field f. Every field but
// error is interned; the field's previous value is checked first, since
// a campaign's consecutive lines share vantage, measurement and verdict.
func (d *ResultDecoder) str(s []byte, esc, high bool, f int) string {
	s = d.unquote(s, esc, high)
	if f == fieldError || len(s) > maxInternLen {
		return string(s)
	}
	if last := d.last[f]; last == string(s) {
		return last
	}
	v, ok := d.intern[string(s)]
	if !ok {
		v = string(s)
		if len(d.intern) < maxInterned {
			d.intern[v] = v
		}
	}
	d.last[f] = v
	return v
}

func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skipSpace returns the index of the first non-space byte at or after i,
// or errNeedMore if the pending bytes end first.
func skipSpace(data []byte, i int) (int, error) {
	for ; i < len(data); i++ {
		if !isSpace(data[i]) {
			return i, nil
		}
	}
	return 0, errNeedMore
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\r' || c == '\t' }
func isDigit(c byte) bool { return '0' <= c && c <= '9' }
func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

var (
	resultType  = reflect.TypeFor[Result]()
	stringType  = reflect.TypeFor[string]()
	boolType    = reflect.TypeFor[bool]()
	float64Type = reflect.TypeFor[float64]()
	addrsType   = reflect.TypeFor[[]string]()
)

// jsonKind names the kind of value starting with c, as encoding/json's
// type errors do.
func jsonKind(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	}
	return "number"
}

// typeError records the value's first type mismatch, in encoding/json's
// form; the value is still parsed to its end.
func (d *ResultDecoder) typeError(i int, kind string, t reflect.Type, field []byte) {
	if d.terr != nil {
		return
	}
	e := &json.UnmarshalTypeError{Value: kind, Type: t, Offset: d.base + int64(i)}
	if field != nil {
		e.Struct, e.Field = "Result", string(field)
	}
	d.terr = e
}

// syntaxError reports malformed input at data[i] of the value being
// parsed, with its offset in the stream.
func (d *ResultDecoder) syntaxError(i int, context string) error {
	data := d.buf[d.start:]
	return fmt.Errorf("censor: invalid character %q %s at offset %d", data[i], context, d.base+int64(i))
}
