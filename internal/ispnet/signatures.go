package ispnet

import "bytes"

// NotifSignature fingerprints one ISP's censorship notification: any
// stream containing Marker was forged by that ISP's middleboxes.
type NotifSignature struct {
	ISP    string
	Marker string
}

// NotifSignatures is the notification catalogue of this world — what the
// paper's researchers assembled by browsing blocked sites from every
// vantage (§6.1), derived from the deployed styles: one signature per
// ISP whose boxes send a notification body. Scenario worlds thus get
// attribution for their own custom censors, not just the paper's four.
// The catalogue is build-time state, computed once (it survives Reset).
func (w *World) NotifSignatures() []NotifSignature { return w.sigs.Signatures() }

// Signatures is NotifSignatures compiled for matching. It is built with
// the world and lives as long as it.
func (w *World) Signatures() *SignatureSet { return w.sigs }

func (w *World) buildNotifSignatures() {
	var sigs []NotifSignature
	for _, isp := range w.ISPList {
		if body := isp.Profile.Style.BodyHTML; body != "" {
			sigs = append(sigs, NotifSignature{ISP: isp.Name, Marker: body})
		}
	}
	w.sigs = CompileSignatures(sigs)
}

// SignatureSet is a notification catalogue compiled for matching. Each
// marker is stored once as bytes together with an anchor: the short
// window of the marker least likely to occur in an ordinary HTML page. A
// search skips through the stream on the anchor and compares the whole
// marker only where the anchor lands, instead of stopping at every '<'
// the way a search for a notification body starting "<html><body>" would.
// A nil *SignatureSet is an empty catalogue.
type SignatureSet struct {
	sigs []NotifSignature
	pats []pattern
}

// pattern is one compiled marker: anchor is marker[off:off+len(anchor)].
type pattern struct {
	marker, anchor []byte
	off            int
}

// Anchors are anchorLen bytes long, or as short as minAnchor at the end
// of a marker.
const anchorLen, minAnchor = 8, 4

// CompileSignatures compiles sigs, keeping their order.
func CompileSignatures(sigs []NotifSignature) *SignatureSet {
	s := &SignatureSet{sigs: sigs, pats: make([]pattern, len(sigs))}
	for i, sig := range sigs {
		marker := []byte(sig.Marker)
		// A candidate anchor starts anywhere that leaves it minAnchor
		// bytes (markers shorter than that are their own anchor).
		end := func(o int) int { return min(o+anchorLen, len(marker)) }
		off := 0
		for o := 1; o+minAnchor <= len(marker); o++ {
			if anchorCost(marker[o:end(o)]) < anchorCost(marker[off:end(off)]) {
				off = o
			}
		}
		s.pats[i] = pattern{marker: marker, anchor: marker[off:end(off)], off: off}
	}
	return s
}

// anchorCost scores an anchor candidate by how often its first two bytes
// turn up in HTML; the first byte weighs most, because bytes.Index skips
// ahead on it.
func anchorCost(a []byte) int {
	c := 4 * byteCost(a[0])
	if len(a) > 1 {
		c += byteCost(a[1])
	}
	return c
}

// byteCost ranks a byte's frequency in HTML pages, rarest lowest. Page
// text is mostly lower case, digits and markup; capitals and punctuation
// inside words are scarcer.
func byteCost(c byte) int {
	switch {
	case c >= 0x80 || c < 0x20 && c != '\t' && c != '\n' && c != '\r':
		return 0
	case 'A' <= c && c <= 'Z':
		return 1
	case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
		return 3
	case c == ' ' || c == '<' || c == '>' || c == '/' || c == '"' || c == '=' ||
		c == '\t' || c == '\n' || c == '\r':
		return 4
	}
	return 2 // other punctuation
}

// Signatures returns the catalogue in order.
func (s *SignatureSet) Signatures() []NotifSignature {
	if s == nil {
		return nil
	}
	return s.sigs
}

// Match returns the ISP of the first signature, in catalogue order, whose
// marker occurs anywhere in stream. It allocates nothing.
func (s *SignatureSet) Match(stream []byte) (isp string, ok bool) {
	if s == nil {
		return "", false
	}
	for i := range s.pats {
		if s.pats[i].in(stream) {
			return s.sigs[i].ISP, true
		}
	}
	return "", false
}

// in reports whether the marker occurs in stream.
func (p *pattern) in(stream []byte) bool {
	n := len(p.marker)
	if len(stream) < n {
		return false
	}
	// An anchor found at q puts the marker at q-off, so the search starts
	// at off, and it ends once the marker no longer fits.
	for from := p.off; ; {
		i := bytes.Index(stream[from:], p.anchor)
		if i < 0 {
			return false
		}
		start := from + i - p.off
		if start+n > len(stream) {
			return false
		}
		if bytes.Equal(stream[start:start+n], p.marker) {
			return true
		}
		from += i + 1
	}
}
