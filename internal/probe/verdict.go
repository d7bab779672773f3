package probe

import "repro/internal/ispnet"

// Mechanism labels the evidence that convicted a censored fetch.
type Mechanism string

// The mechanisms the §3/§4 detectors distinguish.
const (
	// MechNone: no censorship evidence.
	MechNone Mechanism = ""
	// MechNotification: the stream carried a known censorship page.
	MechNotification Mechanism = "notification"
	// MechReset: a valid RST killed the connection before any response.
	MechReset Mechanism = "rst"
	// MechBlackhole: the connection established but hung — no response,
	// no teardown — while the uncensored path works.
	MechBlackhole Mechanism = "blackhole"
)

// knownSet is KnownSignatures compiled once for matching.
var knownSet = ispnet.CompileSignatures(KnownSignatures)

// MatchSignatureIn scans a received byte stream for a known censorship
// notification marker and names the ISP it fingerprints (§6.1). It tries
// the world's own notification catalogue first — the signatures a
// researcher inside that world would have assembled by browsing blocked
// sites. Scenario worlds carry custom censors whose notification bodies
// appear in no paper fleet list; without the world catalogue their overt
// censorship would be undetectable. The paper list (KnownSignatures) is
// kept as a fallback so partial or truncated streams still match on the
// shorter markers; a nil world matches against it alone. The result is the
// first signature in that order that occurs, and matching allocates
// nothing.
func MatchSignatureIn(w *ispnet.World, stream []byte) (isp string, ok bool) {
	if w != nil {
		if isp, ok := w.Signatures().Match(stream); ok {
			return isp, true
		}
	}
	return knownSet.Match(stream)
}

// CensorVerdict applies the shared censored-fetch heuristic used by the
// detection pipeline (§3.1 manual verification), the collateral sweep
// (§6.1) and the censor package: a fetch is censored when it carried a
// known notification, when a valid RST killed the established connection
// before any response, or when the connection hung with neither response
// nor orderly teardown (blackholed).
func (r *FetchResult) CensorVerdict() (censored bool, mech Mechanism) {
	switch {
	case r.Notification:
		return true, MechNotification
	case r.Connected && r.Reset && len(r.Responses) == 0:
		return true, MechReset
	case r.Connected && len(r.Responses) == 0 && !r.PeerClosed:
		return true, MechBlackhole
	}
	return false, MechNone
}
