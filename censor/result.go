package censor

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/probe"
)

// Mechanism values Result.Mechanism can carry, so consumers never
// hardcode the wire strings.
const (
	MechanismNotification = string(probe.MechNotification)
	MechanismReset        = string(probe.MechReset)
	MechanismBlackhole    = string(probe.MechBlackhole)
	MechanismDNSPoisoning = "dns-poisoning"
	MechanismTCPFilter    = "tcp-filter"
)

// DiffThreshold is the paper's HTTP-diff verification threshold; Results
// from the HTTP detector with Diff at or above it were individually
// verified before Blocked was decided.
const DiffThreshold = probe.DiffThreshold

// Result is the uniform record every measurement produces — one JSONL
// line per (vantage, measurement, domain). Suites, exporters and future
// backends all consume this one shape.
type Result struct {
	// Vantage is the ISP the measurement ran from.
	Vantage string `json:"vantage"`
	// Measurement is the detector kind — a registered name such as "dns",
	// "http", "https", "tcp", "collateral", "evasion", "ooni",
	// "fingerprint" (see Names for the full registry).
	Measurement string `json:"measurement"`
	// Domain is the measured website.
	Domain string `json:"domain"`
	// Blocked is the detector's verdict.
	Blocked bool `json:"blocked"`
	// Mechanism says how the censorship manifested ("notification",
	// "rst", "blackhole", "dns-poisoning", "tcp-filter").
	Mechanism string `json:"mechanism,omitempty"`
	// Censor names the ISP the event was attributed to, where the
	// detector attributes (notification signatures, collateral tracing).
	Censor string `json:"censor,omitempty"`
	// Diff is the HTTP-diff ratio against the uncensored fetch, for
	// detectors that compute one.
	Diff float64 `json:"diff,omitempty"`
	// Addrs are resolved addresses, for DNS-flavoured detectors.
	Addrs []string `json:"addrs,omitempty"`
	// Error records a measurement-infrastructure failure (e.g. the domain
	// is dead even via the uncensored path); Blocked is meaningless then.
	Error string `json:"error,omitempty"`
	// Detail carries the detector-specific typed payload, when the
	// detector produces one: EvasionDetail, OONIDetail and
	// FingerprintDetail for the built-ins; externally registered
	// detectors may attach their own JSON-marshalable types. In-process
	// the field holds the concrete type; after a JSONL round-trip it
	// holds generic JSON — recover the typed view with DetailAs.
	Detail any `json:"detail,omitempty"`
}

// DetailAs extracts a Result's Detail as a concrete payload type. It
// returns the value directly when the result still carries the typed
// detail (in-process), and re-decodes through JSON when the result came
// off the wire (ReadJSONL leaves Detail as generic JSON). Check
// Result.Measurement before decoding: a generic JSON object decodes
// loosely into any detail struct.
func DetailAs[T any](r Result) (T, bool) {
	if d, ok := r.Detail.(T); ok {
		return d, true
	}
	var out T
	if r.Detail == nil {
		return out, false
	}
	b, err := json.Marshal(r.Detail)
	if err != nil {
		return out, false
	}
	if err := json.Unmarshal(b, &out); err != nil {
		return out, false
	}
	return out, true
}

// WriteJSONL writes results as JSON Lines: one deterministic, stable-order
// object per line.
func WriteJSONL(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	for i := range results {
		if err := enc.Encode(&results[i]); err != nil {
			return fmt.Errorf("censor: jsonl: %w", err)
		}
	}
	return nil
}

// ReadJSONL decodes a JSON Lines stream produced by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Result, error) {
	dec := NewResultDecoder(r)
	var out []Result
	for {
		var res Result
		if err := dec.Decode(&res); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("censor: jsonl: %w", err)
		}
		out = append(out, res)
	}
}
