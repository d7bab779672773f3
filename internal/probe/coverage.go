package probe

import (
	"net/netip"
	"time"

	"repro/internal/httpwire"
	"repro/internal/ispnet"
)

// ScanConfig sizes the coverage/consistency scans of §4.2.2.
type ScanConfig struct {
	// Paths caps the number of within-ISP scan destinations (Alexa sites).
	Paths int
	// SampleURLs is the number of PBW Host values used to classify a path
	// as poisoned (0 = the full list). The paper sent all 1200; the
	// default samples evenly and accepts a small miss probability.
	SampleURLs int
	// Attempts per URL during consistency sweeps; >1 compensates for
	// wiretap race losses, standing in for the paper's long-term repeats.
	Attempts int
	// OutsideTargets caps targets probed per vantage point.
	OutsideTargets int
	// PerURLTimeout bounds each pipelined GET.
	PerURLTimeout time.Duration
}

// DefaultScanConfig returns paper-shaped defaults.
func DefaultScanConfig() ScanConfig {
	return ScanConfig{Paths: 1000, SampleURLs: 150, Attempts: 2, OutsideTargets: 2, PerURLTimeout: 800 * time.Millisecond}
}

// PathScan is the outcome of probing one router-level path.
type PathScan struct {
	Dst      netip.Addr
	Poisoned bool
	// Blocked lists the Host values that drew censorship on this path.
	Blocked []string
}

// scanPath sends GETs with the given Host values towards dst over
// keep-alive connections, reconnecting whenever the censor kills one, and
// records which values drew a censorship response. The middleboxes are
// destination-agnostic (they match the Host field), which is exactly what
// makes this scan possible.
func scanPath(ep *ispnet.Endpoint, dst netip.Addr, hosts []string, attempts int, perURL time.Duration) *PathScan {
	res := &PathScan{Dst: dst}
	eng := ep.Host.Engine()
	conn, err := connEstablish(ep, dst, perURL*4)
	if err != nil {
		return res
	}
	consumed := 0
	for _, h := range hosts {
		blocked := false
		for a := 0; a < attempts && !blocked; a++ {
			if conn == nil || conn.Dead() {
				conn, err = connEstablish(ep, dst, perURL*4)
				if err != nil {
					conn = nil
					break
				}
				consumed = 0
			}
			conn.Send(httpwire.NewGET("/").Header("Host", h).Bytes())
			c := conn
			startLen := consumed
			_ = eng.RunUntil(perURL, func() bool {
				return c.Dead() || c.PeerClosed() || httpwire.HasResponse(c.Stream()[startLen:])
			})
			// Outcomes: censorship teardown, or an ordinary response.
			if _, reset := c.WasReset(); reset || c.PeerClosed() {
				stream := c.Stream()[startLen:]
				if reset && len(stream) == 0 {
					blocked = true // covert RST
				}
				if _, ok := MatchSignatureIn(ep.World, stream); ok {
					blocked = true
				}
				// Release the dead/half-closed connection (an overt
				// interceptive box leaves the client in CLOSE-WAIT with
				// its teardown blackholed; a real browser would reset).
				c.Abort()
				conn = nil
				continue
			}
			if httpwire.HasResponse(c.Stream()[startLen:]) {
				// Ordinary 404/200 from the destination host.
				consumed = len(c.Stream())
			}
		}
		if blocked {
			res.Blocked = append(res.Blocked, h)
			res.Poisoned = true
		}
	}
	if conn != nil && !conn.Dead() {
		conn.Abort()
		eng.RunFor(10 * time.Millisecond)
	}
	return res
}

// sampleEvenly picks n items spread evenly over the list.
func sampleEvenly(list []string, n int) []string {
	if n <= 0 || n >= len(list) {
		return list
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, list[i*len(list)/n])
	}
	return out
}

// CoverageResult reproduces one ISP's Table 2 row plus its Figure 5
// series.
type CoverageResult struct {
	ISP             string
	WithinCoverage  float64
	OutsideCoverage float64
	// Consistency is the §4.2.2 metric over poisoned paths.
	Consistency float64
	// BlockedUnion is every Host value censored on at least one path —
	// the paper's "No. of websites blocked" column.
	BlockedUnion []string
	// Series maps blocked domains to the percentage of poisoned paths
	// blocking them (Figure 5 Y values).
	Series map[string]float64

	PathsScanned  int
	PoisonedPaths int
	OutsidePaths  int
	OutsideHits   int
}

// MeasureCoverageWithin runs the within-ISP scan: TCP connections to
// Alexa destinations from the ISP client, Host values from the PBW list.
func (p *Probe) MeasureCoverageWithin(cfg ScanConfig) *CoverageResult {
	res := &CoverageResult{ISP: p.ISP.Name, Series: map[string]float64{}}
	pbw := p.World.Catalog.PBWDomains()
	sample := sampleEvenly(pbw, cfg.SampleURLs)
	alexa := p.World.Catalog.AlexaDomains()
	if cfg.Paths > 0 && cfg.Paths < len(alexa) {
		alexa = alexa[:cfg.Paths]
	}

	blockedCount := map[string]int{}
	for _, dst := range alexa {
		addrs, err := p.ResolveViaTor(dst)
		if err != nil {
			continue
		}
		// Classification pass with the sample.
		scan := scanPath(p.ISP.Client, addrs[0], sample, 1, cfg.PerURLTimeout)
		res.PathsScanned++
		if !scan.Poisoned {
			continue
		}
		res.PoisonedPaths++
		// Full consistency sweep on poisoned paths.
		full := scanPath(p.ISP.Client, addrs[0], pbw, cfg.Attempts, cfg.PerURLTimeout)
		for _, d := range full.Blocked {
			blockedCount[d]++
		}
	}
	if res.PathsScanned > 0 {
		res.WithinCoverage = float64(res.PoisonedPaths) / float64(res.PathsScanned)
	}
	for _, d := range pbw { // website-ID order
		if blockedCount[d] > 0 {
			res.BlockedUnion = append(res.BlockedUnion, d)
		}
	}
	if res.PoisonedPaths > 0 && len(res.BlockedUnion) > 0 {
		sum := 0.0
		for _, d := range res.BlockedUnion {
			frac := float64(blockedCount[d]) / float64(res.PoisonedPaths)
			res.Series[d] = 100 * frac
			sum += frac
		}
		res.Consistency = sum / float64(len(res.BlockedUnion))
	}
	return res
}

// MeasureCoverageOutside runs the outside-in scan: every vantage point
// probes live in-ISP hosts with censored Host values, counting paths
// that any middlebox poisons. The Jio row of Table 2 comes out as zero
// because its boxes inspect only Jio-sourced traffic.
func (p *Probe) MeasureCoverageOutside(cfg ScanConfig) (paths, poisoned int) {
	pbw := p.World.Catalog.PBWDomains()
	sample := sampleEvenly(pbw, cfg.SampleURLs)
	for _, vp := range p.World.VPs {
		targets := p.ISP.Targets
		if cfg.OutsideTargets > 0 && cfg.OutsideTargets < len(targets) {
			targets = targets[:cfg.OutsideTargets]
		}
		for _, tgt := range targets {
			scan := scanPath(vp, tgt, sample, 1, cfg.PerURLTimeout)
			paths++
			if scan.Poisoned {
				poisoned++
			}
		}
	}
	return paths, poisoned
}

// MeasureCoverage combines both directions into the Table 2 row.
func (p *Probe) MeasureCoverage(cfg ScanConfig) *CoverageResult {
	res := p.MeasureCoverageWithin(cfg)
	res.OutsidePaths, res.OutsideHits = p.MeasureCoverageOutside(cfg)
	if res.OutsidePaths > 0 {
		res.OutsideCoverage = float64(res.OutsideHits) / float64(res.OutsidePaths)
	}
	return res
}
