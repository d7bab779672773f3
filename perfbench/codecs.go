package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/censor"
	"repro/internal/difflib"
	"repro/internal/dnswire"
	"repro/internal/httpwire"
	"repro/internal/middlebox"
	"repro/internal/netpkt"
	"repro/internal/tlswire"
	"repro/monitor"
)

const (
	// replayDomains is the PBW prefix the capture campaign measures: every
	// vantage runs every detector over it, one pcap per task.
	replayDomains = 24
	// replayCap bounds each codec's input sample.
	replayCap = 4000
	// replayBudget is how long each codec is replayed.
	replayBudget = 250 * time.Millisecond
)

// codecSamples are wire bytes captured from a campaign, sorted by the
// function they feed.
type codecSamples struct {
	packets   [][]byte
	dns       [][]byte
	responses [][]byte
	hellos    [][]byte
	gets      [][]byte
	bodyPairs [][2]string
}

// replayCodecs captures a bounded sample of campaign tasks with
// censor.WithPcap, parses the classic pcap records, and replays the
// bytes through each wire function, reporting ns and allocations per
// call.
func replayCodecs(ctx context.Context, sess *censor.Session, cfg runConfig, rep *report, ms []censor.Measurement) error {
	dir := filepath.Join(outDir, fmt.Sprintf("pcap-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	domains := sess.PBWDomains()
	if len(domains) > replayDomains {
		domains = domains[:replayDomains]
	}
	st, err := sess.Run(ctx, censor.Campaign{Domains: domains, Measurements: ms},
		censor.WithWorkers(workers), censor.WithPcap(dir))
	if err != nil {
		return err
	}
	results, err := st.Collect()
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Error != "" {
			rep.fail("capture campaign: %s/%s/%s: %s", r.Vantage, r.Measurement, r.Domain, r.Error)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.pcap"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	var s codecSamples
	for _, f := range files {
		if err := s.addFile(f); err != nil {
			return err
		}
	}
	fmt.Printf("codec replay: %d pcaps, %d packets, %d dns, %d responses, %d hellos, %d gets, %d body pairs\n",
		len(files), len(s.packets), len(s.dns), len(s.responses), len(s.hellos), len(s.gets), len(s.bodyPairs))

	replay := func(name string, n int, call func(i int)) {
		ns, allocs := timeCalls(n, call)
		rep.metrics[name+"_ns"] = ns
		rep.metrics[name+"_allocs"] = allocs
	}
	replay("netpkt.parse", len(s.packets), func(i int) { kept.packet, kept.err = netpkt.Parse(s.packets[i]) })
	replay("dnswire.parse", len(s.dns), func(i int) { kept.message, kept.err = dnswire.Parse(s.dns[i]) })
	replay("httpwire.parse_response", len(s.responses), func(i int) {
		kept.response, _, kept.err = httpwire.ParseResponse(s.responses[i])
	})
	replay("tlswire.parse_sni", len(s.hellos), func(i int) { kept.str, kept.err = tlswire.ParseSNI(s.hellos[i]) })
	replay("middlebox.extract_host", len(s.gets), func(i int) { kept.str, kept.ok = middlebox.ExtractHost(s.gets[i], false) })
	replay("difflib.ratio_lines", len(s.bodyPairs), func(i int) {
		kept.ratio = difflib.RatioLines(s.bodyPairs[i][0], s.bodyPairs[i][1])
	})
	return nil
}

// kept keeps measured calls' results reachable, so no call is optimised
// out; its fields are typed so that storing a result allocates nothing.
var kept struct {
	packet   *netpkt.Packet
	message  *dnswire.Message
	response *httpwire.Response
	str      string
	ok       bool
	ratio    float64
	err      error
	stored   []monitor.StoredResult
	delta    monitor.Delta
}

// timeCalls replays call over n inputs, round after round, for the
// replay budget; it returns ns and heap allocations per call (0, 0 for
// an empty sample).
func timeCalls(n int, call func(i int)) (nsPerCall, allocsPerCall float64) {
	if n == 0 {
		return 0, 0
	}
	for i := 0; i < n; i++ {
		call(i) // warm caches and lazily built state
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < replayBudget {
		for i := 0; i < n; i++ {
			call(i)
		}
		calls += n
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(calls), float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// addFile reads one classic little-endian pcap of raw IPv4 records and
// sorts its packets into the samples. Response bodies are paired per
// Host, in capture order, using the GET seen on the same client port.
func (s *codecSamples) addFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) < 24 || binary.LittleEndian.Uint32(b) != 0xa1b2c3d4 {
		return fmt.Errorf("%s: not a little-endian classic pcap", path)
	}
	hostByPort := map[uint16]string{}
	lastBody := map[string]string{}
	for off := 24; off+16 <= len(b); {
		n := int(binary.LittleEndian.Uint32(b[off+8:]))
		off += 16
		if off+n > len(b) {
			return fmt.Errorf("%s: truncated record", path)
		}
		rec := b[off : off+n]
		off += n
		s.classify(rec, hostByPort, lastBody)
	}
	return nil
}

func (s *codecSamples) classify(rec []byte, hostByPort map[uint16]string, lastBody map[string]string) {
	if len(s.packets) < replayCap {
		s.packets = append(s.packets, rec)
	}
	pkt, err := netpkt.Parse(rec)
	if err != nil {
		return
	}
	switch {
	case pkt.UDP != nil && (pkt.UDP.SrcPort == 53 || pkt.UDP.DstPort == 53) && len(pkt.UDP.Payload) > 0:
		if len(s.dns) < replayCap {
			s.dns = append(s.dns, pkt.UDP.Payload)
		}
	case pkt.TCP != nil && pkt.TCP.DstPort == 80 && bytes.HasPrefix(pkt.TCP.Payload, []byte("GET ")):
		if host, ok := middlebox.ExtractHost(pkt.TCP.Payload, false); ok {
			hostByPort[pkt.TCP.SrcPort] = host
		}
		if len(s.gets) < replayCap {
			s.gets = append(s.gets, pkt.TCP.Payload)
		}
	case pkt.TCP != nil && pkt.TCP.SrcPort == 80 && bytes.HasPrefix(pkt.TCP.Payload, []byte("HTTP/")):
		resp, _, err := httpwire.ParseResponse(pkt.TCP.Payload)
		if err != nil {
			return
		}
		if len(s.responses) < replayCap {
			s.responses = append(s.responses, pkt.TCP.Payload)
		}
		host, ok := hostByPort[pkt.TCP.DstPort]
		if !ok {
			return
		}
		body := string(resp.Body)
		if prev, seen := lastBody[host]; seen && len(s.bodyPairs) < replayCap {
			s.bodyPairs = append(s.bodyPairs, [2]string{prev, body})
		}
		lastBody[host] = body
	case pkt.TCP != nil && pkt.TCP.DstPort == 443 && len(pkt.TCP.Payload) > 0 && pkt.TCP.Payload[0] == 0x16:
		if _, err := tlswire.ParseSNI(pkt.TCP.Payload); err == nil && len(s.hellos) < replayCap {
			s.hellos = append(s.hellos, pkt.TCP.Payload)
		}
	}
}
