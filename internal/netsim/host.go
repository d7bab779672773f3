package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/netpkt"
	"repro/internal/sim"
)

// Direction of a captured packet relative to the capturing host.
type Direction int

// Capture directions.
const (
	DirOut Direction = iota
	DirIn
)

func (d Direction) String() string {
	if d == DirOut {
		return ">"
	}
	return "<"
}

// Captured is one pcap-style capture record.
type Captured struct {
	At  sim.Time
	Dir Direction
	Pkt *netpkt.Packet
}

func (c Captured) String() string {
	return fmt.Sprintf("%-12v %s %s", c.At, c.Dir, c.Pkt.Summary())
}

// IngressFilter decides whether an arriving packet is accepted (true) or
// dropped before any protocol processing. It is the simulation's iptables
// hook: the paper's client-side anti-censorship drops middlebox FIN/RST
// packets here, working from raw wire bytes. raw comes from a pooled
// buffer and is valid only for the duration of the call — filters that
// need the bytes afterwards must copy (or parse) them.
type IngressFilter func(raw []byte, pkt *netpkt.Packet) bool

// Host is an end system: it originates packets and dispatches arriving ones
// to protocol handlers.
type Host struct {
	addr          netip.Addr
	router        *Router
	accessLatency time.Duration
	net           *Network

	tcpHandler  func(*netpkt.Packet)
	udpHandlers map[uint16]func(*netpkt.Packet)
	icmpHandler func(*netpkt.Packet)

	filter IngressFilter

	capturing captureMode
	captures  []Captured
	// tap is the persistent capture hook (pcap writers): unlike the
	// Start/StopCapture window — which probes open and close around their
	// own flows — it observes every packet until cleared or the runtime
	// baseline is restored.
	tap PacketTap

	// baseline is the handler registration captured by MarkBaseline — the
	// pristine build-time state RestoreBaseline rewinds to.
	baseline *hostBaseline
}

// captureMode selects what the Start/StopCapture window records.
type captureMode uint8

const (
	captureOff captureMode = iota
	captureBoth
	captureInbound
)

// hostBaseline snapshots the handler state a world build leaves behind.
type hostBaseline struct {
	udpHandlers map[uint16]func(*netpkt.Packet)
	icmpHandler func(*netpkt.Packet)
	filter      IngressFilter
}

// AddHost attaches a host with IPv4 address addr to router r.
func (n *Network) AddHost(addr netip.Addr, r *Router, accessLatency time.Duration) *Host {
	if !addr.Is4() {
		panic(fmt.Sprintf("netsim: host address %v is not IPv4", addr))
	}
	if n.hostAt(addr) != nil {
		panic(fmt.Sprintf("netsim: duplicate host %v", addr))
	}
	h := &Host{
		addr:          addr,
		router:        r,
		accessLatency: accessLatency,
		net:           n,
		udpHandlers:   make(map[uint16]func(*netpkt.Packet)),
	}
	n.hosts[netpkt.V4Key(addr)] = h
	return h
}

// RemoveHost detaches a host from the network: packets to its address fall
// back to prefix routing (usually a claimed-prefix drop). It exists for
// bridge-owned endpoints seated after Build and removed with their
// bridge's lifecycle; build-time hosts are permanent.
func (n *Network) RemoveHost(h *Host) { delete(n.hosts, netpkt.V4Key(h.addr)) }

// Addr returns the host's address.
func (h *Host) Addr() netip.Addr { return h.addr }

// Router returns the host's access router.
func (h *Host) Router() *Router { return h.router }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Engine returns the simulation engine.
func (h *Host) Engine() *sim.Engine { return h.net.eng }

// Send transmits a packet from this host. The caller sets pkt.IP.Src
// (normally the host's own address; raw probes may spoof).
//
//repolint:hotpath
func (h *Host) Send(pkt *netpkt.Packet) { h.net.SendFromHost(h, pkt) }

// SendAfter transmits a packet from this host after d of virtual time,
// without building a per-call closure (the processing-latency pattern of
// resolvers and middleboxes).
//
//repolint:hotpath
func (h *Host) SendAfter(d time.Duration, pkt *netpkt.Packet) {
	h.net.eng.ScheduleCall(d, h.net.sendFn, h, pkt)
}

// SetTCPHandler registers the function receiving all TCP packets
// (typically a tcpsim.Stack).
func (h *Host) SetTCPHandler(fn func(*netpkt.Packet)) { h.tcpHandler = fn }

// SetUDPHandler registers a handler for one UDP destination port.
func (h *Host) SetUDPHandler(port uint16, fn func(*netpkt.Packet)) {
	if fn == nil {
		delete(h.udpHandlers, port)
		return
	}
	h.udpHandlers[port] = fn
}

// SetICMPHandler registers the handler for arriving ICMP messages.
func (h *Host) SetICMPHandler(fn func(*netpkt.Packet)) { h.icmpHandler = fn }

// SetIngressFilter installs (or clears, with nil) the host's packet filter.
func (h *Host) SetIngressFilter(f IngressFilter) { h.filter = f }

// MarkBaseline records the host's current handler registration (UDP
// handlers, ICMP handler, ingress filter) as the pristine state
// RestoreBaseline rewinds to. The world builder calls it once the topology
// is assembled; everything registered afterwards — ephemeral DNS query
// ports, tracer ICMP hooks, evasion packet filters — is runtime state.
func (h *Host) MarkBaseline() {
	udp := make(map[uint16]func(*netpkt.Packet), len(h.udpHandlers))
	for p, fn := range h.udpHandlers {
		udp[p] = fn
	}
	h.baseline = &hostBaseline{udpHandlers: udp, icmpHandler: h.icmpHandler, filter: h.filter}
}

// RestoreBaseline rewinds the host to the MarkBaseline snapshot and drops
// any in-progress capture. A no-op when no baseline was marked. The
// handler map is cleared and refilled in place so a world reset does not
// churn one allocation per host.
func (h *Host) RestoreBaseline() {
	if h.baseline == nil {
		return
	}
	clear(h.udpHandlers)
	for p, fn := range h.baseline.udpHandlers {
		h.udpHandlers[p] = fn
	}
	h.icmpHandler = h.baseline.icmpHandler
	h.filter = h.baseline.filter
	h.capturing = captureOff
	h.captures = nil
	h.tap = nil
}

// PacketTap observes one packet crossing a host. The packet is live
// simulator state: an outbound one mutates in flight (per-hop TTL
// decrement), so a tap that keeps bytes must serialize or copy during the
// call.
type PacketTap func(at sim.Time, dir Direction, pkt *netpkt.Packet)

// SetTap installs (or clears, with nil) the host's persistent capture tap.
// The tap runs for every packet in and out of the host, independent of the
// Start/StopCapture window, so a pcap writer keeps recording across the
// capture windows probes open for themselves. RestoreBaseline clears it.
func (h *Host) SetTap(fn PacketTap) { h.tap = fn }

// StartCapture begins recording all packets in and out of the host.
func (h *Host) StartCapture() {
	h.capturing = captureBoth
	h.captures = nil
}

// StartInboundCapture begins a capture window that records only packets
// arriving at the host (DirIn). Inbound records share the delivered packet,
// so the window clones nothing; probes that never read their own outbound
// packets open this one. StopCapture and Captures work as for StartCapture.
func (h *Host) StartInboundCapture() {
	h.capturing = captureInbound
	h.captures = nil
}

// StopCapture stops recording and returns the capture.
func (h *Host) StopCapture() []Captured {
	h.capturing = captureOff
	out := h.captures
	h.captures = nil
	return out
}

// Captures returns the capture so far without stopping.
func (h *Host) Captures() []Captured { return h.captures }

//repolint:hotpath
func (h *Host) capture(dir Direction, pkt *netpkt.Packet) {
	if h.tap != nil {
		h.tap(h.net.eng.Now(), dir, pkt)
	}
	if h.capturing == captureOff || dir == DirOut && h.capturing == captureInbound {
		return
	}
	rec := Captured{At: h.net.eng.Now(), Dir: dir, Pkt: pkt}
	if dir == DirOut {
		// Outbound packets mutate in flight (per-hop TTL decrement), so
		// the record needs its own copy. Delivery is terminal — an inbound
		// packet never changes again — so DirIn records share the packet.
		rec.Pkt = pkt.Clone()
	}
	if h.captures == nil {
		// A probe's window holds a handful of packets: one allocation
		// covers most of them instead of a growth step per doubling.
		h.captures = make([]Captured, 0, captureCap)
	}
	h.captures = append(h.captures, rec)
}

// captureCap is the initial capacity of a capture window's record slice.
const captureCap = 8

// deliver dispatches an arriving packet: filter, capture, then protocol
// handler.
//
//repolint:hotpath
func (h *Host) deliver(pkt *netpkt.Packet) {
	if h.filter != nil {
		// Eager pooled marshal: the buffer is sized to the wire image so
		// serialization never reallocates, and a lazy raw thunk would cost
		// the closure allocation this path exists to avoid.
		buf := h.net.pool.Get(pkt.WireLen())
		var raw []byte
		if out, err := pkt.AppendMarshal(buf); err == nil {
			raw = out
			buf = out
		}
		keep := h.filter(raw, pkt)
		h.net.pool.Put(buf)
		if !keep {
			return
		}
	}
	h.capture(DirIn, pkt)
	switch {
	case pkt.TCP != nil:
		if h.tcpHandler != nil {
			h.tcpHandler(pkt)
		}
	case pkt.UDP != nil:
		if fn, ok := h.udpHandlers[pkt.UDP.DstPort]; ok {
			fn(pkt)
		}
		// No ICMP port-unreachable for unhandled UDP: scanned dead ports
		// simply time out, as the paper's resolver scans assume.
	case pkt.ICMP != nil:
		if h.icmpHandler != nil {
			h.icmpHandler(pkt)
		}
	}
}
