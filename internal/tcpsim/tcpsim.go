// Package tcpsim implements a lightweight TCP state machine over netsim
// hosts: three-way handshake, sequence/acknowledgement accounting, orderly
// FIN teardown, RST handling, and stack-level resets for packets that match
// no connection.
//
// Fidelity to real kernel behaviour matters here because the paper's
// censorship middleboxes work by forging exactly the packets a real client
// stack will honour: a 200-OK payload with FIN set and correct seq/ack
// numbers tears the connection down, the real server response then arrives
// on a dead connection and is answered with RST. The same strictness makes
// the countermeasures meaningful: a forged RST with a stale sequence number
// is ignored, and the client-side packet filter can drop middlebox packets
// before they ever reach this state machine.
//
// Simplifications relative to a production stack (documented here):
// segments are delivered in order by the simulator so there is no
// reassembly queue (out-of-order data is dropped with a duplicate ACK), and
// there are no retransmissions — losses in the simulation are deliberate
// (middlebox blackholing) and the experiments detect them via timeouts.
package tcpsim

import (
	"fmt"
	"net/netip"

	"repro/internal/netpkt"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// State is a TCP connection state.
type State int

// Connection states (RFC 793 subset).
const (
	StateSynSent State = iota
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
	StateClosed
	StateReset // terminated by a valid RST
)

var stateNames = [...]string{
	"SYN-SENT", "SYN-RCVD", "ESTABLISHED", "FIN-WAIT-1", "FIN-WAIT-2",
	"CLOSE-WAIT", "CLOSING", "LAST-ACK", "TIME-WAIT", "CLOSED", "RESET",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Stack multiplexes TCP connections for one host.
type Stack struct {
	host      *netsim.Host
	eng       *sim.Engine
	listeners map[uint16]func(*Conn)
	conns     map[netpkt.FlowID]*Conn
	// portRefs tracks how many live connections use each local port, so
	// ephemeral allocation is O(1) even with tens of thousands of
	// connections (mass scans).
	portRefs map[uint16]int
	nextPort uint16

	// RSTsSent counts stack-level resets for packets matching no
	// connection — the signal the paper observed when a censored
	// connection's real response finally arrived.
	RSTsSent int
}

// NewStack attaches a TCP stack to the host.
func NewStack(h *netsim.Host) *Stack {
	s := &Stack{
		host:      h,
		eng:       h.Engine(),
		listeners: make(map[uint16]func(*Conn)),
		conns:     make(map[netpkt.FlowID]*Conn),
		portRefs:  make(map[uint16]int),
		nextPort:  32768,
	}
	h.SetTCPHandler(s.handle)
	return s
}

// Host returns the stack's host.
func (s *Stack) Host() *netsim.Host { return s.host }

// Engine returns the simulation engine.
func (s *Stack) Engine() *sim.Engine { return s.eng }

// Listen registers an accept callback for a local port. A nil callback
// unregisters the port (bridge listeners close this way); connections
// already accepted are unaffected.
func (s *Stack) Listen(port uint16, onAccept func(*Conn)) {
	if onAccept == nil {
		delete(s.listeners, port)
		return
	}
	s.listeners[port] = onAccept
}

// ephemeralPort allocates a fresh local port in O(1).
func (s *Stack) ephemeralPort() uint16 {
	for {
		p := s.nextPort
		s.nextPort++
		if s.nextPort < 32768 {
			s.nextPort = 32768
		}
		if s.portRefs[p] == 0 && s.listeners[p] == nil {
			return p
		}
	}
}

// Connect starts an active open to dst:port and returns the connection in
// SYN-SENT state; drive the engine (e.g. with WaitEstablished) to progress.
func (s *Stack) Connect(dst netip.Addr, port uint16) *Conn {
	c := &Conn{
		stack:      s,
		localAddr:  s.host.Addr(),
		localPort:  s.ephemeralPort(),
		remoteAddr: dst,
		remotePort: port,
		state:      StateSynSent,
		iss:        s.eng.Rand().Uint32(),
	}
	c.sndNxt = c.iss
	s.insert(c)
	c.sendSegment(&netpkt.TCPSegment{Flags: netpkt.SYN, Seq: c.sndNxt, Window: 65535}, 0, 0)
	c.sndNxt++
	c.sndUna = c.sndNxt
	return c
}

// insert registers a connection for demux and port accounting.
func (s *Stack) insert(c *Conn) {
	s.conns[c.flowID()] = c
	s.portRefs[c.localPort]++
}

// handle dispatches an arriving TCP packet.
func (s *Stack) handle(pkt *netpkt.Packet) {
	key := pkt.Flow().ID().Reverse() // our local-first key
	if c, ok := s.conns[key]; ok {
		c.handleSegment(pkt.TCP)
		return
	}
	if onAccept, ok := s.listeners[pkt.TCP.DstPort]; ok && pkt.TCP.Flags.Has(netpkt.SYN) && !pkt.TCP.Flags.Has(netpkt.ACK) {
		c := &Conn{
			stack:      s,
			localAddr:  s.host.Addr(),
			localPort:  pkt.TCP.DstPort,
			remoteAddr: pkt.IP.Src,
			remotePort: pkt.TCP.SrcPort,
			state:      StateSynRcvd,
			iss:        s.eng.Rand().Uint32(),
			onAccept:   onAccept,
		}
		c.rcvNxt = pkt.TCP.Seq + 1
		c.sndNxt = c.iss
		c.peerWnd = pkt.TCP.Window
		s.insert(c)
		c.sendSegment(&netpkt.TCPSegment{Flags: netpkt.SYN | netpkt.ACK, Seq: c.sndNxt, Ack: c.rcvNxt, Window: 65535}, 0, 0)
		c.sndNxt++
		c.sndUna = c.sndNxt
		return
	}
	// No connection, no listener: stack-level RST (unless it is itself RST).
	if pkt.TCP.Flags.Has(netpkt.RST) {
		return
	}
	s.RSTsSent++
	seg := &netpkt.TCPSegment{SrcPort: pkt.TCP.DstPort, DstPort: pkt.TCP.SrcPort}
	if pkt.TCP.Flags.Has(netpkt.ACK) {
		seg.Flags = netpkt.RST
		seg.Seq = pkt.TCP.Ack
	} else {
		seg.Flags = netpkt.RST | netpkt.ACK
		seg.Ack = pkt.TCP.Seq + pkt.TCP.SeqSpan()
	}
	out := netpkt.NewTCP(s.host.Addr(), pkt.IP.Src, seg)
	s.host.Send(out)
}

// remove drops the connection from the stack's demux table.
func (s *Stack) remove(c *Conn) {
	key := c.flowID()
	if _, ok := s.conns[key]; !ok {
		return
	}
	delete(s.conns, key)
	if s.portRefs[c.localPort] <= 1 {
		delete(s.portRefs, c.localPort)
	} else {
		s.portRefs[c.localPort]--
	}
}

// OpenConns returns the number of live connections (debug/tests).
func (s *Stack) OpenConns() int { return len(s.conns) }

// Reset drops every connection and rewinds port allocation and counters to
// the stack's just-constructed state. Listeners — build-time wiring of the
// servers living on this host — are kept. Connection timers scheduled on
// the engine must be discarded separately (Engine.Reset does). Maps are
// cleared in place, keeping their capacity for the next campaign task.
func (s *Stack) Reset() {
	clear(s.conns)
	clear(s.portRefs)
	s.nextPort = 32768
	s.RSTsSent = 0
}
