package tcpsim

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/netpkt"
	"repro/internal/sim"
)

// Conn is one TCP connection endpoint.
type Conn struct {
	stack      *Stack
	localAddr  netip.Addr
	localPort  uint16
	remoteAddr netip.Addr
	remotePort uint16

	state  State
	iss    uint32 // initial send sequence
	sndNxt uint32 // next sequence to send
	sndUna uint32 // oldest unacknowledged sequence (cumulative-ACK left edge)
	rcvNxt uint32 // next sequence expected

	recvBuf []byte
	// readOff is the consuming read cursor into recvBuf: bytes before it
	// were handed out through ReadStream/Consume and may be discarded by
	// compaction. Probe-style callers that never Consume keep it at zero,
	// which is what keeps Stream() meaning "everything received".
	readOff int
	// peerWnd is the window the remote advertised on its last segment.
	peerWnd uint16
	// recvWindow, when positive, bounds the advertised receive window to
	// recvWindow minus the unconsumed bytes (long-lived bridge connections
	// push back on senders instead of buffering without bound). Zero keeps
	// the historical fixed 65535 advertisement.
	recvWindow int
	// lastWnd is the window value of our most recent segment, so Consume
	// knows when a zero-window it advertised has reopened.
	lastWnd uint16
	// peerFIN records that the remote (or something forging it) closed the
	// stream, and finSeen the virtual time it happened.
	peerFIN bool
	finAt   sim.Time
	// resetBy holds the segment of the RST that killed the connection.
	resetBy *netpkt.TCPSegment

	onAccept func(*Conn)
	// OnData fires whenever new in-order payload is appended to the
	// receive buffer (and on FIN). Servers parse requests from here.
	OnData func(*Conn)
	// OnStateChange fires after every state transition — the completion
	// hook blocking bridge APIs (connect, accept, close) wait on.
	OnStateChange func(*Conn)
	// OnAck fires when the cumulative ACK advances, opening send window —
	// the hook bridge writers block on for backpressure.
	OnAck func(*Conn)

	// DupAcks counts out-of-order segments answered with duplicate ACKs.
	DupAcks int
}

// flowID is the local-first demux key.
func (c *Conn) flowID() netpkt.FlowID {
	return netpkt.FlowKey{
		Src: c.localAddr, Dst: c.remoteAddr,
		SrcPort: c.localPort, DstPort: c.remotePort,
		Proto: netpkt.ProtoTCP,
	}.ID()
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// LocalAddr returns the local address.
func (c *Conn) LocalAddr() netip.Addr { return c.localAddr }

// LocalPort returns the local port.
func (c *Conn) LocalPort() uint16 { return c.localPort }

// RemoteAddr returns the remote address.
func (c *Conn) RemoteAddr() netip.Addr { return c.remoteAddr }

// RemotePort returns the remote port.
func (c *Conn) RemotePort() uint16 { return c.remotePort }

// Stream returns the bytes received in order so far. On connections whose
// owner consumes via ReadStream/Consume the retained prefix may have been
// compacted away; probe-style callers that never Consume always see the
// full stream from byte zero. The slice is the connection's own receive
// buffer, not a copy: it stays unchanged only once the connection is dead,
// and Consume overwrites it in place, so only the connection's owner may
// keep it (or anything parsed to alias it) past the next engine step.
func (c *Conn) Stream() []byte { return c.recvBuf }

// ReadStream returns the received bytes not yet consumed by Consume. It is
// the read-cursor view bridge connections drain from, leaving Stream() to
// the callers that want the whole history.
func (c *Conn) ReadStream() []byte { return c.recvBuf[c.readOff:] }

// Buffered returns how many received bytes are waiting to be consumed.
func (c *Conn) Buffered() int { return len(c.recvBuf) - c.readOff }

// Consume advances the read cursor past n bytes previously returned by
// ReadStream. Once the consumed prefix dominates the buffer it is
// compacted in place, so a long-lived connection holds only its unread
// tail. If consuming reopens a zero receive window it advertised, a
// window-update ACK is sent so a blocked peer resumes.
func (c *Conn) Consume(n int) {
	if n < 0 || n > c.Buffered() {
		panic(fmt.Sprintf("tcpsim: Consume(%d) with %d buffered", n, c.Buffered()))
	}
	c.readOff += n
	if c.readOff >= 4096 && c.readOff*2 >= len(c.recvBuf) {
		m := copy(c.recvBuf, c.recvBuf[c.readOff:])
		c.recvBuf = c.recvBuf[:m]
		c.readOff = 0
	}
	if c.recvWindow > 0 && c.lastWnd == 0 && c.advertWindow() > 0 && !c.Dead() {
		c.sendAck()
	}
}

// SetRecvWindow bounds the window this side advertises to n minus the
// unconsumed bytes (n ≤ 0 restores the fixed 65535 advertisement). The
// simulated stack never drops in-window data, so the bound is cooperative:
// it throttles peers that honour the advertised window — bridge writers do
// — rather than hard-limiting the buffer.
func (c *Conn) SetRecvWindow(n int) { c.recvWindow = n }

// advertWindow computes the receive window for outgoing segments.
func (c *Conn) advertWindow() uint16 {
	if c.recvWindow <= 0 {
		return 65535
	}
	w := c.recvWindow - c.Buffered()
	if w <= 0 {
		return 0
	}
	if w > 65535 {
		w = 65535
	}
	return uint16(w)
}

// InFlight returns how many sequence units (payload bytes plus SYN/FIN)
// have been sent but not cumulatively acknowledged.
func (c *Conn) InFlight() int { return int(int32(c.sndNxt - c.sndUna)) }

// PeerWindow returns the window the remote advertised on its most recent
// segment.
func (c *Conn) PeerWindow() int { return int(c.peerWnd) }

// PeerClosed reports whether a FIN was accepted from the remote side.
func (c *Conn) PeerClosed() bool { return c.peerFIN }

// WasReset reports whether the connection was killed by a valid RST, and
// returns that segment.
func (c *Conn) WasReset() (*netpkt.TCPSegment, bool) { return c.resetBy, c.resetBy != nil }

// Established reports whether the handshake completed.
func (c *Conn) Established() bool {
	return c.state != StateSynSent && c.state != StateSynRcvd && c.state != StateClosed && c.state != StateReset
}

// Dead reports whether the connection is fully terminated.
func (c *Conn) Dead() bool { return c.state == StateClosed || c.state == StateReset }

// SndNxt exposes the next send sequence number (probes craft raw segments
// relative to it).
func (c *Conn) SndNxt() uint32 { return c.sndNxt }

// RcvNxt exposes the next expected receive sequence number.
func (c *Conn) RcvNxt() uint32 { return c.rcvNxt }

// sendSegment fills in addressing and transmits. ttl/ipid of zero use
// defaults.
func (c *Conn) sendSegment(seg *netpkt.TCPSegment, ttl uint8, ipid uint16) {
	seg.SrcPort = c.localPort
	seg.DstPort = c.remotePort
	pkt := netpkt.NewTCP(c.localAddr, c.remoteAddr, seg)
	if ttl != 0 {
		pkt.IP.TTL = ttl
	}
	pkt.IP.ID = ipid
	c.stack.host.Send(pkt)
}

// setState transitions the connection state and fires OnStateChange.
func (c *Conn) setState(s State) {
	if c.state == s {
		return
	}
	c.state = s
	if c.OnStateChange != nil {
		c.OnStateChange(c)
	}
}

// Send transmits payload as one PSH+ACK segment, advancing sndNxt.
func (c *Conn) Send(payload []byte) {
	c.lastWnd = c.advertWindow()
	c.sendSegment(&netpkt.TCPSegment{
		Flags: netpkt.PSH | netpkt.ACK, Seq: c.sndNxt, Ack: c.rcvNxt,
		Window: c.lastWnd, Payload: payload,
	}, 0, 0)
	c.sndNxt += uint32(len(payload))
}

// SendSegmented transmits payload split across n back-to-back segments.
// On-path boxes that match patterns per packet (all the middleboxes in the
// paper) never see the full request; the receiving stack reassembles the
// stream transparently — the fragmentation evasion of §5.
func (c *Conn) SendSegmented(payload []byte, n int) {
	if n < 1 {
		n = 1
	}
	chunk := (len(payload) + n - 1) / n
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		if end > len(payload) {
			end = len(payload)
		}
		c.Send(payload[off:end])
	}
}

// RawOpts controls crafted segments sent on an existing connection.
type RawOpts struct {
	TTL       uint8  // 0 = default 64
	IPID      uint16 // IP identification field
	SeqOffset int32  // offset from current sndNxt
	// Advance moves sndNxt past the payload. The paper's paired-TTL
	// experiment sends the same GET twice (TTL n-1 then n) at the same
	// sequence position: the first with Advance=false.
	Advance bool
	Flags   netpkt.TCPFlags // 0 = PSH|ACK
}

// SendRaw transmits a crafted payload segment on the connection.
func (c *Conn) SendRaw(payload []byte, o RawOpts) {
	flags := o.Flags
	if flags == 0 {
		flags = netpkt.PSH | netpkt.ACK
	}
	c.sendSegment(&netpkt.TCPSegment{
		Flags: flags, Seq: c.sndNxt + uint32(o.SeqOffset), Ack: c.rcvNxt,
		Window: 65535, Payload: payload,
	}, o.TTL, o.IPID)
	if o.Advance {
		c.sndNxt += uint32(len(payload))
	}
}

// Close starts an orderly shutdown (FIN).
func (c *Conn) Close() {
	switch c.state {
	case StateEstablished:
		c.setState(StateFinWait1)
	case StateCloseWait:
		c.setState(StateLastAck)
	default:
		return
	}
	c.lastWnd = c.advertWindow()
	c.sendSegment(&netpkt.TCPSegment{
		Flags: netpkt.FIN | netpkt.ACK, Seq: c.sndNxt, Ack: c.rcvNxt, Window: c.lastWnd,
	}, 0, 0)
	c.sndNxt++
}

// Abort sends RST and discards the connection, the way a client stack
// gives up on a half-closed connection whose teardown never completes
// (the interceptive-middlebox blackhole case in §4.2.1).
func (c *Conn) Abort() {
	if c.Dead() {
		return
	}
	c.sendSegment(&netpkt.TCPSegment{Flags: netpkt.RST, Seq: c.sndNxt}, 0, 0)
	c.setState(StateClosed)
	c.stack.remove(c)
}

// handleSegment is the receive-side state machine.
func (c *Conn) handleSegment(seg *netpkt.TCPSegment) {
	// RST processing: accepted only at the exact expected sequence (or
	// during SYN-SENT with a valid ACK). A stale RST — e.g. one forged by
	// a wiretap middlebox that lost the race against the real response —
	// is ignored, exactly like a real stack.
	if seg.Flags.Has(netpkt.RST) {
		ok := false
		switch c.state {
		case StateSynSent:
			ok = seg.Flags.Has(netpkt.ACK) && seg.Ack == c.sndNxt
		default:
			ok = seg.Seq == c.rcvNxt
		}
		if ok {
			c.resetBy = seg
			c.setState(StateReset)
			c.stack.remove(c)
		}
		return
	}

	// Window and cumulative-ACK accounting, before any state handling:
	// every non-RST segment refreshes the peer's advertised window, and an
	// in-range ACK advances the unacknowledged left edge (opening send
	// window for backpressured bridge writers).
	c.peerWnd = seg.Window
	if seg.Flags.Has(netpkt.ACK) && seqLE(c.sndUna, seg.Ack) && seqLE(seg.Ack, c.sndNxt) && seg.Ack != c.sndUna {
		c.sndUna = seg.Ack
		if c.OnAck != nil {
			c.OnAck(c)
		}
	}

	switch c.state {
	case StateSynSent:
		if seg.Flags.Has(netpkt.SYN|netpkt.ACK) && seg.Ack == c.sndNxt {
			c.rcvNxt = seg.Seq + 1
			c.setState(StateEstablished)
			c.sendAck()
		}
		return
	case StateSynRcvd:
		if seg.Flags.Has(netpkt.ACK) && seg.Ack == c.sndNxt {
			c.setState(StateEstablished)
			if c.onAccept != nil {
				c.onAccept(c)
			}
			// Fall through to process piggybacked data.
			if len(seg.Payload) > 0 || seg.Flags.Has(netpkt.FIN) {
				c.processData(seg)
			}
		}
		return
	case StateClosed, StateReset:
		return
	}

	// Established and closing states: our FIN being acknowledged drives
	// the active-close ladder.
	if seg.Flags.Has(netpkt.ACK) && seg.Ack == c.sndNxt {
		switch c.state {
		case StateFinWait1:
			c.setState(StateFinWait2)
		case StateClosing:
			c.enterTimeWait()
		case StateLastAck:
			c.setState(StateClosed)
			c.stack.remove(c)
			return
		}
	}

	if len(seg.Payload) > 0 || seg.Flags.Has(netpkt.FIN) {
		c.processData(seg)
	}
}

// processData handles in-order payload and FIN.
func (c *Conn) processData(seg *netpkt.TCPSegment) {
	if seg.Seq != c.rcvNxt {
		// Out-of-order or stale (e.g. the real server response arriving
		// after a forged one already consumed that sequence range):
		// duplicate-ACK and drop.
		c.DupAcks++
		c.sendAck()
		return
	}
	if len(seg.Payload) > 0 {
		c.recvBuf = append(c.recvBuf, seg.Payload...)
		c.rcvNxt += uint32(len(seg.Payload))
	}
	if seg.Flags.Has(netpkt.FIN) {
		c.rcvNxt++
		c.peerFIN = true
		c.finAt = c.stack.eng.Now()
		switch c.state {
		case StateEstablished:
			c.setState(StateCloseWait)
		case StateFinWait1:
			c.setState(StateClosing)
		case StateFinWait2:
			c.enterTimeWait()
		}
	}
	c.sendAck()
	if c.OnData != nil {
		c.OnData(c)
	}
}

func (c *Conn) sendAck() {
	c.lastWnd = c.advertWindow()
	c.sendSegment(&netpkt.TCPSegment{Flags: netpkt.ACK, Seq: c.sndNxt, Ack: c.rcvNxt, Window: c.lastWnd}, 0, 0)
}

// seqLE reports a ≤ b in sequence space (RFC 1982 serial arithmetic).
func seqLE(a, b uint32) bool { return int32(b-a) >= 0 }

func (c *Conn) enterTimeWait() {
	c.setState(StateTimeWait)
	c.stack.eng.ScheduleCall(time.Second, timeWaitExpire, c, nil)
}

// timeWaitExpire is the shared TIME-WAIT timer callback (scheduled via
// ScheduleCall so teardown does not allocate a closure per connection).
func timeWaitExpire(a, _ any) {
	c := a.(*Conn)
	if c.state == StateTimeWait {
		c.setState(StateClosed)
		c.stack.remove(c)
	}
}

// WaitEstablished drives the engine until the handshake completes, the
// connection dies, or the timeout elapses.
func (c *Conn) WaitEstablished(timeout time.Duration) error {
	err := c.stack.eng.RunUntil(timeout, func() bool { return c.Established() || c.Dead() })
	if err != nil {
		return fmt.Errorf("tcpsim: connect %v:%d: %w", c.remoteAddr, c.remotePort, err)
	}
	if c.Dead() {
		return fmt.Errorf("tcpsim: connect %v:%d: connection refused/reset", c.remoteAddr, c.remotePort)
	}
	return nil
}

// WaitStream drives the engine until the receive buffer reaches n bytes,
// the peer closes, the connection resets, or the timeout elapses. It
// returns the buffered stream.
func (c *Conn) WaitStream(n int, timeout time.Duration) []byte {
	_ = c.stack.eng.RunUntil(timeout, func() bool {
		return len(c.recvBuf) >= n || c.peerFIN || c.Dead()
	})
	return c.recvBuf
}

// WaitQuiet drives the engine for the given duration (lets in-flight
// exchanges settle) and returns the buffered stream.
func (c *Conn) WaitQuiet(d time.Duration) []byte {
	c.stack.eng.RunFor(d)
	return c.recvBuf
}

// WaitClosed drives the engine until the connection is fully dead.
func (c *Conn) WaitClosed(timeout time.Duration) bool {
	_ = c.stack.eng.RunUntil(timeout, func() bool { return c.Dead() })
	return c.Dead()
}
