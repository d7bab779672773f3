// Package netsim simulates a router-level Internet: routers joined by
// latency-bearing links, hosts attached to routers, static shortest-path
// routing, per-hop TTL decrement with ICMP Time Exceeded generation, and
// attachment points for on-path network elements (inline boxes that may
// consume packets, and taps that receive copies) — the two ways the paper's
// interceptive and wiretap middleboxes sit in ISP networks.
//
// The simulation is deterministic: all delivery is scheduled on a sim.Engine
// and forwarding paths are canonical (the path used from A to B is always
// the exact reverse of the path used from B to A), which mirrors the
// symmetric intra-AS routing the paper's traceroute methodology relies on.
package netsim

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"time"

	"repro/internal/netpkt"
	"repro/internal/sim"
	"repro/obs"
)

// Tap receives a copy of every packet crossing the router it is attached
// to. Wiretap middleboxes implement Tap.
type Tap interface {
	Observe(pkt *netpkt.Packet, at *Router)
}

// Inline sees every packet crossing its router before forwarding and may
// consume it (returning true), in which case the packet travels no further.
// Interceptive middleboxes implement Inline.
type Inline interface {
	Process(pkt *netpkt.Packet, at *Router) bool
}

// Router is one router-level hop.
type Router struct {
	ID   int
	Name string
	ASN  int
	Addr netip.Addr
	// Anonymized routers do not emit ICMP Time Exceeded; they show up as
	// asterisks in traceroute, exactly how the paper says middlebox-
	// hosting routers behave in all tested ISPs (§6.1).
	Anonymized bool

	taps   []Tap
	inline []Inline
	policy func(dst netip.Addr) (*Router, bool)
	net    *Network
}

// SetPolicy installs a policy-routing hook consulted before the global
// shortest-path table: returning (next, true) forwards the packet to next
// (which must be directly linked). This is the simulation's stand-in for
// BGP policy — customer ISPs steering destinations through a chosen
// transit provider, and providers steering return traffic symmetrically so
// their on-path boxes see both directions of transiting flows.
func (r *Router) SetPolicy(fn func(dst netip.Addr) (*Router, bool)) { r.policy = fn }

// AttachTap attaches a wiretap to the router.
func (r *Router) AttachTap(t Tap) { r.taps = append(r.taps, t) }

// AttachInline attaches an inline element to the router.
func (r *Router) AttachInline(i Inline) { r.inline = append(r.inline, i) }

// Network returns the network the router belongs to.
func (r *Router) Network() *Network { return r.net }

// edge is one directed adjacency.
type edge struct {
	to      int
	latency time.Duration
}

// prefixEntry homes an advertised prefix at a router.
type prefixEntry struct {
	prefix netip.Prefix
	router *Router
	asn    int
}

// Network owns the topology and schedules all packet movement.
type Network struct {
	eng     *sim.Engine
	routers []*Router
	adj     [][]edge
	// hosts indexes the attached hosts by netpkt.V4Key of their IPv4
	// address; netpkt carries IPv4 only.
	hosts map[uint32]*Host

	prefixes []prefixEntry

	// dist[a*R+b] is the hop distance between routers (-1 disconnected).
	dist []int16
	// nextHop[v*R+d] is the fallback tree: the lowest-ID neighbor of v one
	// hop closer to d. Used for packets that have left their canonical
	// path (policy detours, spoofed sources, router-originated ICMP).
	nextHop []int32
	// pathArena holds the canonical router path of every connected pair
	// a<b, inclusive, back to back in (a, b) order; pathOff[k] and
	// pathOff[k+1] bound the path of the k-th pair (see pairPath), and
	// are equal for a disconnected one.
	// Both directions of a flow follow this same path, so on-path
	// middleboxes observe complete conversations, matching the symmetric
	// intra-AS routing the paper's methodology relies on.
	pathArena []int32
	pathOff   []int32
	built     bool

	// Drops counts packets dropped for having no route or no receiving
	// host; useful for experiment sanity checks.
	Drops uint64

	// pool recycles transient wire buffers (ingress-filter images, ICMP
	// quotes); single-threaded like the engine.
	pool netpkt.BufPool
	// arriveFn/deliverFn/sendFn are the long-lived dispatch callbacks the
	// hot path schedules through sim.Engine.ScheduleCall, so forwarding a
	// packet across N hops builds no per-hop closures: steady state, a
	// forwarded packet allocates nothing.
	arriveFn  func(a, b any)
	deliverFn func(a, b any)
	sendFn    func(a, b any)

	// Per-world telemetry, resolved once from the engine registry: packet
	// counts are virtual-event driven and thus deterministic.
	cForwarded *obs.Counter
	cDelivered *obs.Counter
	cDropped   *obs.Counter
}

// New creates an empty network on the given engine.
func New(eng *sim.Engine) *Network {
	n := &Network{eng: eng, hosts: make(map[uint32]*Host)}
	n.arriveFn = func(a, b any) { n.arriveAtRouter(a.(*Router), b.(*netpkt.Packet)) }
	n.deliverFn = func(a, b any) { a.(*Host).deliver(b.(*netpkt.Packet)) }
	n.sendFn = func(a, b any) { n.SendFromHost(a.(*Host), b.(*netpkt.Packet)) }
	reg := eng.Obs()
	n.cForwarded = reg.Counter("netsim_packets_forwarded_total")
	n.cDelivered = reg.Counter("netsim_packets_delivered_total")
	n.cDropped = reg.Counter("netsim_packets_dropped_total")
	n.pool.ObsGets = reg.Counter("netsim_pool_gets_total")
	n.pool.ObsHits = reg.Counter("netsim_pool_hits_total")
	return n
}

// BufPool exposes the network's wire-buffer free list for components that
// serialize on the packet path (same single-threaded contract as the
// engine).
func (n *Network) BufPool() *netpkt.BufPool { return &n.pool }

// Engine returns the simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// AddRouter creates a router. addr is the router's interface address used
// as the source of ICMP errors it generates.
func (n *Network) AddRouter(name string, asn int, addr netip.Addr) *Router {
	r := &Router{ID: len(n.routers), Name: name, ASN: asn, Addr: addr, net: n}
	n.routers = append(n.routers, r)
	n.adj = append(n.adj, nil)
	n.built = false
	return r
}

// Routers returns all routers in creation order.
func (n *Network) Routers() []*Router { return n.routers }

// Link joins two routers bidirectionally with the given one-way latency.
func (n *Network) Link(a, b *Router, latency time.Duration) {
	if a.net != n || b.net != n {
		panic("netsim: linking routers from a different network")
	}
	n.adj[a.ID] = append(n.adj[a.ID], edge{to: b.ID, latency: latency})
	n.adj[b.ID] = append(n.adj[b.ID], edge{to: a.ID, latency: latency})
	n.built = false
}

// ClaimPrefix homes an advertised prefix at a router. Packets to addresses
// within the prefix that have no registered host are routed to the router
// and dropped there (a dead IP). Prefix claims also drive the AS lookup
// used by the probe's "resolved IP in client AS" heuristic.
func (n *Network) ClaimPrefix(p netip.Prefix, r *Router) {
	n.prefixes = append(n.prefixes, prefixEntry{prefix: p, router: r, asn: r.ASN})
}

// Prefixes returns all advertised prefixes with their origin ASN, the
// simulation's analogue of the public CIDR report the paper used to find
// target prefixes per ISP.
func (n *Network) Prefixes() []PrefixInfo {
	out := make([]PrefixInfo, len(n.prefixes))
	for i, pe := range n.prefixes {
		out[i] = PrefixInfo{Prefix: pe.prefix, ASN: pe.asn}
	}
	return out
}

// PrefixInfo is one advertised route.
type PrefixInfo struct {
	Prefix netip.Prefix
	ASN    int
}

// hostAt returns the host registered at addr, or nil.
//
//repolint:hotpath
func (n *Network) hostAt(addr netip.Addr) *Host {
	if !addr.Is4() {
		return nil
	}
	return n.hosts[netpkt.V4Key(addr)]
}

// ASNOf returns the origin ASN advertising addr, or 0 if unrouted.
func (n *Network) ASNOf(addr netip.Addr) int {
	if h := n.hostAt(addr); h != nil {
		return h.router.ASN
	}
	for _, pe := range n.prefixes {
		if pe.prefix.Contains(addr) {
			return pe.asn
		}
	}
	return 0
}

// homeRouter finds the router a destination address lives behind.
//
//repolint:hotpath
func (n *Network) homeRouter(addr netip.Addr) *Router {
	if h := n.hostAt(addr); h != nil {
		return h.router
	}
	return n.prefixHome(addr)
}

// prefixHome finds the router homing the claimed prefix containing addr.
func (n *Network) prefixHome(addr netip.Addr) *Router {
	for _, pe := range n.prefixes {
		if pe.prefix.Contains(addr) {
			return pe.router
		}
	}
	return nil
}

// Host returns the host registered at addr, if any.
func (n *Network) Host(addr netip.Addr) (*Host, bool) {
	h := n.hostAt(addr)
	return h, h != nil
}

// MarkBaseline snapshots every host's handler registration as the pristine
// build-time state (see Host.MarkBaseline).
func (n *Network) MarkBaseline() {
	for _, h := range n.hosts {
		h.MarkBaseline()
	}
}

// ResetRuntime rewinds the network's runtime state — per-host handler
// registrations, captures, filters, and the drop counter — to the
// MarkBaseline snapshot. Topology, routing tables and policies are
// build-time state and stay untouched.
func (n *Network) ResetRuntime() {
	n.Drops = 0
	// Reset is an ownership hand-off point: a parked replica world may be
	// adopted by a different campaign worker.
	n.RebindPool()
	for _, h := range n.hosts {
		h.RestoreBaseline()
	}
}

// RebindPool releases the buffer pool's goroutine binding at a serialized
// ownership hand-off (race/repolint_debug builds; a no-op otherwise). The
// caller asserts all prior use of the network happened-before this call.
func (n *Network) RebindPool() { n.pool.Rebind() }

// Build computes routing tables. It must be called after topology changes
// and before traffic is sent. Paths are canonical per unordered router
// pair: the route B->A is the exact reverse of A->B, so on-path elements
// see both directions of every flow they intercept.
func (n *Network) Build() {
	R := len(n.routers)
	// Sort adjacency for deterministic iteration.
	for _, es := range n.adj {
		slices.SortStableFunc(es, func(a, b edge) int { return a.to - b.to })
	}
	// All-pairs hop distances by BFS from every router.
	n.dist = make([]int16, R*R)
	for i := range n.dist {
		n.dist[i] = -1
	}
	queue := make([]int32, 0, R)
	for s := 0; s < R; s++ {
		n.dist[s*R+s] = 0
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			du := n.dist[s*R+int(u)]
			for _, e := range n.adj[u] {
				if n.dist[s*R+e.to] == -1 {
					n.dist[s*R+e.to] = du + 1
					queue = append(queue, int32(e.to))
				}
			}
		}
	}
	// Fallback tree: lowest-ID neighbor one hop closer to each destination.
	n.nextHop = make([]int32, R*R)
	for v := 0; v < R; v++ {
		for d := 0; d < R; d++ {
			n.nextHop[v*R+d] = -1
			dv := n.dist[d*R+v]
			if v == d || dv <= 0 {
				continue
			}
			for _, e := range n.adj[v] { // sorted: first match is lowest ID
				if n.dist[d*R+e.to] == dv-1 {
					n.nextHop[v*R+d] = int32(e.to)
					break
				}
			}
		}
	}
	// Canonical per-pair paths: for a<b the lexicographically smallest
	// shortest path walked greedily from a, which is the fallback tree's
	// own walk toward b; both directions use it. One pass sizes the arena,
	// the second fills it.
	pairs := R * (R - 1) / 2
	total := 0
	for a := 0; a < R; a++ {
		for _, d := range n.dist[a*R+a+1 : a*R+R] {
			total += int(d) + 1 // a disconnected pair (-1) adds nothing
		}
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("netsim: %d routers need %d path entries, more than an int32 offset holds", R, total))
	}
	n.pathArena = make([]int32, 0, total)
	n.pathOff = make([]int32, pairs+1)
	k := 0
	for a := 0; a < R; a++ {
		for b := a + 1; b < R; b++ {
			if n.dist[a*R+b] >= 0 {
				cur := int32(a)
				n.pathArena = append(n.pathArena, cur)
				for cur != int32(b) {
					cur = n.nextHop[int(cur)*R+b]
					n.pathArena = append(n.pathArena, cur)
				}
			}
			k++
			n.pathOff[k] = int32(len(n.pathArena))
		}
	}
	n.built = true
}

// pairPath returns the canonical path between routers lo < hi, oriented
// lo->hi, as a window of the arena (empty if disconnected).
//
//repolint:hotpath
func (n *Network) pairPath(lo, hi int) []int32 {
	R := len(n.routers)
	k := lo*(2*R-lo-1)/2 + hi - lo - 1
	return n.pathArena[n.pathOff[k]:n.pathOff[k+1]]
}

// nextToward picks the next hop at router cur for a packet whose source
// homes at srcHome (may be nil) and whose destination homes at dstHome:
// the canonical pair path when cur is on it, else the fallback tree.
//
// The canonical path between lo < hi is walked greedily from lo with the
// fallback tree's own rule (the lowest-ID neighbour one hop closer to hi),
// so toward hi both give the same hop and only traffic toward lo reads
// the stored path.
//
//repolint:hotpath
func (n *Network) nextToward(cur *Router, srcHome, dstHome *Router) *Router {
	if srcHome != nil && dstHome.ID < srcHome.ID {
		path := n.pairPath(dstHome.ID, srcHome.ID)
		for i := 1; i < len(path); i++ {
			if path[i] == int32(cur.ID) {
				return n.routers[path[i-1]]
			}
		}
	}
	nh := n.nextHop[cur.ID*len(n.routers)+dstHome.ID]
	if nh < 0 {
		return nil
	}
	return n.routers[nh]
}

// PathRouters returns the canonical router path between two routers,
// inclusive of both endpoints, or nil if disconnected. From the higher ID
// to the lower it reads the stored path backwards.
func (n *Network) PathRouters(a, b *Router) []*Router {
	if !n.built {
		panic("netsim: Build not called")
	}
	if a == b {
		return nil
	}
	lo, hi := a.ID, b.ID
	if lo > hi {
		lo, hi = hi, lo
	}
	ids := n.pairPath(lo, hi)
	if len(ids) == 0 {
		return nil
	}
	path := make([]*Router, len(ids))
	for i, v := range ids {
		path[i] = n.routers[v]
	}
	if a.ID > b.ID {
		slices.Reverse(path)
	}
	return path
}

// linkLatency returns the latency of the direct link a->b. Forwarding only
// ever crosses links (policies must name an adjacent router), so a
// missing one is a wiring bug.
func (n *Network) linkLatency(a, b int) time.Duration {
	for _, e := range n.adj[a] {
		if e.to == b {
			return e.latency
		}
	}
	panic(fmt.Sprintf("netsim: no link %s -> %s", n.routers[a].Name, n.routers[b].Name))
}

// Linked reports whether routers a and b share a direct link.
func (n *Network) Linked(a, b *Router) bool {
	for _, e := range n.adj[a.ID] {
		if e.to == b.ID {
			return true
		}
	}
	return false
}

// SendFromHost injects a packet originating at host h.
//
//repolint:hotpath
func (n *Network) SendFromHost(h *Host, pkt *netpkt.Packet) {
	if !n.built {
		panic("netsim: Build not called")
	}
	h.capture(DirOut, pkt)
	n.eng.ScheduleCall(h.accessLatency, n.arriveFn, h.router, pkt)
}

// InjectAt routes a packet into the network as if generated at router r
// (used by middleboxes for forged responses). The packet is not inspected
// by r's own taps or inline elements and r does not decrement its TTL.
//
//repolint:hotpath
func (n *Network) InjectAt(r *Router, pkt *netpkt.Packet) {
	if !n.built {
		panic("netsim: Build not called")
	}
	n.forwardFrom(r, pkt)
}

// arriveAtRouter is the per-hop pipeline: taps, inline elements, TTL
// decrement (with ICMP Time Exceeded), then forwarding or local delivery.
// Inline inspection happens before TTL handling: an interceptive box grabs
// a matching packet even when its TTL would expire at that hop, which is
// why the paper's iterative tracer sees censorship notifications instead of
// ICMP once the probe TTL reaches the middlebox hop.
//
//repolint:hotpath
func (n *Network) arriveAtRouter(r *Router, pkt *netpkt.Packet) {
	n.cForwarded.Inc()
	for _, t := range r.taps {
		t.Observe(pkt, r)
	}
	for _, i := range r.inline {
		if i.Process(pkt, r) {
			return
		}
	}
	if pkt.IP.TTL <= 1 {
		pkt.IP.TTL = 0
		if !r.Anonymized {
			n.forwardFrom(r, n.timeExceeded(r, pkt))
		}
		return
	}
	pkt.IP.TTL--
	n.forwardFrom(r, pkt)
}

// timeExceeded builds the router's ICMP Time Exceeded for an expired
// packet, quoting its wire image through the pooled scratch path. TCP
// quotes never serialize the payload (AppendQuote); other transports
// need the full image, so the buffer is sized for it up front.
//
//repolint:hotpath
func (n *Network) timeExceeded(r *Router, expired *netpkt.Packet) *netpkt.Packet {
	need := 64
	if expired.TCP == nil {
		need = expired.WireLen()
	}
	buf := n.pool.Get(need)
	wire, err := expired.AppendQuote(buf)
	if err != nil {
		wire = buf[:0]
	}
	te := netpkt.NewTimeExceededFromWire(r.Addr, expired.IP.Src, wire)
	n.pool.Put(wire)
	return te
}

// forwardFrom moves a packet one step from router r: local delivery if the
// destination host hangs off r, otherwise on to the next hop.
//
//repolint:hotpath
func (n *Network) forwardFrom(r *Router, pkt *netpkt.Packet) {
	dst := pkt.IP.Dst
	dh := n.hostAt(dst)
	if dh != nil && dh.router == r {
		n.cDelivered.Inc()
		n.eng.ScheduleCall(dh.accessLatency, n.deliverFn, dh, pkt)
		return
	}
	if r.policy != nil {
		if next, ok := r.policy(dst); ok {
			n.eng.ScheduleCall(n.linkLatency(r.ID, next.ID), n.arriveFn, next, pkt)
			return
		}
	}
	var home *Router
	if dh != nil {
		home = dh.router
	} else {
		home = n.prefixHome(dst)
	}
	if home == nil {
		n.Drops++
		n.cDropped.Inc()
		return
	}
	if home == r {
		// Dead address inside a claimed prefix: silently dropped, like a
		// non-responding IP in a scanned ISP prefix.
		n.Drops++
		n.cDropped.Inc()
		return
	}
	next := n.nextToward(r, n.homeRouter(pkt.IP.Src), home)
	if next == nil {
		n.Drops++
		n.cDropped.Inc()
		return
	}
	n.eng.ScheduleCall(n.linkLatency(r.ID, next.ID), n.arriveFn, next, pkt)
}

// PathBetweenHosts returns the router path a packet from host a to host b
// actually takes, honouring per-router policy routing. Nil if unroutable.
func (n *Network) PathBetweenHosts(a, b *Host) []*Router {
	return n.pathFrom(a.router, b.addr)
}

// PathHostToAddr returns the router path a packet from host a to an
// arbitrary destination address takes (the address need not have a live
// host — dead IPs inside claimed prefixes route to their home router).
func (n *Network) PathHostToAddr(a *Host, dst netip.Addr) []*Router {
	return n.pathFrom(a.router, dst)
}

func (n *Network) pathFrom(start *Router, dstAddr netip.Addr) []*Router {
	if !n.built {
		panic("netsim: Build not called")
	}
	home := n.homeRouter(dstAddr)
	if home == nil {
		return nil
	}
	cur := start
	path := []*Router{cur}
	for cur != home {
		var next *Router
		if cur.policy != nil {
			if nh, ok := cur.policy(dstAddr); ok {
				next = nh
			}
		}
		if next == nil {
			next = n.nextToward(cur, start, home)
			if next == nil {
				return nil
			}
		}
		cur = next
		path = append(path, cur)
		if len(path) > len(n.routers) {
			panic("netsim: policy routing loop")
		}
	}
	return path
}

// HopsBetween returns the paper's hop count n between two hosts: the number
// of routers on the path plus one (the destination host). A traceroute
// probe with TTL n-1 dies at the last router; TTL n reaches the host.
func (n *Network) HopsBetween(a, b *Host) int {
	p := n.PathBetweenHosts(a, b)
	if p == nil {
		return 0
	}
	return len(p) + 1
}

func (n *Network) String() string {
	return fmt.Sprintf("netsim.Network{routers=%d hosts=%d prefixes=%d}",
		len(n.routers), len(n.hosts), len(n.prefixes))
}
