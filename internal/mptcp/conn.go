package mptcp

import (
	"fmt"
	"sort"

	"mptcplab/internal/cc"
	"mptcplab/internal/fifo"
	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
)

// initialDataSeq is where the connection-level sequence space starts.
// (Real MPTCP derives an initial data sequence number from the key
// hash; a fixed origin changes nothing observable and keeps traces
// easy to read.)
const initialDataSeq uint64 = 1

// Config selects the MPTCP behaviours the paper varies.
type Config struct {
	// TCP configures every subflow. Its RcvBuf also sizes the shared
	// connection-level receive buffer (8 MB in the paper).
	TCP        tcp.Config
	Controller cc.Controller // shared across subflows (coupled/olia/reno)
	// Scheduler names the packet-scheduling plugin: "minrtt" (default),
	// "roundrobin", "weighted[:w0;w1;...]", "redundant", "backup",
	// "blest" (HoL-blocking-aware), or "adaptive" (delivery-rate
	// weighted); legacy aliases "lowest-rtt"/"round-robin" still
	// resolve.
	Scheduler string

	// SimultaneousSYN enables the paper's §4.1.2 patch: all subflow
	// SYNs leave together instead of the stock behaviour of joining
	// secondary paths only after the first subflow establishes. The
	// join SYNs identify the connection by the client's token
	// (pre-authorized servers, as the paper assumes).
	SimultaneousSYN bool
}

// DefaultConfig mirrors the paper's measurement configuration:
// coupled congestion control, lowest-RTT scheduler, delayed second
// SYN, no penalization, 8 MB shared receive buffer.
func DefaultConfig() Config { return ConfigOver(tcp.DefaultConfig()) }

// ConfigOver is DefaultConfig with the subflows running a caller-tuned
// TCP config, whose receive buffer (TCP.RcvBuf) also sizes the shared
// connection-level one.
func ConfigOver(t tcp.Config) Config {
	return Config{
		TCP:        t,
		Controller: cc.Coupled{},
		Scheduler:  "minrtt",
	}
}

// mapping binds [off, off+length) of a subflow's send stream to
// [dataSeq, dataSeq+length) of the connection's data-sequence space.
type mapping struct {
	dataSeq    uint64
	off        int64
	length     int64
	reinjected bool // already copied to another subflow
}

// dataEnd is the data sequence just past the mapping.
func (m *mapping) dataEnd() uint64 { return m.dataSeq + uint64(m.length) }

// Subflow is one TCP path of an MPTCP connection.
type Subflow struct {
	ID     int
	AddrID uint8
	Label  string // e.g. "wifi", "lte" — set from dial options
	// Backup marks a subflow the BackupMode scheduler holds in
	// reserve until regular paths fail.
	Backup bool
	EP     *tcp.Endpoint

	conn     *Conn
	mappings fifo.Queue[mapping] // sorted by off, disjoint
	// dataUnordered is set while some mapping's data range ends below
	// its predecessor's, so the mappings a data ACK covers need not be
	// a prefix of the queue.
	dataUnordered bool
	// Signaling waiting for a ride: each departing segment takes at
	// most one queued option per kind, oldest first (buildOptions).
	pendingAdd    []seg.AddAddrOption
	pendingRemove []seg.RemoveAddrOption
	pendingClose  bool // MP_FASTCLOSE
	joinNonce     uint32
	// alignHold marks a subflow whose free space stops short of the
	// next MSS boundary; pump sets it to steer the scheduler toward
	// other subflows for the rest of the current pass.
	alignHold bool

	// Delivery-rate telemetry: ackedBytes counts cumulatively ACKed
	// payload bytes on this subflow; dlv and placed are the windowed
	// estimators (delivered and scheduler-placed bytes respectively)
	// the adaptive policy reads. Fed for every scheduler so exports
	// can carry per-path delivery telemetry regardless of policy.
	ackedBytes int64
	dlv        RateEstimator
	placed     RateEstimator

	hooks subflowHooks
}

// subflowHooks are the endpoint callbacks attach installs. They are
// made once per Subflow object and reach the connection through
// sf.conn, so a recycled subflow installs the ones it already has.
type subflowHooks struct {
	buildOptions  func(*seg.Segment, tcp.SegKind)
	segmentLimit  func(off int64, n int) int
	window        func() int64
	onSegment     func(*seg.Segment)
	onEstablished func()
	onSendReady   func()
	onAcked       func(int64)
	onTimeout     func(int)
}

// bindHooks makes sf's endpoint callbacks.
func (sf *Subflow) bindHooks() {
	sf.hooks = subflowHooks{
		buildOptions:  func(s *seg.Segment, kind tcp.SegKind) { sf.conn.buildOptions(sf, s, kind) },
		segmentLimit:  func(off int64, n int) int { return sf.conn.segmentLimit(sf, off, n) },
		window:        func() int64 { return sf.conn.sharedWindow() },
		onSegment:     func(s *seg.Segment) { sf.conn.onSegment(sf, s) },
		onEstablished: func() { sf.conn.onSubflowEstablished(sf) },
		onSendReady:   func() { sf.conn.pump() },
		onAcked:       func(n int64) { sf.conn.noteDelivered(sf, n); sf.conn.pump() },
		onTimeout:     func(consecutive int) { sf.conn.onSubflowTimeout(sf, consecutive) },
	}
}

// Subflows are recycled across a network's Reset, a server's apart
// from a client's, as tcp keeps accepted endpoints apart from dialed
// ones: a server's grow mapping queues, a client's do not.
var (
	clientSubflows = netem.NewKind((*Subflow).scrub)
	serverSubflows = netem.NewKind((*Subflow).scrub)
)

// spare is sf reduced to the storage it owns — its mapping queue and
// signaling queues, emptied, and its hooks — with every other field
// zero.
func (sf *Subflow) spare() Subflow {
	sf.mappings.Reset()
	return Subflow{
		mappings:      sf.mappings,
		pendingAdd:    sf.pendingAdd[:0],
		pendingRemove: sf.pendingRemove[:0],
		hooks:         sf.hooks,
	}
}

// scrub readies a finished run's subflow for the free list.
func (sf *Subflow) scrub() { *sf = sf.spare() }

// AckedBytes reports the payload bytes the peer has cumulatively
// ACKed on this subflow — the per-path delivered-volume telemetry
// (duplicate copies and retransmissions count once, like the ACK
// stream itself).
func (sf *Subflow) AckedBytes() int64 { return sf.ackedBytes }

// DeliveryRate reports the subflow's windowed delivery rate in bytes
// per second as of the connection's current virtual time. Zero for a
// path that delivered nothing within the window.
func (sf *Subflow) DeliveryRate() float64 {
	return sf.dlv.Rate(sf.conn.sim.Now())
}

// usable reports whether the scheduler may assign data to this subflow.
func (sf *Subflow) usable() bool {
	return !sf.alignHold && sf.EP.Established() && sf.EP.SendSpace() > 0
}

// addMapping appends a mapping at the subflow's current write offset.
func (sf *Subflow) addMapping(m mapping) {
	// pruneMappings pops from the front as long as the mappings' data
	// ends only rise along the queue; a reinjected or duplicate copy of
	// older data breaks that until it has been pruned.
	if ms := sf.mappings.Items(); len(ms) > 0 && m.dataEnd() < ms[len(ms)-1].dataEnd() {
		sf.dataUnordered = true
	}
	sf.mappings.Push(m)
}

// searchMappings returns the index of the first mapping ending above
// stream offset off: the one covering off if any does, else the next
// one after it. Mappings are sorted by offset and disjoint.
func (sf *Subflow) searchMappings(off int64) int {
	ms := sf.mappings.Items()
	return sort.Search(len(ms), func(i int) bool { return ms[i].off+ms[i].length > off })
}

// mappingFor finds the mapping covering stream offset off, or nil.
func (sf *Subflow) mappingFor(off int64) *mapping {
	ms := sf.mappings.Items()
	if i := sf.searchMappings(off); i < len(ms) && ms[i].off <= off {
		return &ms[i]
	}
	return nil
}

// pruneMappings discards mappings fully below the data-level ACK.
// Which ACK removes a mapping is observable — a later retransmission
// of its bytes goes out mapless — so the out-of-order case filters the
// whole queue rather than wait for the front to clear.
func (sf *Subflow) pruneMappings(dataAck uint64) {
	ms := sf.mappings.Items()
	if !sf.dataUnordered {
		k := 0
		for k < len(ms) && ms[k].dataEnd() <= dataAck {
			k++
		}
		sf.mappings.Drop(k)
		return
	}
	keep := ms[:0]
	sf.dataUnordered = false
	for _, m := range ms {
		if m.dataEnd() <= dataAck {
			continue
		}
		if len(keep) > 0 && m.dataEnd() < keep[len(keep)-1].dataEnd() {
			sf.dataUnordered = true
		}
		keep = append(keep, m)
	}
	sf.mappings.Truncate(len(keep))
}

// Conn is one MPTCP connection (either side).
type Conn struct {
	Name string

	cfg   Config
	sched Scheduler
	net   *netem.Network
	host  *netem.Host
	sim   *sim.Simulator
	rng   *sim.RNG

	isServer bool
	localKey uint64
	peerKey  uint64

	subflows []*Subflow
	flows    []cc.Flow

	// Client-side join state.
	localAddrs     []seg.Addr
	labels         []string
	backupFlags    []bool
	knownRemotes   []seg.Addr
	joinAdvertised bool

	server *Server // server-side registry backlink

	// Send state.
	sndNxtData    uint64 // next unassigned data sequence
	sndEndData    uint64 // end of application-written data
	dataFinQueued bool
	dataAck       uint64 // peer's cumulative data-level ACK
	peerDataEdge  uint64 // highest data-level right edge (DataAck + shared window) seen; 0 = none yet

	// Receive state.
	reorder    *ReorderBuffer
	peerFinSeq uint64 // data sequence just past the peer's last byte; 0 = unknown

	established bool
	closed      bool

	// StartedAt is when Dial issued the first SYN (download time in
	// the paper runs from here, §3.3).
	StartedAt sim.Time

	// Reinjections counts mappings copied off presumed-dead subflows.
	Reinjections uint64
	// DupTxBytes counts payload bytes a redundant scheduler placed as
	// duplicate copies on extra subflows — sender-side accounting that
	// lets goodput metrics separate useful bytes from redundancy.
	DupTxBytes int64

	// Placement telemetry for the scheduler conformance harness:
	// fresh-chunk placements per subflow index, and how many
	// consecutive placements landed on a different subflow than the
	// one before (the alternation a round-robin policy promises).
	// lastPlace holds index+1 so the zero value means "none yet".
	placeCounts []int
	placeSwitch int
	lastPlace   int

	// Callbacks.
	OnEstablished func()
	OnSubflowUp   func(sf *Subflow)
	OnData        func(n int64)
	OnOFOSample   func(d sim.Time, subflowID int)
	OnRemoteClose func()
	OnDataAcked   func(dataAck uint64)
}

// DialOpts configures a client-side MPTCP connection.
type DialOpts struct {
	// LocalAddrs are the client's interface addresses; index 0 is the
	// default path (WiFi in the paper: "MPTCP initiates the connection
	// over the WiFi network").
	LocalAddrs []seg.Addr
	// Labels name each local address ("wifi", "lte", ...) for metrics.
	Labels []string
	// ServerAddr is the server's known address.
	ServerAddr seg.Addr
	// JoinAdvertised makes the client open subflows from every local
	// interface to addresses the server advertises via ADD_ADDR —
	// the 4-path scenarios of Figure 1.
	JoinAdvertised bool
	// Backup marks local addresses (parallel to LocalAddrs) whose
	// subflows the "backup" scheduler keeps in reserve.
	Backup []bool
	// Config selects protocol behaviour; zero value means defaults.
	Config Config
}

// Dial opens an MPTCP connection. The first subflow's SYN (carrying
// MP_CAPABLE) leaves immediately; additional paths join per the
// configured SYN mode.
func Dial(network *netem.Network, host *netem.Host, opts DialOpts, rng *sim.RNG) *Conn {
	cfg := opts.Config
	if cfg.Controller == nil {
		cfg = DefaultConfig()
	}
	c := newConn(clientConns, network, cfg, rng, "mptcp")
	c.host = host
	c.localAddrs = opts.LocalAddrs
	c.labels = opts.Labels
	c.knownRemotes = append(c.knownRemotes, opts.ServerAddr)
	c.joinAdvertised = opts.JoinAdvertised
	c.backupFlags = opts.Backup
	first := c.addSubflow(opts.LocalAddrs[0], opts.ServerAddr, c.label(0))
	first.Backup = c.backupFlag(0)
	first.EP.Connect()
	if cfg.SimultaneousSYN {
		for i := 1; i < len(opts.LocalAddrs); i++ {
			sf := c.addSubflow(opts.LocalAddrs[i], opts.ServerAddr, c.label(i))
			sf.Backup = c.backupFlag(i)
			sf.EP.Connect()
		}
	}
	return c
}

func (c *Conn) label(i int) string {
	if i < len(c.labels) {
		return c.labels[i]
	}
	return fmt.Sprintf("path%d", i)
}

func (c *Conn) backupFlag(i int) bool {
	return i < len(c.backupFlags) && c.backupFlags[i]
}

// Conns are recycled across a network's Reset, a server's apart from a
// client's: a client's reorder buffer grows, a server's does not.
var (
	clientConns = netem.NewKind((*Conn).scrub)
	serverConns = netem.NewKind((*Conn).scrub)
)

// newConn is the one initializer of a Conn, for Dial and the server's
// accept alike, new or recycled: it starts from spare and assigns the
// fields both sides share. The connection's stream is rng's child named
// child, drawn before its key.
func newConn(k *netem.Kind[Conn], network *netem.Network, cfg Config, rng *sim.RNG, child string) *Conn {
	c := k.Get(network)
	*c = c.spare()
	sched, err := ParseScheduler(cfg.Scheduler)
	if err != nil {
		panic(err) // a caller skipped validation
	}
	c.cfg = cfg
	c.sched = sched
	c.net = network
	c.sim = network.Sim()
	c.rng = rng.Child(child)
	c.localKey = uint64(rng.Int63()) | 1
	c.sndNxtData, c.sndEndData = initialDataSeq, initialDataSeq
	if c.reorder == nil {
		c.reorder = NewReorderBuffer(initialDataSeq)
		c.reorder.OnDeliver = c.deliverData
		c.reorder.OnSample = c.sampleOFO
	}
	c.StartedAt = c.sim.Now()
	return c
}

// spare is c reduced to the storage it owns — its reorder buffer,
// emptied, with its callbacks bound to c, and the capacity of its
// subflow, flow-set and known-address lists — with every other field
// zero. Placements are not kept: they are handed to results.
func (c *Conn) spare() Conn {
	clear(c.subflows)
	clear(c.flows)
	if c.reorder != nil {
		c.reorder.reset(initialDataSeq)
	}
	return Conn{
		subflows:     c.subflows[:0],
		flows:        c.flows[:0],
		knownRemotes: c.knownRemotes[:0],
		reorder:      c.reorder,
	}
}

// scrub readies a finished run's connection for the free list.
func (c *Conn) scrub() { *c = c.spare() }

// deliverData is the reorder buffer's in-order delivery callback.
func (c *Conn) deliverData(n int64) {
	if c.OnData != nil {
		c.OnData(n)
	}
	c.checkRemoteClose()
	c.maybeWindowUpdate()
}

// sampleOFO is the reorder buffer's out-of-order delay callback.
func (c *Conn) sampleOFO(d sim.Time, subflow int) {
	if c.OnOFOSample != nil {
		c.OnOFOSample(d, subflow)
	}
}

// Tokens identify a connection for MP_JOIN (a 32-bit hash of a key).
func token(key uint64) uint32 {
	h := uint32(2166136261)
	for i := 0; i < 8; i++ {
		h ^= uint32(key >> (8 * i) & 0xFF)
		h *= 16777619
	}
	return h
}

// LocalToken is the token derived from this side's key.
func (c *Conn) LocalToken() uint32 { return token(c.localKey) }

// addSubflow creates and wires a subflow endpoint (not yet connected).
func (c *Conn) addSubflow(local, remote seg.Addr, label string) *Subflow {
	addrID := uint8(len(c.subflows))
	nonce := uint32(c.rng.Int63())
	return c.attach(tcp.NewEndpoint(c.host, c.net, local, remote, c.cfg.TCP, c.rng.Child("sf")), label, addrID, nonce)
}

// attach wires ep into the connection as its next subflow, for an
// active open (addSubflow) and a passive one (Server) alike: it is the
// one initializer of a Subflow, new or recycled, which starts from
// spare. The endpoint runs the connection's (possibly coupled)
// controller over the connection's flow set, and its hooks route
// through the connection.
func (c *Conn) attach(ep *tcp.Endpoint, label string, addrID uint8, nonce uint32) *Subflow {
	k := clientSubflows
	if c.isServer {
		k = serverSubflows
	}
	sf := k.Get(c.net)
	*sf = sf.spare()
	sf.ID = len(c.subflows)
	sf.AddrID = addrID
	sf.Label = label
	sf.joinNonce = nonce
	sf.conn = c
	sf.EP = ep
	sf.dlv.Init(DefaultRateWindow)
	sf.placed.Init(DefaultRateWindow)
	c.subflows = append(c.subflows, sf)
	c.flows = append(c.flows, ep)
	ep.SetController(c.cfg.Controller)
	// The flows slice may have been reallocated: refresh every subflow.
	for i, s := range c.subflows {
		s.EP.SetCoupled(c.flows, i)
	}

	if sf.hooks.onAcked == nil {
		sf.bindHooks()
	}
	h := &sf.hooks
	ep.BuildOptions = h.buildOptions
	ep.SegmentLimit = h.segmentLimit
	ep.WindowOverride = h.window
	ep.OnSegmentArrival = h.onSegment
	ep.OnEstablished = h.onEstablished
	ep.OnSendReady = h.onSendReady
	ep.OnAcked = h.onAcked
	ep.OnTimeout = h.onTimeout
	return sf
}

// noteDelivered feeds one cumulative-ACK advance into the subflow's
// delivery telemetry (counter plus windowed rate estimator).
func (c *Conn) noteDelivered(sf *Subflow, n int64) {
	sf.ackedBytes += n
	sf.dlv.Add(c.sim.Now(), n)
}

// unassignedBytes is the send-stream backlog the scheduler has not yet
// mapped to any subflow — the quantity BLEST's blocking estimate
// compares against the fast path's projected capacity.
func (c *Conn) unassignedBytes() int64 { return int64(c.sndEndData - c.sndNxtData) }

// onSubflowEstablished runs when any subflow completes its handshake.
func (c *Conn) onSubflowEstablished(sf *Subflow) {
	first := !c.established
	c.established = true
	if c.OnSubflowUp != nil {
		c.OnSubflowUp(sf)
	}
	if first {
		if !c.isServer {
			c.afterFirstSubflow()
		} else {
			c.serverAfterFirstSubflow()
		}
		if c.OnEstablished != nil {
			c.OnEstablished()
		}
	}
	c.pump()
	// A subflow joining after the connection already closed must be
	// torn down too.
	c.maybeCloseSubflows()
}

// afterFirstSubflow implements the stock v0.86 client behaviour: only
// after the first subflow establishes does the client advertise its
// other interfaces (ADD_ADDR) and send joining SYNs (§2.2.1) — the
// "delayed SYN" the paper measures against its simultaneous-SYN patch.
func (c *Conn) afterFirstSubflow() {
	if c.cfg.SimultaneousSYN {
		return // all SYNs already left together
	}
	for i := 1; i < len(c.localAddrs); i++ {
		// Advertise the extra interface on the established subflow…
		c.subflows[0].pendingAdd = append(c.subflows[0].pendingAdd,
			seg.AddAddrOption{AddrID: uint8(i), Addr: c.localAddrs[i]})
		// …and join from it.
		sf := c.addSubflow(c.localAddrs[i], c.knownRemotes[0], c.label(i))
		sf.Backup = c.backupFlag(i)
		sf.EP.Connect()
	}
}

// serverAfterFirstSubflow advertises the server's secondary interface
// so a 4-path client can join it (Figure 1's dashed paths).
func (c *Conn) serverAfterFirstSubflow() {
	if c.server == nil {
		return
	}
	for i, a := range c.server.AdvertiseAddrs {
		// One ACK per address: a segment carries one ADD_ADDR.
		c.subflows[0].pendingAdd = append(c.subflows[0].pendingAdd,
			seg.AddAddrOption{AddrID: uint8(0x10 + i), Addr: a})
		c.subflows[0].EP.PushAck()
	}
}

// --- Application interface ---

// Write appends n abstract bytes to the connection's send stream.
func (c *Conn) Write(n int) {
	if n <= 0 || c.dataFinQueued {
		return
	}
	c.sndEndData += uint64(n)
	c.pump()
}

// Close queues a connection-level FIN (DATA_FIN) after all written
// data, then closes subflows once everything is data-acked.
func (c *Conn) Close() {
	if c.dataFinQueued {
		return
	}
	c.dataFinQueued = true
	c.pump()
	if c.sndNxtData == c.sndEndData {
		// Nothing left to map the DATA_FIN onto: signal it on a bare ACK.
		for _, sf := range c.subflows {
			if sf.EP.Established() {
				sf.EP.PushAck()
				break
			}
		}
	}
	c.maybeCloseSubflows()
}

// Established reports whether any subflow has completed its handshake.
func (c *Conn) Established() bool { return c.established }

// Subflows exposes the connection's subflows for metrics collection.
func (c *Conn) Subflows() []*Subflow { return c.subflows }

// Reorder exposes the receive-side reorder buffer (metrics).
func (c *Conn) Reorder() *ReorderBuffer { return c.reorder }

// BytesWritten reports the total bytes the application has written.
func (c *Conn) BytesWritten() int64 { return int64(c.sndEndData - initialDataSeq) }

// --- Scheduler / sender ---

// pump assigns unassigned data to subflows per the scheduler until
// windows are exhausted.
func (c *Conn) pump() {
	for _, sf := range c.subflows {
		sf.alignHold = false
	}
	for c.sndNxtData < c.sndEndData {
		i := c.sched.Pick(c.subflows)
		if i < 0 {
			return
		}
		sf := c.subflows[i]
		space := sf.EP.SendSpace()
		chunk := int64(c.sndEndData - c.sndNxtData)
		if chunk > space {
			chunk = space
		}
		// Data-level flow control: every subflow advertises the same
		// shared window, so bounding each subflow individually would let
		// N subflows overcommit the receiver's buffer N-fold. Clamp the
		// aggregate to the peer's data-level right edge instead.
		// peerDataEdge == 0 means no DSS ACK seen yet (handshake); the
		// subflow window alone governs that first flight.
		dataClamped := false
		if c.peerDataEdge > 0 {
			if dspace := int64(c.peerDataEdge) - int64(c.sndNxtData); chunk > dspace {
				chunk = dspace
				dataClamped = true
			}
		}
		if chunk <= 0 {
			return
		}
		off := sf.EP.WriteOffset()
		// Align the mapping's end to an MSS boundary of the subflow
		// stream. Segments cannot cross mapping boundaries, so unaligned
		// mappings — whose sizes echo whatever SendSpace freed at pick
		// time — would fragment the stream into sub-MSS segments: more
		// packets per byte, more per-packet drops at shared queues, and
		// a persistent throughput handicap against plain TCP. Alignment
		// applies only when the subflow's own congestion window is the
		// binding constraint: a chunk cut short by the stream tail or by
		// the receive window — subflow-level or data-level — must go out
		// as-is (filling the window is what lets a stall be observed and
		// penalized).
		mss := int64(sf.EP.Config().MSS)
		if rem := int64(c.sndEndData - c.sndNxtData); chunk < rem && !dataClamped && !sf.EP.RwndBinding() && mss > 0 {
			aligned := (off+chunk)/mss*mss - off
			if aligned > 0 {
				chunk = aligned
			} else if sf.EP.UnackedBytes() > 0 {
				// Defer the sub-MSS leftover: this subflow's ACK clock
				// is running and will free a full segment's worth soon.
				// Hold it out of scheduling so other subflows still get
				// data this pass; an idle subflow (no ACKs coming) sends
				// the runt instead — progress beats alignment when
				// nothing else would trigger the next pump.
				sf.alignHold = true
				continue
			}
		}
		// Record the mapping before Write: Write transmits segments
		// synchronously and buildOptions must already see it.
		start := c.sndNxtData
		sf.addMapping(mapping{dataSeq: start, off: off, length: chunk})
		c.sndNxtData += uint64(chunk)
		c.notePlacement(i, chunk)
		sf.EP.Write(int(chunk))
		// Redundant schedulers place copies of the same data-sequence
		// range on additional subflows. Copies are marked reinjected so
		// a dead path never re-sprays data that already exists
		// elsewhere; the receiver's reorder buffer discards the losers.
		for _, di := range c.sched.Duplicates(c.subflows, i) {
			d := c.subflows[di]
			if d == sf || !d.EP.Established() {
				continue
			}
			d.addMapping(mapping{dataSeq: start, off: d.EP.WriteOffset(), length: chunk, reinjected: true})
			d.EP.Write(int(chunk))
			c.DupTxBytes += chunk
		}
	}
}

// notePlacement records one fresh-chunk placement for the conformance
// harness's scheduler-behavior metrics and feeds the subflow's
// windowed placed-bytes estimator (the numerator of the adaptive
// policy's deficit score). Duplicate copies and reinjections are not
// placements — only the scheduler's Pick decisions count.
func (c *Conn) notePlacement(i int, n int64) {
	c.subflows[i].placed.Add(c.sim.Now(), n)
	for len(c.placeCounts) <= i {
		c.placeCounts = append(c.placeCounts, 0)
	}
	c.placeCounts[i]++
	if c.lastPlace != 0 && c.lastPlace != i+1 {
		c.placeSwitch++
	}
	c.lastPlace = i + 1
}

// Placements returns the number of fresh chunks the scheduler placed
// on each subflow, indexed like Subflows().
func (c *Conn) Placements() []int { return c.placeCounts }

// PlacementSwitches returns how many placements landed on a different
// subflow than the placement immediately before — the alternation
// measure the conformance harness uses to tell a round-robin policy
// from an RTT-greedy one.
func (c *Conn) PlacementSwitches() int { return c.placeSwitch }

// onSubflowTimeout watches for presumed-dead subflows: after
// DeadAfterTimeouts consecutive unanswered RTOs the subflow's
// outstanding data is reinjected on live paths, so a WiFi outage does
// not strand the bytes mapped to it — the mobility robustness the
// paper argues for in §6. (Linux MPTCP performs the same opportunistic
// reinjection when a subflow dies.)
func (c *Conn) onSubflowTimeout(sf *Subflow, consecutive int) {
	if consecutive < DeadAfterTimeouts {
		return
	}
	c.reinjectFrom(sf)
}

// reinjectFrom copies sf's un-data-acked mappings onto the subflow
// the scheduler nominates. The receiver's reorder buffer discards
// whichever copy loses the race, so correctness is unaffected.
func (c *Conn) reinjectFrom(dead *Subflow) {
	i := c.sched.ReinjectTarget(c.subflows, dead)
	if i < 0 || c.subflows[i] == dead {
		return // nothing alive; retried on the next timeout
	}
	c.reinjectVia(dead, c.subflows[i])
}

// segmentLimit keeps a data segment inside a single DSS mapping. A
// segment starting in an orphaned region (its mapping was pruned after
// the data was delivered via a reinjected copy) must still stop at the
// next live mapping's boundary — otherwise live data would ride in a
// mapless segment the receiver cannot place, stranding a permanent
// hole in the data stream.
func (c *Conn) segmentLimit(sf *Subflow, off int64, n int) int {
	ms, i := sf.mappings.Items(), sf.searchMappings(off)
	if i == len(ms) {
		return n
	}
	// ms[i] holds off, or else is the next live mapping after it: the
	// segment stops at the end of the one or the start of the other.
	edge := ms[i].off
	if edge <= off {
		edge += ms[i].length
	}
	if int64(n) > edge-off {
		return int(edge - off)
	}
	return n
}

// buildOptions decorates outgoing subflow segments with MPTCP options.
func (c *Conn) buildOptions(sf *Subflow, s *seg.Segment, kind tcp.SegKind) {
	switch kind {
	case tcp.KindSYN:
		if c.isServer {
			break
		}
		if sf.ID == 0 {
			s.AddMPCapable(seg.MPCapableOption{Key: c.localKey})
		} else {
			s.AddMPJoin(seg.MPJoinOption{Token: c.joinToken(), Nonce: sf.joinNonce, AddrID: sf.AddrID, Backup: sf.Backup})
		}
	case tcp.KindSYNACK:
		if sf.ID == 0 {
			s.AddMPCapable(seg.MPCapableOption{Key: c.localKey})
		} else {
			s.AddMPJoin(seg.MPJoinOption{Token: c.LocalToken(), Nonce: sf.joinNonce, AddrID: sf.AddrID})
		}
	case tcp.KindData:
		off := sf.EP.StreamOffset(s.Seq)
		dss := seg.DSSOption{HasAck: true, DataAck: c.reorder.RcvNxt()}
		if m := sf.mappingFor(off); m != nil {
			dss.HasMap = true
			dss.DataSeq = m.dataSeq + uint64(off-m.off)
			dss.SubflowSeq = uint32(off + 1)
			dss.Length = uint16(s.PayloadLen)
			if c.dataFinQueued && dss.DataSeq+uint64(s.PayloadLen) == c.sndEndData {
				dss.DataFin = true
			}
		}
		s.AddDSS(dss)
	case tcp.KindAck, tcp.KindFin:
		dss := seg.DSSOption{HasAck: true, DataAck: c.reorder.RcvNxt()}
		if c.dataFinQueued && c.sndNxtData == c.sndEndData {
			// Standalone DATA_FIN: an empty mapping pointing at the end
			// of the stream.
			dss.HasMap = true
			dss.DataSeq = c.sndEndData
			dss.Length = 0
			dss.DataFin = true
		}
		s.AddDSS(dss)
	}
	if len(sf.pendingAdd) > 0 {
		s.AddAddAddr(sf.pendingAdd[0])
		sf.pendingAdd = sf.pendingAdd[1:]
	}
	if len(sf.pendingRemove) > 0 {
		s.AddRemoveAddr(sf.pendingRemove[0])
		sf.pendingRemove = sf.pendingRemove[1:]
	}
	if sf.pendingClose {
		s.AddFastClose(seg.FastCloseOption{Key: c.peerKey})
		sf.pendingClose = false
	}
}

// joinToken identifies the connection a join SYN belongs to. Stock
// MPTCP uses the server's token, which the client learns from the
// MP_CAPABLE exchange; in simultaneous-SYN mode the first RTT hasn't
// happened yet, so the patch identifies the connection by the client's
// own token (the paper's premise: the server is known MPTCP-capable
// and the connection pre-authorized).
func (c *Conn) joinToken() uint32 {
	if c.cfg.SimultaneousSYN || c.peerKey == 0 {
		return c.LocalToken()
	}
	return token(c.peerKey)
}

// --- Receive path ---

// sharedWindow is the connection-level receive window advertised by
// every subflow: one shared buffer, minus out-of-order residue (§3.1).
func (c *Conn) sharedWindow() int64 {
	w := int64(c.cfg.TCP.RcvBuf) - c.reorder.BufferedBytes()
	if w < 0 {
		w = 0
	}
	return w
}

// onSegment processes MPTCP signaling on any arriving segment.
func (c *Conn) onSegment(sf *Subflow, s *seg.Segment) {
	if s.Has(seg.OptMPCapable) && !c.isServer {
		c.peerKey = s.MPCapable.Key
	}
	if s.Has(seg.OptAddAddr) {
		c.onAddAddr(s.AddAddr)
	}
	if s.Has(seg.OptRemoveAddr) {
		c.onRemoveAddr(s.RemoveAddr)
	}
	if s.Has(seg.OptFastClose) {
		c.onFastClose()
		return
	}
	if s.Has(seg.OptDSS) {
		d := s.DSS
		if d.HasAck {
			// The shared receive window is relative to the data-level
			// ACK (RFC 6824 §3.3.1): DataAck plus this segment's window
			// is the right edge of data the peer can buffer. Track the
			// maximum edge ever advertised — like sndUna+rwnd at the
			// subflow level, it never retreats.
			if edge := d.DataAck + uint64(sf.EP.SegmentWindow(s)); edge > c.peerDataEdge {
				c.peerDataEdge = edge
			}
			c.onDataAck(d.DataAck)
		}
		if d.HasMap && s.PayloadLen > 0 {
			start := d.DataSeq
			c.reorder.Insert(c.sim.Now(), start, start+uint64(s.PayloadLen), sf.ID)
			c.maybeWindowUpdate()
		}
		if d.DataFin {
			fin := d.DataSeq + uint64(d.Length)
			if fin > c.peerFinSeq {
				c.peerFinSeq = fin
			}
			c.checkRemoteClose()
		}
	}
}

// onDataAck digests the peer's cumulative data-level acknowledgment.
func (c *Conn) onDataAck(ack uint64) {
	if ack <= c.dataAck {
		return
	}
	c.dataAck = ack
	for _, sf := range c.subflows {
		sf.pruneMappings(ack)
	}
	if c.OnDataAcked != nil {
		c.OnDataAcked(ack)
	}
	c.maybeCloseSubflows()
}

// checkRemoteClose fires OnRemoteClose once the peer's whole stream
// (through its DATA_FIN) has been delivered.
func (c *Conn) checkRemoteClose() {
	if c.closed || c.peerFinSeq == 0 || c.reorder.RcvNxt() < c.peerFinSeq {
		return
	}
	c.closed = true
	if c.OnRemoteClose != nil {
		c.OnRemoteClose()
	}
	c.maybeCloseSubflows()
}

// maybeCloseSubflows tears down subflows once both directions are
// complete: our data is fully data-acked and the peer's stream has
// ended (or we never expect one).
func (c *Conn) maybeCloseSubflows() {
	if !c.dataFinQueued || c.dataAck < c.sndEndData {
		return
	}
	if c.peerFinSeq != 0 && c.reorder.RcvNxt() < c.peerFinSeq {
		return
	}
	for _, sf := range c.subflows {
		sf.EP.Close()
	}
}

// maybeWindowUpdate re-advertises the shared window on all subflows
// after a reorder-buffer drain that had the window nearly closed —
// otherwise a stalled fast subflow would wait for its own RTO.
func (c *Conn) maybeWindowUpdate() {
	free := c.sharedWindow()
	if free < int64(c.cfg.TCP.RcvBuf)/2 {
		return
	}
	if c.reorder.MaxBuffered < int64(c.cfg.TCP.RcvBuf)/2 {
		return // never came close to filling; no one is stalled
	}
	for _, sf := range c.subflows {
		if sf.EP.Established() && sf.EP.State() == tcp.StateEstablished {
			sf.EP.PushAck()
		}
	}
	// Only push again after the next episode of pressure: the high-water
	// mark restarts from what is buffered now, never below it.
	c.reorder.MaxBuffered = c.reorder.Buffered
}

// RemoveLocalAddr withdraws one of this side's addresses: the
// application calls it when an interface disappears (the §6 mobility
// scenario of changing access points). Subflows using the address are
// aborted, their outstanding data is reinjected on surviving paths,
// and the peer is told via REMOVE_ADDR so it tears its ends down too.
func (c *Conn) RemoveLocalAddr(addr seg.Addr) {
	var survivor *Subflow
	for _, sf := range c.subflows {
		if sf.EP.Local != addr && sf.EP.Established() {
			survivor = sf
			break
		}
	}
	for _, sf := range c.subflows {
		if sf.EP.Local != addr {
			continue
		}
		if survivor != nil {
			c.reinjectVia(sf, survivor)
		}
		sf.EP.Abort()
	}
	if survivor != nil {
		survivor.pendingRemove = append(survivor.pendingRemove,
			seg.RemoveAddrOption{AddrID: c.addrID(addr), Addr: addr})
		survivor.EP.PushAck()
	}
	c.pump()
}

// RejoinLocalAddr re-establishes connectivity through an interface
// that previously disappeared: the "walked back into WiFi range" half
// of the §6 handover story (RemoveLocalAddr is the walking-away half).
// The caller must supply a FRESH port on the returning interface —
// reusing the withdrawn 4-tuple races against a stale server-side
// endpoint if the teardown RST was lost during the outage. The address
// slot is matched by IP so the AddrID advertised to the peer stays
// stable across remove/rejoin cycles. No-op (returns nil) if the
// connection is closed, never established, has no live subflow to
// advertise on, or the IP is already served by a live subflow.
func (c *Conn) RejoinLocalAddr(addr seg.Addr) *Subflow {
	if c.isServer || c.closed || !c.established || len(c.knownRemotes) == 0 {
		return nil
	}
	var adv *Subflow
	for _, sf := range c.subflows {
		if !sf.EP.Established() {
			continue
		}
		if sf.EP.Local.IP == addr.IP {
			return nil
		}
		if adv == nil {
			adv = sf
		}
	}
	if adv == nil {
		return nil
	}
	id := -1
	for i, a := range c.localAddrs {
		if a.IP == addr.IP {
			c.localAddrs[i] = addr
			id = i
			break
		}
	}
	if id < 0 {
		id = len(c.localAddrs)
		c.localAddrs = append(c.localAddrs, addr)
	}
	adv.pendingAdd = append(adv.pendingAdd,
		seg.AddAddrOption{AddrID: uint8(id), Addr: addr})
	adv.EP.PushAck()
	sf := c.addSubflow(addr, c.knownRemotes[0], c.label(id))
	sf.Backup = c.backupFlag(id)
	sf.EP.Connect()
	return sf
}

func (c *Conn) addrID(addr seg.Addr) uint8 {
	for i, a := range c.localAddrs {
		if a == addr {
			return uint8(i)
		}
	}
	return 0xFF
}

// onRemoveAddr tears down subflows whose remote end was withdrawn,
// first reinjecting any data still mapped to them onto a survivor.
func (c *Conn) onRemoveAddr(o seg.RemoveAddrOption) {
	var survivor *Subflow
	for _, sf := range c.subflows {
		if sf.EP.Remote != o.Addr && sf.EP.Established() {
			survivor = sf
			break
		}
	}
	for _, sf := range c.subflows {
		if sf.EP.Remote != o.Addr {
			continue
		}
		if survivor != nil {
			c.reinjectVia(sf, survivor)
		}
		sf.EP.Abort()
	}
	c.pump()
}

// Abort closes the whole connection immediately: MP_FASTCLOSE on one
// subflow (RFC 6824 §3.5), RST on the rest.
func (c *Conn) Abort() {
	sent := false
	for _, sf := range c.subflows {
		if !sent && sf.EP.Established() {
			sf.pendingClose = true
			sf.EP.PushAck()
			sf.EP.Abort()
			sent = true
			continue
		}
		sf.EP.Abort()
	}
	c.closed = true // locally initiated: no remote-close callback
}

// onFastClose handles the peer's MP_FASTCLOSE: everything resets now.
func (c *Conn) onFastClose() {
	for _, sf := range c.subflows {
		sf.EP.Abort()
	}
	c.fireClosed()
}

func (c *Conn) fireClosed() {
	if c.closed {
		return
	}
	c.closed = true
	if c.OnRemoteClose != nil {
		c.OnRemoteClose()
	}
}

// reinjectVia copies every un-data-acked mapping of src onto dst.
func (c *Conn) reinjectVia(src, dst *Subflow) {
	ms := src.mappings.Items()
	for i := range ms {
		m := &ms[i]
		if m.reinjected || m.dataEnd() <= c.dataAck {
			continue
		}
		m.reinjected = true
		off := dst.EP.WriteOffset()
		dst.addMapping(mapping{dataSeq: m.dataSeq, off: off, length: m.length})
		dst.EP.Write(int(m.length))
		c.Reinjections++
	}
}

// onAddAddr reacts to a peer address advertisement: in 4-path mode the
// client joins the new server address from every local interface.
func (c *Conn) onAddAddr(o seg.AddAddrOption) {
	if c.isServer || !c.joinAdvertised {
		return
	}
	for _, known := range c.knownRemotes {
		if known == o.Addr {
			return
		}
	}
	c.knownRemotes = append(c.knownRemotes, o.Addr)
	for i, la := range c.localAddrs {
		exists := false
		for _, sf := range c.subflows {
			if sf.EP.Local == la && sf.EP.Remote == o.Addr {
				exists = true
				break
			}
		}
		if !exists {
			sf := c.addSubflow(la, o.Addr, c.label(i))
			sf.Backup = c.backupFlag(i)
			sf.EP.Connect()
		}
	}
}

// String renders a debug summary.
func (c *Conn) String() string {
	role := "client"
	if c.isServer {
		role = "server"
	}
	return fmt.Sprintf("mptcp-%s(%d subflows, %d/%d data assigned, dataAck=%d)",
		role, len(c.subflows), c.sndNxtData-initialDataSeq, c.sndEndData-initialDataSeq,
		c.dataAck)
}
