package transport

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/wire"
)

// TCPConfig parameterizes a TCP transport for one site.
type TCPConfig struct {
	// Self is the site this process hosts.
	Self protocol.SiteID
	// Peers maps every cluster site (including Self) to its listen
	// address.
	Peers map[protocol.SiteID]string
	// Listen overrides the address to listen on (default Peers[Self]);
	// useful to bind "0.0.0.0:port" while peers dial a specific host.
	Listen string
	// DialTimeout bounds one connection attempt (default 1s).
	DialTimeout time.Duration
	// WriteTimeout bounds one frame write; a peer that stops reading
	// drops the connection rather than wedging the writer (default 2s).
	WriteTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential redial backoff
	// (defaults 50ms and 2s); each step gets ±50% jitter.
	BackoffMin, BackoffMax time.Duration
	// QueueDepth is the per-peer outgoing buffer; a full queue drops
	// (lost-datagram semantics, default 256).
	QueueDepth int
	// MaxFrame caps accepted payload size (default wire.MaxFrame).
	MaxFrame int
	// BatchMax caps how many queued messages one outgoing frame may
	// coalesce (default 32; 1 disables coalescing — every message gets
	// a frame of its own).
	BatchMax int
	// BatchBytes flushes a batch once its encoded message payload
	// reaches this many bytes (default 64 KiB).
	BatchBytes int
	// Seed drives backoff jitter (runs with equal seeds draw the same
	// jitter sequence).
	Seed int64
	// Metrics, when set, receives every counter the transport keeps:
	// network.sent/delivered/dropped (same series as the simulated
	// fabric), transport.reconnects, transport.conn.errors and
	// transport.queue.dropped labelled by peer, transport.batch.* and
	// transport.decode.errors.
	Metrics *metrics.Registry
	// Logf, when set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (c *TCPConfig) fillDefaults() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 2 * time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.MaxFrame
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.BatchMax > wire.MaxBatch {
		c.BatchMax = wire.MaxBatch
	}
	if c.BatchBytes <= 0 {
		c.BatchBytes = 64 << 10
	}
	if c.Listen == "" {
		c.Listen = c.Peers[c.Self]
	}
}

// peer is one outgoing link.  conn and backoff state are owned by the
// writer goroutine; out and the live mirror are the only
// cross-goroutine surfaces.
type peer struct {
	id   protocol.SiteID
	addr string
	out  chan protocol.Message
	// crit is the priority queue for decision and outcome-propagation
	// traffic (complete/abort/outcome-req/info/ack).  Those messages end
	// uncertainty windows, so bulk traffic must never evict them; each
	// class evicts only its own oldest when full, and the writer drains
	// crit first.
	crit chan protocol.Message

	conn     net.Conn
	buf      []byte
	batch    wire.BatchBuilder
	rng      *rand.Rand
	backoff  time.Duration
	nextDial time.Time
	everUp   bool

	// Cached per-peer metric handles (nil without a registry).
	reconnects, connErrors, queueDropped *metrics.Counter

	// live mirrors conn for ResetPeer, which runs outside the writer
	// goroutine and may only Close (never use) the connection.
	liveMu sync.Mutex
	live   net.Conn
}

func (p *peer) setLive(c net.Conn) {
	p.liveMu.Lock()
	p.live = c
	p.liveMu.Unlock()
}

// msgKindSlots bounds the per-kind counter arrays in tcpSeries; kinds
// outside the range fall back to a registry lookup.
const msgKindSlots = 16

// batchFlushReasons enumerates the reasons fillBatch returns, the label
// values of transport.batch.flushes.
var batchFlushReasons = []string{"count", "size", "drain"}

// tcpSeries caches the transport's hot-path metric handles.  Per-message
// accounting runs on every send and delivery, so it must be a pointer
// increment — not a registry lookup (label normalization + map probe)
// per event.  All fields are nil/empty when no registry is attached.
type tcpSeries struct {
	sent      [msgKindSlots]*metrics.Counter // network.sent{type}
	delivered [msgKindSlots]*metrics.Counter // network.delivered{type}
	dropped   map[string]*metrics.Counter    // network.dropped{reason}
	flushes   map[string]*metrics.Counter    // transport.batch.flushes{reason}
	batchSize *metrics.Histogram             // transport.batch.size
	decodeErr *metrics.Counter               // transport.decode.errors
}

func newTCPSeries(reg *metrics.Registry) tcpSeries {
	var s tcpSeries
	if reg == nil {
		return s
	}
	for k := protocol.MsgReadReq; int(k) < msgKindSlots; k++ {
		s.sent[k] = reg.Counter("network.sent", metrics.L("type", k.String()))
		s.delivered[k] = reg.Counter("network.delivered", metrics.L("type", k.String()))
	}
	s.dropped = map[string]*metrics.Counter{}
	for _, r := range []string{"down", "backpressure", "unknown", "queue", "conn"} {
		s.dropped[r] = reg.Counter("network.dropped", metrics.L("reason", r))
	}
	s.flushes = map[string]*metrics.Counter{}
	for _, r := range batchFlushReasons {
		s.flushes[r] = reg.Counter("transport.batch.flushes", metrics.L("reason", r))
	}
	s.batchSize = reg.Histogram("transport.batch.size")
	s.decodeErr = reg.Counter("transport.decode.errors")
	return s
}

// TCP is the real-socket Transport: one listener for inbound frames, one
// writer goroutine (with its own connection and reconnect/backoff state)
// per peer for outbound.
type TCP struct {
	cfg    TCPConfig
	ln     net.Listener
	peers  map[protocol.SiteID]*peer // fixed at construction
	lo     chan protocol.Message     // self-addressed loopback
	series tcpSeries

	mu       sync.Mutex
	handlers map[protocol.SiteID]Handler
	bhandler map[protocol.SiteID]BatchHandler
	down     map[protocol.SiteID]bool
	conns    map[net.Conn]bool // accepted connections, for Close
	closed   bool
	tap      func(to protocol.SiteID, frame []byte) []byte

	wg   sync.WaitGroup
	quit chan struct{}
}

// NewTCP opens the listener and starts the per-peer writers.  The
// returned transport delivers nothing until Register installs a handler.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	cfg.fillDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("transport: TCPConfig.Self is required")
	}
	if cfg.Listen == "" {
		return nil, fmt.Errorf("transport: no listen address for site %s", cfg.Self)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	return newTCPWithListener(cfg, ln), nil
}

// NewTCPWithListener builds a transport over an already-bound listener
// (tests bind ":0" first and exchange the resulting addresses).
func NewTCPWithListener(cfg TCPConfig, ln net.Listener) *TCP {
	cfg.fillDefaults()
	return newTCPWithListener(cfg, ln)
}

func newTCPWithListener(cfg TCPConfig, ln net.Listener) *TCP {
	t := &TCP{
		cfg:      cfg,
		ln:       ln,
		peers:    map[protocol.SiteID]*peer{},
		lo:       make(chan protocol.Message, cfg.QueueDepth),
		handlers: map[protocol.SiteID]Handler{},
		bhandler: map[protocol.SiteID]BatchHandler{},
		down:     map[protocol.SiteID]bool{},
		conns:    map[net.Conn]bool{},
		quit:     make(chan struct{}),
	}
	t.series = newTCPSeries(cfg.Metrics)
	for id, addr := range cfg.Peers {
		if id == cfg.Self {
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(id))
		p := &peer{
			id: id, addr: addr,
			out:     make(chan protocol.Message, cfg.QueueDepth),
			crit:    make(chan protocol.Message, cfg.QueueDepth),
			rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(h.Sum64()))),
			backoff: cfg.BackoffMin,
		}
		if reg := cfg.Metrics; reg != nil {
			p.reconnects = reg.Counter("transport.reconnects", metrics.L("peer", string(id)))
			p.connErrors = reg.Counter("transport.conn.errors", metrics.L("peer", string(id)))
			p.queueDropped = reg.Counter("transport.queue.dropped", metrics.L("peer", string(id)))
		}
		t.peers[id] = p
		t.wg.Add(1)
		go t.writer(p)
	}
	t.wg.Add(2)
	go t.acceptLoop()
	go t.loopback()
	return t
}

// Addr returns the listener's address (useful with ":0" binds).
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// Register installs the delivery handler for a site (normally Self).
func (t *TCP) Register(site protocol.SiteID, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[site] = h
}

// RegisterBatch installs a whole-frame delivery handler for a site: a
// decoded batch frame whose messages share that destination is handed
// over in one call instead of one per message, so a receiver with its
// own serialization point (the cluster's site loop) pays one event per
// frame.  Register must still be called — the plain handler remains the
// path for loopback and for frames interleaving destinations.
func (t *TCP) RegisterBatch(site protocol.SiteID, h BatchHandler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bhandler[site] = h
}

// SetDown marks a site down from this process's point of view: messages
// to or from it are dropped locally.  Real remote failure needs no
// marking — the dead process simply stops answering.
func (t *TCP) SetDown(site protocol.SiteID, down bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[site] = down
}

// IsDown reports a site's locally-marked down state.
func (t *TCP) IsDown(site protocol.SiteID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.down[site]
}

// SetFrameTap installs a hook that observes (and may mutate or replace)
// every encoded frame just before it is written to a peer socket.  A
// fault injector uses it to corrupt bytes on the wire; nil removes the
// tap.  The tap runs on writer goroutines and must be safe for
// concurrent use.
func (t *TCP) SetFrameTap(tap func(to protocol.SiteID, frame []byte) []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tap = tap
}

// ResetPeer severs the live outbound connection to one peer, as a
// network fault would; the writer redials (with backoff) on the next
// frame.  Returns false when the peer is unknown or has no live
// connection.
func (t *TCP) ResetPeer(site protocol.SiteID) bool {
	p, ok := t.peers[site]
	if !ok {
		return false
	}
	p.liveMu.Lock()
	c := p.live
	p.liveMu.Unlock()
	if c == nil {
		return false
	}
	c.Close()
	t.logf("reset connection to %s", site)
	return true
}

// Send queues msg toward msg.To.  Unknown destinations, down endpoints,
// full queues and a closed transport all drop (and count) the message —
// exactly a lost datagram, which the protocol's retry machinery covers.
func (t *TCP) Send(msg protocol.Message) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.countKind(t.series.sent[:], "network.sent", msg.Kind)
	if t.down[msg.From] || t.down[msg.To] {
		t.countDrop("down")
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()

	if msg.To == t.cfg.Self {
		select {
		case t.lo <- msg:
		default:
			t.countDrop("backpressure")
		}
		return
	}
	p, ok := t.peers[msg.To]
	if !ok {
		t.countDrop("unknown")
		return
	}
	q := p.out
	if critical(msg.Kind) {
		q = p.crit
	}
	select {
	case q <- msg:
	default:
		// Full queue: evict the OLDEST frame of the SAME class to make
		// room.  While a peer is partitioned each queue holds the most
		// recent window of its own traffic instead of a stale prefix
		// (the retry-driven protocol recovers newest-first), and bulk
		// floods can never push out a decision or outcome message.
		select {
		case <-q:
			t.queueDrop(p)
		default:
		}
		select {
		case q <- msg:
		default:
			t.countDrop("backpressure")
		}
	}
}

// critical classifies the messages that end uncertainty windows —
// coordinator decisions, §3.3 outcome propagation, and the Paxos
// decision plane (every consensus message shortens an in-doubt window).
// They ride the peer's priority queue: sent first, never evicted by
// bulk traffic.
func critical(k protocol.MsgKind) bool {
	switch k {
	case protocol.MsgComplete, protocol.MsgAbort,
		protocol.MsgOutcomeReq, protocol.MsgOutcomeInfo, protocol.MsgOutcomeAck:
		return true
	}
	return k.Paxos()
}

// Close shuts down: the listener stops, writers drain out, connections
// close, and every transport goroutine exits before Close returns.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.quit)
	err := t.ln.Close()
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return err
}

// ---------------------------------------------------------------------
// Outbound
// ---------------------------------------------------------------------

// writer owns one peer link: it coalesces queued messages into batch
// frames, (re)dialing with capped exponential backoff + jitter, and
// writes each frame under a write deadline.
func (t *TCP) writer(p *peer) {
	defer t.wg.Done()
	defer func() {
		if p.conn != nil {
			p.conn.Close()
		}
	}()
	for {
		// Strict priority: drain crit before even looking at bulk.
		select {
		case <-t.quit:
			return
		case msg := <-p.crit:
			t.writeBatch(p, msg)
			continue
		default:
		}
		select {
		case <-t.quit:
			return
		case msg := <-p.crit:
			t.writeBatch(p, msg)
		case msg := <-p.out:
			t.writeBatch(p, msg)
		}
	}
}

// writeBatch coalesces msg and whatever else is already queued for p
// into one frame and makes at most one delivery attempt for it.  A
// failed dial drops only msg — the queued remainder gets its own
// attempts, preserving per-message retry accounting through a backoff
// window.
func (t *TCP) writeBatch(p *peer, msg protocol.Message) {
	if p.conn == nil && !t.dial(p) {
		t.countDrop("conn")
		return
	}
	p.batch.Reset()
	p.batch.Add(msg)
	reason := t.fillBatch(p)
	n := p.batch.Count()
	p.buf = p.batch.AppendFrame(p.buf[:0])
	frame := p.buf
	t.mu.Lock()
	tap := t.tap
	t.mu.Unlock()
	if tap != nil {
		frame = tap(p.id, frame)
	}
	p.conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
	if _, err := p.conn.Write(frame); err != nil {
		t.logf("write to %s: %v", p.id, err)
		p.conn.Close()
		p.conn = nil
		p.setLive(nil)
		t.connError(p)
		// The whole batch rode one frame; account every message lost.
		for i := 0; i < n; i++ {
			t.countDrop("conn")
		}
		return
	}
	t.observeBatch(n, reason)
}

// fillBatch drains what is already queued into p.batch, critical class
// first, and returns why it stopped: "count" (BatchMax reached), "size"
// (BatchBytes reached) or "drain" (both queues empty).  Batching is
// self-clocking: whatever arrives while the writer is inside conn.Write
// rides the next frame, so frames grow with load and a message on an
// idle link costs a socket write, not a timer tick.
func (t *TCP) fillBatch(p *peer) string {
	for {
		if p.batch.Count() >= t.cfg.BatchMax {
			return "count"
		}
		if p.batch.Size() >= t.cfg.BatchBytes {
			return "size"
		}
		select {
		case m := <-p.crit:
			p.batch.Add(m)
			continue
		default:
		}
		select {
		case m := <-p.out:
			p.batch.Add(m)
		default:
			return "drain"
		}
	}
}

// observeBatch records one flushed batch's size and reason.
func (t *TCP) observeBatch(n int, reason string) {
	if t.series.batchSize == nil {
		return
	}
	t.series.batchSize.Observe(float64(n))
	if c := t.series.flushes[reason]; c != nil {
		c.Inc()
	}
}

// dial attempts to (re)connect, honouring the backoff window.  Returns
// true when a live connection exists on exit.
func (t *TCP) dial(p *peer) bool {
	now := time.Now()
	if now.Before(p.nextDial) {
		return false
	}
	conn, err := net.DialTimeout("tcp", p.addr, t.cfg.DialTimeout)
	if err != nil {
		t.logf("dial %s (%s): %v", p.id, p.addr, err)
		t.connError(p)
		// Exponential backoff with ±50% jitter, capped.
		jitter := 0.5 + p.rng.Float64()
		p.nextDial = now.Add(time.Duration(float64(p.backoff) * jitter))
		p.backoff *= 2
		if p.backoff > t.cfg.BackoffMax {
			p.backoff = t.cfg.BackoffMax
		}
		return false
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	p.conn = conn
	p.setLive(conn)
	p.backoff = t.cfg.BackoffMin
	p.nextDial = time.Time{}
	if p.everUp {
		if p.reconnects != nil {
			p.reconnects.Inc()
		}
		t.logf("reconnected to %s (%s)", p.id, p.addr)
	}
	p.everUp = true
	return true
}

// ---------------------------------------------------------------------
// Inbound
// ---------------------------------------------------------------------

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes frames off one accepted connection and delivers them.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	for {
		msgs, err := wire.ReadMessages(r, t.cfg.MaxFrame)
		if err != nil {
			// A frame that failed its checksum, carried an unknown
			// format, or decoded to garbage was still consumed whole
			// (the length prefix framed it), so the stream is intact:
			// count the reject and keep reading.  A corrupted batch
			// frame loses all its messages at once — the same loss the
			// protocol's retry machinery already absorbs.  Anything
			// else — EOF, a torn read, an oversize claim — desyncs or
			// ends the stream, so the connection is dropped.
			if errors.Is(err, wire.ErrChecksum) || errors.Is(err, wire.ErrVersion) || errors.Is(err, wire.ErrMalformed) {
				t.decodeError(err)
				continue
			}
			return
		}
		// Deliver runs of same-destination messages through the batch
		// handler when one is registered: one handler call (and one
		// receiver event) per run instead of per message.
		for start := 0; start < len(msgs); {
			end := start + 1
			for end < len(msgs) && msgs[end].To == msgs[start].To {
				end++
			}
			t.deliverRun(msgs[start:end])
			start = end
		}
	}
}

// deliverRun dispatches consecutive messages addressed to one site.
func (t *TCP) deliverRun(run []protocol.Message) {
	to := run[0].To
	t.mu.Lock()
	if t.closed || t.down[to] {
		t.mu.Unlock()
		return
	}
	bh := t.bhandler[to]
	h := t.handlers[to]
	if bh == nil && h == nil {
		t.mu.Unlock()
		for range run {
			t.countDrop("unknown")
		}
		return
	}
	t.mu.Unlock()
	for _, m := range run {
		t.countKind(t.series.delivered[:], "network.delivered", m.Kind)
	}
	if bh != nil {
		bh(run)
		return
	}
	for _, m := range run {
		h(m)
	}
}

// loopback delivers self-addressed messages asynchronously, preserving
// their order; synchronous delivery would deadlock the sending site's
// event loop.
func (t *TCP) loopback() {
	defer t.wg.Done()
	for {
		select {
		case <-t.quit:
			return
		case msg := <-t.lo:
			t.deliver(msg)
		}
	}
}

func (t *TCP) deliver(msg protocol.Message) {
	t.mu.Lock()
	if t.closed || t.down[msg.To] {
		t.mu.Unlock()
		return
	}
	h := t.handlers[msg.To]
	if h == nil {
		t.countDrop("unknown")
		t.mu.Unlock()
		return
	}
	t.countKind(t.series.delivered[:], "network.delivered", msg.Kind)
	t.mu.Unlock()
	h(msg)
}

// ---------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------

// count increments a registry counter if a registry is attached (cold
// paths only; hot paths go through the cached tcpSeries handles).
func (t *TCP) count(name string, labels ...metrics.Label) {
	if t.cfg.Metrics != nil {
		t.cfg.Metrics.Counter(name, labels...).Inc()
	}
}

// countKind bumps a cached per-message-kind counter, falling back to a
// registry lookup for kinds outside the cached range.
func (t *TCP) countKind(arr []*metrics.Counter, name string, k protocol.MsgKind) {
	if int(k) < len(arr) {
		if c := arr[k]; c != nil {
			c.Inc()
		}
		return
	}
	t.count(name, metrics.L("type", k.String()))
}

// countDrop bumps the cached network.dropped{reason} counter.
func (t *TCP) countDrop(reason string) {
	if c := t.series.dropped[reason]; c != nil {
		c.Inc()
		return
	}
	if t.series.dropped != nil { // registry attached, uncached reason
		t.count("network.dropped", metrics.L("reason", reason))
	}
}

// queueDrop accounts one frame evicted from a full per-peer queue.
func (t *TCP) queueDrop(p *peer) {
	if p.queueDropped != nil {
		p.queueDropped.Inc()
	}
	t.countDrop("queue")
}

// decodeError accounts one inbound frame the wire codec rejected.
func (t *TCP) decodeError(err error) {
	if t.series.decodeErr != nil {
		t.series.decodeErr.Inc()
	}
	t.logf("rejected inbound frame: %v", err)
}

func (t *TCP) connError(p *peer) {
	if p.connErrors != nil {
		p.connErrors.Inc()
	}
}

func (t *TCP) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

var _ Transport = (*TCP)(nil)
