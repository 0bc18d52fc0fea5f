// Package network simulates the message fabric among sites: point-to-
// point delivery with configurable latency and seeded jitter, and site
// down states.  Delivery is scheduled on a vclock.Scheduler, so every
// protocol run is deterministic given a seed.  *Network is the
// simulated runtime's transport.Transport.
//
// This stands in for the paper's (unspecified) inter-site communication
// substrate.  The failure model is the paper's: "a failure disrupts
// communication among sites during an update".  A crashed site is the
// network's own (it drops everything to and from the site); loss,
// duplication, delay and severed links come from a fault.Injector
// wrapped around the network, the same fault model the TCP fabric uses.
package network

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

// Network is the simulated fabric.  Safe for concurrent use; in the
// deterministic cluster runtime all calls are serialized anyway.
type Network struct {
	mu       sync.Mutex
	sched    *vclock.Scheduler
	latency  time.Duration
	jitter   time.Duration
	rng      *rand.Rand
	handlers map[protocol.SiteID]func(protocol.Message)
	down     map[protocol.SiteID]bool
	// reg, when set via Instrument, receives per-message-type series:
	// network.sent/delivered (type label), network.dropped (reason
	// label), and the network.delay.seconds distribution by type.
	reg *metrics.Registry
}

// Config parameterizes a Network.
type Config struct {
	// Latency is the one-way delivery delay (default 10ms of simulated
	// time).
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// Seed drives the jitter RNG; runs with equal seeds are identical.
	Seed int64
}

// New builds a network delivering on the given scheduler.
func New(sched *vclock.Scheduler, cfg Config) *Network {
	if cfg.Latency <= 0 {
		cfg.Latency = 10 * time.Millisecond
	}
	return &Network{
		sched:    sched,
		latency:  cfg.Latency,
		jitter:   cfg.Jitter,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		handlers: map[protocol.SiteID]func(protocol.Message){},
		down:     map[protocol.SiteID]bool{},
	}
}

// Instrument attaches a metrics registry; all subsequent activity is
// recorded as network.* series.
func (n *Network) Instrument(reg *metrics.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reg = reg
}

// count increments a registry counter if a registry is attached.
// Callers hold n.mu.
func (n *Network) count(name string, labels ...metrics.Label) {
	if n.reg != nil {
		n.reg.Counter(name, labels...).Inc()
	}
}

// Register installs the delivery handler for a site.  Re-registering
// replaces the handler (a restarted site re-registers).
func (n *Network) Register(site protocol.SiteID, h func(protocol.Message)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[site] = h
}

// Send schedules delivery of msg.  Messages to or from down sites are
// silently dropped (and counted) — the sender learns nothing, exactly
// like a lost datagram.
func (n *Network) Send(msg protocol.Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	kind := metrics.L("type", msg.Kind.String())
	n.count("network.sent", kind)
	if n.down[msg.From] || n.down[msg.To] {
		n.count("network.dropped", metrics.L("reason", "down"))
		return
	}
	d := n.latency
	if n.jitter > 0 {
		d += time.Duration(n.rng.Int63n(int64(n.jitter)))
	}
	if n.reg != nil {
		n.reg.Histogram("network.delay.seconds", kind).Observe(d.Seconds())
	}
	n.sched.After(d, func() { n.deliver(msg) })
}

// deliver runs at the scheduled instant and re-checks the destination: a
// site that crashed while the message was in flight still loses it.
func (n *Network) deliver(msg protocol.Message) {
	n.mu.Lock()
	if n.down[msg.To] {
		n.count("network.dropped", metrics.L("reason", "down"))
		n.mu.Unlock()
		return
	}
	h := n.handlers[msg.To]
	n.count("network.delivered", metrics.L("type", msg.Kind.String()))
	n.mu.Unlock()
	if h != nil {
		h(msg)
	}
}

// SetDown marks a site crashed (true) or recovered (false).  Crashing
// does not flush in-flight messages to the site; they are dropped at
// delivery time.
func (n *Network) SetDown(site protocol.SiteID, down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[site] = down
}

// IsDown reports a site's crash state.
func (n *Network) IsDown(site protocol.SiteID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down[site]
}

// Close implements transport.Transport; the simulated network holds no
// resources.
func (n *Network) Close() error { return nil }
