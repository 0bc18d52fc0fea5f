// Package fault is the one fault model of both cluster runtimes, over
// the network and under the disk.  Both planes keep the same kind of
// state — a seeded PRNG, rules in insertion order, per-kind counts —
// and speak one plan grammar (plan.go), each adding only its own verbs.
//
// An Injector wraps any transport.Transport — the simulated network or
// TCP — and perturbs traffic: per-link drop/duplicate/delay
// probabilities, payload corruption (flipping bytes inside outgoing TCP
// frames so the receiver's CRC path has to reject and resync), one-way
// and full partitions with scheduled heal times, and connection resets.
// It is timed on the configured clock, so on the simulator's scheduler a
// run with a fixed seed and a fixed schedule of Apply calls perturbs the
// same messages the same way at the same instants.
//
// The injector sits ABOVE the wire: a message it drops never reaches
// the inner transport (and is counted as
// network.dropped{reason=fault.<kind>}), a cut link also drops what is
// already in flight on it when it arrives, while corruption
// is applied BELOW the codec via the TCP transport's frame tap, so the
// bytes on the socket are damaged but the sender's view of the message
// is not.  Transports without a frame tap (the simulated fabric)
// degrade corruption to a drop — the observable effect a CRC reject
// has anyway.
//
// A Disk (disk.go) wraps a storage.FS the same way and fails, tears,
// fills, corrupts or stalls the operations the WAL makes.
package fault

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Kinds of network rules.
const (
	KindDrop    = "drop"
	KindDup     = "dup"
	KindDelay   = "delay"
	KindCorrupt = "corrupt"
	KindReset   = "reset"
)

// Wildcard matches any site in a Rule's From/To position.
const Wildcard = "*"

// FrameTapper is the optional transport surface corruption rules need:
// a hook observing (and mutating) each encoded frame just before it is
// written to a peer socket.  *transport.TCP implements it.
type FrameTapper interface {
	SetFrameTap(tap func(to protocol.SiteID, frame []byte) []byte)
}

// PeerResetter is the optional transport surface reset rules need: the
// ability to sever the live connection to one peer (it redials).
// *transport.TCP implements it.
type PeerResetter interface {
	ResetPeer(peer protocol.SiteID) bool
}

// Config parameterizes an Injector.
type Config struct {
	// Self is the site whose outgoing traffic this injector carries;
	// used to match the From side of corruption rules (the frame tap
	// only sees the destination).
	Self protocol.SiteID
	// Seed drives every probabilistic decision.  Equal seeds + equal
	// traffic ⇒ equal faults.
	Seed int64
	// Metrics, when set, receives transport.fault.injected{kind=...}
	// and network.dropped{reason=fault} counters.
	Metrics *metrics.Registry
	// Logf, when set, receives one line per injected fault.
	Logf func(format string, args ...any)
	// Clock times delayed copies and scheduled heals (nil: wall time).
	// The simulated cluster passes its scheduler.
	Clock vclock.Clock
}

// dirLink is one DIRECTED edge; a full partition stores both directions.
type dirLink struct {
	from, to protocol.SiteID
}

// Injector implements transport.Transport by delegating to an inner
// transport through the fault plan.  Safe for concurrent use.
type Injector struct {
	inner transport.Transport
	cfg   Config
	clk   vclock.Clock

	ruleTable
	blocked map[dirLink]vclock.Time // heal deadline; 0 = until healed
	timers  map[vclock.TimerID]bool // pending delayed copies
	closed  bool

	tapper   FrameTapper
	resetter PeerResetter
}

// Wrap builds an Injector over inner.  If inner supports frame tapping
// (TCP does), the corruption path is installed immediately; the tap is
// pass-through until a corrupt rule is added.
func Wrap(inner transport.Transport, cfg Config) *Injector {
	in := &Injector{
		inner:     inner,
		cfg:       cfg,
		clk:       cfg.Clock,
		ruleTable: newRuleTable(cfg.Seed, cfg.Metrics, "transport.fault.injected"),
		blocked:   map[dirLink]vclock.Time{},
		timers:    map[vclock.TimerID]bool{},
	}
	if in.clk == nil {
		in.clk = vclock.NewWall()
	}
	if tp, ok := inner.(FrameTapper); ok {
		in.tapper = tp
		tp.SetFrameTap(in.tapFrame)
	}
	if rs, ok := inner.(PeerResetter); ok {
		in.resetter = rs
	}
	return in
}

// Send applies the fault plan to msg, then forwards the surviving
// copies to the inner transport (possibly later, for delayed copies).
func (in *Injector) Send(msg protocol.Message) {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	if in.blockedLocked(msg.From, msg.To) {
		in.noteLocked("partition", msg)
		in.mu.Unlock()
		return
	}
	if in.hitLocked(KindDrop, msg.From, msg.To) {
		in.noteLocked(KindDrop, msg)
		in.mu.Unlock()
		return
	}
	// On transports without a frame tap, corruption degrades to a drop:
	// a CRC-rejected frame never reaches the handler either.
	if in.tapper == nil && in.hitLocked(KindCorrupt, msg.From, msg.To) {
		in.noteLocked(KindCorrupt, msg)
		in.mu.Unlock()
		return
	}
	reset := in.resetter != nil && in.hitLocked(KindReset, msg.From, msg.To)
	if reset {
		in.noteLocked(KindReset, msg)
	}
	copies := 1
	if in.hitLocked(KindDup, msg.From, msg.To) {
		in.noteLocked(KindDup, msg)
		copies = 2
	}
	var delays [2]time.Duration
	for i := range delays[:copies] {
		if d, ok := in.drawLocked(KindDelay, msg.From, msg.To); ok {
			in.noteLocked(KindDelay, msg)
			delays[i] = d
		}
	}
	in.mu.Unlock()

	for _, d := range delays[:copies] {
		if d <= 0 {
			in.inner.Send(msg)
		} else {
			in.sendLater(d, msg)
		}
	}
	if reset {
		in.resetter.ResetPeer(msg.To)
	}
}

// sendLater forwards msg after d on the injector's clock.  Timers are
// tracked so Close can cancel in-flight deliveries.
func (in *Injector) sendLater(d time.Duration, msg protocol.Message) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return
	}
	// The callback takes in.mu, so it cannot read id before the
	// assignment below lands, even on a wall clock firing at once.
	var id vclock.TimerID
	id = in.clk.After(d, func() {
		in.mu.Lock()
		live := in.timers[id]
		delete(in.timers, id)
		in.mu.Unlock()
		if live {
			in.inner.Send(msg)
		}
	})
	in.timers[id] = true
}

// tapFrame is installed as the TCP frame tap: with corrupt-rule
// probability it flips one payload byte (never the 4-byte length
// prefix, so the stream stays framed and the receiver can resync after
// rejecting the frame).
func (in *Injector) tapFrame(to protocol.SiteID, frame []byte) []byte {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed || len(frame) <= 4 {
		return frame
	}
	if !in.hitLocked(KindCorrupt, in.cfg.Self, to) {
		return frame
	}
	i := 4 + in.rng.Intn(len(frame)-4)
	frame[i] ^= 0xFF
	in.countLocked(KindCorrupt)
	in.logf("fault: corrupt frame byte %d to %s", i, to)
	return frame
}

// --- plan state (all *Locked helpers require in.mu) -------------------

func (in *Injector) blockedLocked(from, to protocol.SiteID) bool {
	heal, ok := in.blocked[dirLink{from, to}]
	if ok && heal != 0 && in.clk.Now() >= heal {
		delete(in.blocked, dirLink{from, to})
		return false
	}
	return ok
}

// drawLocked samples the kind rules of the from→to link.
func (in *Injector) drawLocked(kind string, from, to protocol.SiteID) (time.Duration, bool) {
	return in.draw(kind, func(r *Rule) bool { return r.onLink(from, to) })
}

func (in *Injector) hitLocked(kind string, from, to protocol.SiteID) bool {
	_, hit := in.drawLocked(kind, from, to)
	return hit
}

func (in *Injector) noteLocked(kind string, msg protocol.Message) {
	in.countLocked(kind)
	in.logf("fault: %s %s %s->%s tid=%s", kind, msg.Kind, msg.From, msg.To, msg.TID)
}

func (in *Injector) countLocked(kind string) {
	in.count(kind)
	switch kind {
	case KindDrop, KindCorrupt, "partition":
		if in.cfg.Metrics != nil {
			in.cfg.Metrics.Counter("network.dropped", metrics.L("reason", "fault."+kind)).Inc()
		}
	}
}

func (in *Injector) logf(format string, args ...any) {
	if in.cfg.Logf != nil {
		in.cfg.Logf(format, args...)
	}
}

// --- plan mutation ----------------------------------------------------

// SetRule installs r, replacing any existing rule with the same
// (Kind, From, To); an empty end is the wildcard.  P <= 0 removes the
// rule instead.
func (in *Injector) SetRule(r Rule) {
	if r.From == "" {
		r.From = Wildcard
	}
	if r.To == "" {
		r.To = Wildcard
	}
	in.ruleTable.SetRule(r)
}

// Partition blocks the a→b direction (and b→a too unless oneWay),
// healing automatically after heal if heal > 0, otherwise until
// HealLink/HealAll.
func (in *Injector) Partition(a, b protocol.SiteID, oneWay bool, heal time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	var deadline vclock.Time
	if heal > 0 {
		deadline = in.clk.Now() + heal
	}
	in.blocked[dirLink{a, b}] = deadline
	if !oneWay {
		in.blocked[dirLink{b, a}] = deadline
	}
}

// HealLink unblocks both directions between a and b.
func (in *Injector) HealLink(a, b protocol.SiteID) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.blocked, dirLink{a, b})
	delete(in.blocked, dirLink{b, a})
}

// HealAll removes every partition.  Probabilistic rules stay in force.
func (in *Injector) HealAll() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.blocked = map[dirLink]vclock.Time{}
}

// Clear removes every rule and partition: the plan becomes a no-op.
func (in *Injector) Clear() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
	in.blocked = map[dirLink]vclock.Time{}
}

// Status renders the active plan and injection counts as stable text.
func (in *Injector) Status() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	links := make([]dirLink, 0, len(in.blocked))
	for l := range in.blocked {
		if in.blockedLocked(l.from, l.to) { // prunes a healed link
			links = append(links, l)
		}
	}
	var b strings.Builder
	if len(in.rules) == 0 && len(links) == 0 {
		b.WriteString("no active faults\n")
	}
	in.writeRules(&b)
	sort.Slice(links, func(i, j int) bool {
		if links[i].from != links[j].from {
			return links[i].from < links[j].from
		}
		return links[i].to < links[j].to
	})
	for _, l := range links {
		heal := in.blocked[l]
		if heal == 0 {
			fmt.Fprintf(&b, "partition %s->%s\n", l.from, l.to)
		} else {
			fmt.Fprintf(&b, "partition %s->%s heal_in=%s\n", l.from, l.to, (heal - in.clk.Now()).Round(time.Millisecond))
		}
	}
	in.writeCounts(&b)
	return b.String()
}

// --- Transport surface ------------------------------------------------

// Register installs h behind the partition check Send applies, so a
// link cut while a message is in flight on it drops the message on
// arrival.
func (in *Injector) Register(site protocol.SiteID, h transport.Handler) {
	in.inner.Register(site, func(msg protocol.Message) {
		in.mu.Lock()
		cut := in.blockedLocked(msg.From, msg.To)
		if cut {
			in.noteLocked("partition", msg)
		}
		in.mu.Unlock()
		if !cut {
			h(msg)
		}
	})
}

// SetDown passes through to the inner transport.
func (in *Injector) SetDown(site protocol.SiteID, down bool) {
	in.inner.SetDown(site, down)
}

// IsDown passes through to the inner transport.
func (in *Injector) IsDown(site protocol.SiteID) bool {
	return in.inner.IsDown(site)
}

// Close cancels pending delayed deliveries and closes the inner
// transport.
func (in *Injector) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil
	}
	in.closed = true
	for id := range in.timers {
		in.clk.Cancel(id)
	}
	in.timers = nil
	in.mu.Unlock()
	return in.inner.Close()
}

var _ transport.Transport = (*Injector)(nil)
