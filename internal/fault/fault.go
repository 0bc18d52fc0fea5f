// Package fault is the one fault model of both cluster runtimes.  An
// Injector wraps any transport.Transport — the simulated network or TCP
// — and perturbs traffic
// according to a declarative, runtime-mutable plan: per-link
// drop/duplicate/delay probabilities, payload corruption (flipping bytes
// inside outgoing TCP frames so the receiver's CRC path has to reject
// and resync), one-way and full partitions with scheduled heal times,
// and connection resets.  Everything is driven by one seeded PRNG and
// timed on the configured clock, so on the simulator's scheduler a run
// with a fixed seed and a fixed schedule of Apply calls perturbs the
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
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Kinds of probabilistic rules.
const (
	KindDrop    = "drop"
	KindDup     = "dup"
	KindDelay   = "delay"
	KindCorrupt = "corrupt"
	KindReset   = "reset"
)

// Wildcard matches any site in a Rule's From/To position.
const Wildcard = "*"

// Rule is one probabilistic fault: with probability P, apply Kind to
// messages flowing From → To.  Either endpoint may be Wildcard.  Delay
// rules hold the message for a uniform duration in [MinDelay, MaxDelay]
// before forwarding (which also reorders it past anything sent later).
type Rule struct {
	Kind     string
	From, To protocol.SiteID
	P        float64
	MinDelay time.Duration
	MaxDelay time.Duration
}

func (r Rule) matches(from, to protocol.SiteID) bool {
	if r.From != Wildcard && r.From != from {
		return false
	}
	if r.To != Wildcard && r.To != to {
		return false
	}
	return true
}

func (r Rule) String() string {
	s := fmt.Sprintf("%s from=%s to=%s p=%g", r.Kind, r.From, r.To, r.P)
	if r.Kind == KindDelay {
		s += fmt.Sprintf(" min=%s max=%s", r.MinDelay, r.MaxDelay)
	}
	return s
}

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

	mu      sync.Mutex
	rng     *rand.Rand
	rules   []Rule
	blocked map[dirLink]vclock.Time // heal deadline; 0 = until healed
	counts  map[string]int64
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
		inner:   inner,
		cfg:     cfg,
		clk:     cfg.Clock,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		blocked: map[dirLink]vclock.Time{},
		counts:  map[string]int64{},
		timers:  map[vclock.TimerID]bool{},
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
		if d, ok := in.delayLocked(msg.From, msg.To); ok {
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

func (in *Injector) hitLocked(kind string, from, to protocol.SiteID) bool {
	for _, r := range in.rules {
		if r.Kind == kind && r.matches(from, to) && in.rng.Float64() < r.P {
			return true
		}
	}
	return false
}

func (in *Injector) delayLocked(from, to protocol.SiteID) (time.Duration, bool) {
	for _, r := range in.rules {
		if r.Kind != KindDelay || !r.matches(from, to) || in.rng.Float64() >= r.P {
			continue
		}
		d := r.MinDelay
		if r.MaxDelay > r.MinDelay {
			d += time.Duration(in.rng.Int63n(int64(r.MaxDelay - r.MinDelay)))
		}
		return d, true
	}
	return 0, false
}

func (in *Injector) noteLocked(kind string, msg protocol.Message) {
	in.countLocked(kind)
	in.logf("fault: %s %s %s->%s tid=%s", kind, msg.Kind, msg.From, msg.To, msg.TID)
}

func (in *Injector) countLocked(kind string) {
	in.counts[kind]++
	if in.cfg.Metrics != nil {
		in.cfg.Metrics.Counter("transport.fault.injected", metrics.L("kind", kind)).Inc()
		switch kind {
		case KindDrop, KindCorrupt, "partition":
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
// (Kind, From, To).  P <= 0 removes the rule instead.
func (in *Injector) SetRule(r Rule) {
	if r.From == "" {
		r.From = Wildcard
	}
	if r.To == "" {
		r.To = Wildcard
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, old := range in.rules {
		if old.Kind == r.Kind && old.From == r.From && old.To == r.To {
			if r.P <= 0 {
				in.rules = append(in.rules[:i], in.rules[i+1:]...)
			} else {
				in.rules[i] = r
			}
			return
		}
	}
	if r.P > 0 {
		in.rules = append(in.rules, r)
	}
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

// Reseed restarts the PRNG from seed (for reproducing a schedule
// mid-session).
func (in *Injector) Reseed(seed int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rng = rand.New(rand.NewSource(seed))
}

// Counts snapshots the per-kind injection counters.
func (in *Injector) Counts() map[string]int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.counts))
	for k, v := range in.counts {
		out[k] = v
	}
	return out
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
	for _, r := range in.rules {
		fmt.Fprintf(&b, "rule %s\n", r)
	}
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
	kinds := make([]string, 0, len(in.counts))
	for k := range in.counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "injected{kind=%s} %d\n", k, in.counts[k])
	}
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
