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
)

// Rule is one probabilistic fault: with probability P, apply Kind to a
// matching message or file operation.  A network rule names a link,
// From → To, either end of which may be Wildcard (the Injector fills an
// empty one in); a disk rule leaves both empty and names Path, a
// substring of the file path ("" or "*" matches every file).  Delay and
// slow rules hold the message or operation for a uniform duration in
// [MinDelay, MaxDelay] (a delayed message is also reordered past
// anything sent later).
type Rule struct {
	Kind     string
	From, To protocol.SiteID
	Path     string
	P        float64
	MinDelay time.Duration
	MaxDelay time.Duration
	// Once disarms the rule after its first hit — the transient fault
	// (a single lost message, a single failed fsync).
	Once bool
	// Sticky converts the rule to always-fire after its first hit — the
	// persistent fault (a sector that stays bad, a disk that stays
	// full).  Overrides Once.
	Sticky bool

	// stuck marks a sticky rule that has fired.
	stuck bool
}

func (r *Rule) onLink(from, to protocol.SiteID) bool {
	return (r.From == Wildcard || r.From == from) && (r.To == Wildcard || r.To == to)
}

func (r *Rule) onPath(path string) bool {
	return r.Path == "" || r.Path == "*" || strings.Contains(path, r.Path)
}

// target renders what the rule applies to.
func (r Rule) target() string {
	if r.From == "" && r.To == "" {
		if r.Path == "" {
			return "path=*"
		}
		return "path=" + r.Path
	}
	return fmt.Sprintf("from=%s to=%s", r.From, r.To)
}

func (r Rule) String() string {
	s := fmt.Sprintf("%s %s p=%g", r.Kind, r.target(), r.P)
	if r.Kind == KindDelay || r.Kind == DiskSlow {
		s += fmt.Sprintf(" min=%s max=%s", r.MinDelay, r.MaxDelay)
	}
	if r.Sticky {
		s += " sticky"
		if r.stuck {
			s += "(fired)"
		}
	} else if r.Once {
		s += " once"
	}
	return s
}

// ruleTable is the state both fault planes keep: one seeded PRNG, the
// rules in insertion order and the per-kind injection counts, under the
// plane's one mutex.  The exported methods lock; the others require mu.
type ruleTable struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rules  []Rule
	counts map[string]int64
	reg    *metrics.Registry // nil: count without exporting
	metric string            // the counter each injection bumps, by kind
}

func newRuleTable(seed int64, reg *metrics.Registry, metric string) ruleTable {
	return ruleTable{
		rng:    rand.New(rand.NewSource(seed)),
		counts: map[string]int64{},
		reg:    reg,
		metric: metric,
	}
}

// SetRule installs r, replacing any rule with the same kind and target.
// P <= 0 removes the rule instead.
func (t *ruleTable) SetRule(r Rule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, old := range t.rules {
		if old.Kind == r.Kind && old.target() == r.target() {
			if r.P <= 0 {
				t.rules = append(t.rules[:i], t.rules[i+1:]...)
			} else {
				t.rules[i] = r
			}
			return
		}
	}
	if r.P > 0 {
		t.rules = append(t.rules, r)
	}
}

// draw samples the rules of kind that match, in insertion order: one
// Float64 per rule until one lands under its P (a fired sticky rule
// skips the coin).  The hit draws its delay, then applies once/sticky.
func (t *ruleTable) draw(kind string, match func(*Rule) bool) (time.Duration, bool) {
	for i := range t.rules {
		r := &t.rules[i]
		if r.Kind != kind || !match(r) {
			continue
		}
		if !r.stuck && t.rng.Float64() >= r.P {
			continue
		}
		d := r.MinDelay
		if r.MaxDelay > r.MinDelay {
			d += time.Duration(t.rng.Int63n(int64(r.MaxDelay - r.MinDelay)))
		}
		if r.Sticky {
			r.stuck = true
		} else if r.Once {
			t.rules = append(t.rules[:i], t.rules[i+1:]...)
		}
		return d, true
	}
	return 0, false
}

func (t *ruleTable) count(kind string) {
	t.counts[kind]++
	if t.reg != nil {
		t.reg.Counter(t.metric, metrics.L("kind", kind)).Inc()
	}
}

func (t *ruleTable) writeRules(b *strings.Builder) {
	for _, r := range t.rules {
		fmt.Fprintf(b, "rule %s\n", r)
	}
}

func (t *ruleTable) writeCounts(b *strings.Builder) {
	kinds := make([]string, 0, len(t.counts))
	for k := range t.counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(b, "injected{kind=%s} %d\n", k, t.counts[k])
	}
}

// Clear removes every rule: the plan becomes a no-op.
func (t *ruleTable) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rules = nil
}

// Reseed restarts the PRNG from seed (for reproducing a schedule
// mid-session).
func (t *ruleTable) Reseed(seed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rng = rand.New(rand.NewSource(seed))
}

// Counts snapshots the per-kind injection counters.
func (t *ruleTable) Counts() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}
