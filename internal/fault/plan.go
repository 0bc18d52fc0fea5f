package fault

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/protocol"
)

// The plan grammar both planes speak.  One command per line:
//
//	<rule kind> <target> p=<prob> [min=<dur> max=<dur>] [once|sticky]
//	clear
//	seed n=<int>
//	status
//
// A network rule's target is [from=<site|*>] [to=<site|*>] and its kinds
// are drop, dup, corrupt, reset and delay; a disk rule's target is
// [path=<substr|*>] and its kinds are fsync, torn, enospc, readflip and
// slow.  Only delay and slow take min= and max=, and both are required
// there.  An omitted target matches everything; p=0 removes the matching
// rule.  `once` disarms a rule after its first hit; `sticky` makes it
// fire on every later match (a persistent failure).  Durations use Go
// syntax (150ms, 2s).  A key or flag the verb does not take is refused,
// so a misspelled target cannot widen a rule to everything.
//
// The network plane adds partitions:
//
//	partition a=<site> b=<site> [oneway] [heal=<dur>]
//	heal [a=<site> b=<site>]

// A grammar is one plane's command language: its error prefix, what
// `clear` reports clearing, and each of its own verbs with the
// arguments it takes ("key=" for a key, a bare word for a flag).  A verb
// that takes p= installs a rule.
type grammar struct {
	prefix string
	noun   string
	verbs  map[string]string
}

const (
	linkRule  = "from= to= p= once sticky"
	pathRule  = "path= p= once sticky"
	delayArgs = " min= max="
)

var netGrammar = grammar{prefix: "fault", noun: "faults", verbs: map[string]string{
	KindDrop:    linkRule,
	KindDup:     linkRule,
	KindCorrupt: linkRule,
	KindReset:   linkRule,
	KindDelay:   linkRule + delayArgs,
	"partition": "a= b= heal= oneway",
	"heal":      "a= b=",
}}

var diskGrammar = grammar{prefix: "diskfault", noun: "disk faults", verbs: map[string]string{
	DiskFsync:    pathRule,
	DiskTorn:     pathRule,
	DiskENOSPC:   pathRule,
	DiskReadFlip: pathRule,
	DiskSlow:     pathRule + delayArgs,
}}

// commonVerbs are the verbs every plane takes.
var commonVerbs = map[string]string{"clear": "", "seed": "n=", "status": ""}

// command is one parsed line.
type command struct {
	verb  string
	takes []string
	kv    map[string]string
	flags map[string]bool
}

func (g grammar) parse(line string) (command, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return command{}, fmt.Errorf("%s: empty command", g.prefix)
	}
	c := command{verb: strings.ToLower(fields[0]), kv: map[string]string{}, flags: map[string]bool{}}
	spec, ok := g.verbs[c.verb]
	if !ok {
		spec, ok = commonVerbs[c.verb]
	}
	if !ok {
		return command{}, fmt.Errorf("%s: unknown command %q", g.prefix, c.verb)
	}
	c.takes = strings.Fields(spec)
	for _, f := range fields[1:] {
		k, v, isKey := strings.Cut(f, "=")
		if isKey && (k == "" || v == "") {
			return command{}, fmt.Errorf("%s: malformed argument %q", g.prefix, f)
		}
		k = strings.ToLower(k)
		if isKey {
			c.kv[k] = v
			k += "="
		} else {
			c.flags[k] = true
		}
		if !slices.Contains(c.takes, k) {
			return command{}, fmt.Errorf("%s: %s does not take %q", g.prefix, c.verb, f)
		}
	}
	return c, nil
}

// plane is what the shared verbs drive.
type plane interface {
	SetRule(Rule)
	Clear()
	Reseed(seed int64)
	Status() string
}

// apply parses and executes one command against p, returning a one-line
// human-readable result; verbs that are neither shared nor rule verbs
// go to own.
func (g grammar) apply(p plane, line string, own func(command) (string, error)) (string, error) {
	c, err := g.parse(line)
	if err != nil {
		return "", err
	}
	switch {
	case c.verb == "clear":
		p.Clear()
		return "cleared all " + g.noun, nil
	case c.verb == "seed":
		n, err := strconv.ParseInt(c.kv["n"], 10, 64)
		if err != nil {
			return "", fmt.Errorf("%s: seed needs n=<int>: %v", g.prefix, err)
		}
		p.Reseed(n)
		return fmt.Sprintf("reseeded to %d", n), nil
	case c.verb == "status":
		return strings.TrimRight(p.Status(), "\n"), nil
	case !slices.Contains(c.takes, "p="):
		return own(c)
	}
	r, err := g.rule(c)
	if err != nil {
		return "", err
	}
	p.SetRule(r)
	if r.P == 0 {
		return "cleared " + r.Kind + " " + r.target(), nil
	}
	return "set " + r.String(), nil
}

func (g grammar) rule(c command) (Rule, error) {
	r := Rule{Kind: c.verb, Path: c.kv["path"], Once: c.flags["once"], Sticky: c.flags["sticky"]}
	if slices.Contains(c.takes, "from=") {
		r.From, r.To = orWild(c.kv["from"]), orWild(c.kv["to"])
	}
	p, ok := c.kv["p"]
	if !ok {
		return r, fmt.Errorf("%s: %s needs p=<prob>", g.prefix, c.verb)
	}
	var err error
	if r.P, err = strconv.ParseFloat(p, 64); err != nil {
		return r, fmt.Errorf("%s: bad p=%q: %v", g.prefix, p, err)
	}
	if !(r.P >= 0 && r.P <= 1) { // also refuses NaN
		return r, fmt.Errorf("%s: p=%g out of [0,1]", g.prefix, r.P)
	}
	if slices.Contains(c.takes, "min=") {
		if r.MinDelay, err = g.dur(c, "min"); err != nil {
			return r, err
		}
		if r.MaxDelay, err = g.dur(c, "max"); err != nil {
			return r, err
		}
		if r.MaxDelay < r.MinDelay {
			return r, fmt.Errorf("%s: %s max=%s < min=%s", g.prefix, c.verb, r.MaxDelay, r.MinDelay)
		}
	}
	return r, nil
}

func (g grammar) dur(c command, key string) (time.Duration, error) {
	v, ok := c.kv[key]
	if !ok {
		return 0, fmt.Errorf("%s: missing %s=<dur>", g.prefix, key)
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("%s: bad %s=%q", g.prefix, key, v)
	}
	return d, nil
}

func orWild(s string) protocol.SiteID {
	if s == "" {
		return Wildcard
	}
	return protocol.SiteID(s)
}

// applyPlan executes a whole plan: commands separated by ';' or
// newlines, blank entries and #-comments ignored.  The first error
// aborts and is returned with the offending command.
func applyPlan(plan string, apply func(string) (string, error)) error {
	for _, line := range strings.FieldsFunc(plan, func(r rune) bool { return r == ';' || r == '\n' }) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if _, err := apply(line); err != nil {
			return fmt.Errorf("%w (in %q)", err, line)
		}
	}
	return nil
}

// Apply parses and executes one network fault command, returning a
// one-line human-readable result.  The same grammar serves the polynode
// control port's FAULT verb and the -faults startup flag.
func (in *Injector) Apply(cmd string) (string, error) {
	return netGrammar.apply(in, cmd, in.applyPartition)
}

// ApplyPlan executes a whole network plan (see applyPlan).
func (in *Injector) ApplyPlan(plan string) error { return applyPlan(plan, in.Apply) }

// applyPartition runs the network plane's own verbs.
func (in *Injector) applyPartition(c command) (string, error) {
	a, b := c.kv["a"], c.kv["b"]
	if c.verb == "heal" {
		if a == "" && b == "" {
			in.HealAll()
			return "healed all partitions", nil
		}
		if a == "" || b == "" {
			return "", fmt.Errorf("fault: heal needs both a= and b= (or neither)")
		}
		in.HealLink(protocol.SiteID(a), protocol.SiteID(b))
		return fmt.Sprintf("healed %s<->%s", a, b), nil
	}
	if a == "" || b == "" {
		return "", fmt.Errorf("fault: partition needs a=<site> b=<site>")
	}
	var heal time.Duration
	if _, ok := c.kv["heal"]; ok {
		var err error
		if heal, err = netGrammar.dur(c, "heal"); err != nil {
			return "", err
		}
	}
	oneWay := c.flags["oneway"]
	in.Partition(protocol.SiteID(a), protocol.SiteID(b), oneWay, heal)
	desc := fmt.Sprintf("partitioned %s<->%s", a, b)
	if oneWay {
		desc = fmt.Sprintf("partitioned %s->%s", a, b)
	}
	if heal > 0 {
		desc += fmt.Sprintf(" heal=%s", heal)
	}
	return desc, nil
}
