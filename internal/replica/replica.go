// Package replica makes the paper's §3 replication note concrete: "an
// item that is replicated at several sites can be viewed as a set of
// individual items, one for each site."
//
// A logical item x replicated k ways becomes physical items x_r0 …
// x_r{k-1}, placed on distinct sites by Placement.  The cluster runtime
// replicates by quorum when Config.Replication is set: the coordinator
// probes all k replicas, picks the newest replica (by version) for each
// read and any W responsive replicas for each write, and compiles the
// transaction against that plan with RewritePlan — so writes survive
// k−W site failures and reads survive k−R, with W+R > k guaranteeing
// every read quorum overlaps every write quorum.  Write-all / read-one
// is the case W = k, R = 1.  Replicas left out of a write quorum are
// caught up by the cluster's anti-entropy plane, not by the
// transaction.
//
// Polyvalues and replication compose: an interrupted write leaves
// polyvalues on the written replicas, and each reduces independently
// when the outcome arrives — by coordinator contact or by gossip.
package replica

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/protocol"
)

// Marker separates the logical name from the replica index.  It is
// chosen from the expression language's identifier alphabet so physical
// names remain valid identifiers.
const Marker = "_r"

// Name returns the physical name of logical item's i-th replica.
func Name(logical string, i int) string {
	return logical + Marker + strconv.Itoa(i)
}

// Logical splits a physical name into its logical item and replica
// index; ok is false for names without a replica suffix.
func Logical(physical string) (logical string, i int, ok bool) {
	idx := strings.LastIndex(physical, Marker)
	if idx <= 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(physical[idx+len(Marker):])
	if err != nil || n < 0 {
		return "", 0, false
	}
	return physical[:idx], n, true
}

// CheckName rejects logical item names the replica layer would misparse:
// a user item named "audit_r3" is indistinguishable from replica 3 of
// "audit", so Name/Logical would not round-trip and placement, version
// digests and anti-entropy value copies would all attribute it to the
// wrong logical item.  RewritePlan and the cluster's quorum coordinator
// call this on every logical name they touch.
func CheckName(logical string) error {
	if l, i, ok := Logical(logical); ok {
		return fmt.Errorf("replica: logical item %q collides with the replica namespace (parses as replica %d of %q); rename it or drop the %s<digits> suffix", logical, i, l, Marker)
	}
	return nil
}

// checkProgramNames validates every logical name a program mentions.
func checkProgramNames(p expr.Program) error {
	for _, item := range p.Items() {
		if err := CheckName(item); err != nil {
			return err
		}
	}
	return nil
}

// Plan assigns chosen replicas per logical item for a quorum rewrite:
// each read is served by one replica (the newest by version, chosen by
// the coordinator's probe) and each write lands on any W responsive
// replicas.
type Plan struct {
	// Reads maps each logical item read by the program to the replica
	// index serving the read.
	Reads map[string]int
	// Writes maps each logical item written by the program to the
	// replica indices receiving the write, in ascending order.
	Writes map[string][]int
}

// RewritePlan compiles a logical-item program against an explicit
// replica plan: reads reference the plan's chosen read replica and each
// written item is assigned at exactly the plan's write replicas.  Every
// logical item the program mentions must be covered by the plan.
func RewritePlan(p expr.Program, plan Plan) (expr.Program, error) {
	if err := checkProgramNames(p); err != nil {
		return expr.Program{}, err
	}
	for _, r := range p.ReadSet() {
		if _, ok := plan.Reads[r]; !ok {
			return expr.Program{}, fmt.Errorf("replica: plan has no read replica for %q", r)
		}
	}
	for _, w := range p.WriteSet() {
		if len(plan.Writes[w]) == 0 {
			return expr.Program{}, fmt.Errorf("replica: plan has no write replicas for %q", w)
		}
	}
	var sb strings.Builder
	first := true
	for _, stmt := range p.Stmts {
		rhs := rewritePlanNode(stmt.Expr, plan.Reads)
		var guard string
		if stmt.Guard != nil {
			guard = " if " + rewritePlanNode(stmt.Guard, plan.Reads)
		}
		for _, i := range plan.Writes[stmt.Target] {
			if !first {
				sb.WriteString("; ")
			}
			first = false
			sb.WriteString(Name(stmt.Target, i))
			sb.WriteString(" = ")
			sb.WriteString(rhs)
			sb.WriteString(guard)
		}
	}
	return expr.Parse(sb.String())
}

// rewritePlanNode renders a node with each item reference redirected to
// its plan-chosen read replica.
func rewritePlanNode(n expr.Node, reads map[string]int) string {
	switch x := n.(type) {
	case expr.Lit:
		return x.String()
	case expr.Ref:
		return Name(x.Name, reads[x.Name])
	case expr.Unary:
		return x.Op + "(" + rewritePlanNode(x.X, reads) + ")"
	case expr.Binary:
		return "(" + rewritePlanNode(x.L, reads) + " " + x.Op + " " + rewritePlanNode(x.R, reads) + ")"
	case expr.Call:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = rewritePlanNode(a, reads)
		}
		return x.Fn + "(" + strings.Join(args, ", ") + ")"
	default:
		return n.String()
	}
}

// fnv32a hashes a string with FNV-1a without allocating a hasher — the
// placement hot path calls this on every lookup.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Placement returns an item→site mapping that puts each logical item's
// replicas on distinct sites (replica i on sites[(h+i) mod n]) and
// hashes non-replica items over sites.  It is the cluster's default
// placement.
func Placement(sites []protocol.SiteID) func(string) protocol.SiteID {
	n := len(sites)
	return func(item string) protocol.SiteID {
		logical, i, ok := Logical(item)
		if !ok {
			logical, i = item, 0
		}
		return sites[(int(fnv32a(logical))+i)%n]
	}
}

// Sites returns the distinct owner sites of a logical item's k replicas
// under the given placement, in replica-index order.
func Sites(place func(string) protocol.SiteID, logical string, k int) []protocol.SiteID {
	out := make([]protocol.SiteID, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, place(Name(logical, i)))
	}
	return out
}
