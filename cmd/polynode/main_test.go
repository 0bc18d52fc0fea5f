package main

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// startServer brings up site A's control server the way main does —
// TCP transport, fault plane, cluster node — without the listeners.
func startServer(t *testing.T, cfg cluster.Config, peers map[protocol.SiteID]string) *server {
	t.Helper()
	reg := metrics.NewRegistry()
	fab, err := transport.NewTCP(transport.TCPConfig{Self: "A", Peers: peers, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.Wrap(fab, fault.Config{Self: "A", Metrics: reg})
	cfg.Metrics = reg
	for id := range peers {
		cfg.Sites = append(cfg.Sites, id)
	}
	sort.Slice(cfg.Sites, func(i, j int) bool { return cfg.Sites[i] < cfg.Sites[j] })
	node, err := cluster.NewNode(cfg, "A", inj)
	if err != nil {
		fab.Close()
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	return &server{self: "A", node: node, inj: inj}
}

// TestControlProtocol walks the control verbs on a one-site node; the
// commands run in order against one state.  want is the whole last line,
// or with a trailing "…" a prefix of it.
func TestControlProtocol(t *testing.T) {
	s := startServer(t, cluster.Config{}, map[protocol.SiteID]string{"A": "127.0.0.1:0"})
	for _, tc := range []struct{ cmd, want string }{
		{"PING", "OK pong A"},
		{"ping", "OK pong A"},
		{"OWNER", "ERR usage: OWNER <item>"},
		{"OWNER x", "OK A"},
		{"LOAD x", "ERR usage: LOAD <item> <int>"},
		{"LOAD x ten", "ERR bad int: …"},
		{"LOAD x 100", "OK loaded"},
		{"LOAD y 5", "OK loaded"},
		{"READ", "ERR usage: READ <item>"},
		{"READ x", "OK certain 100"},
		{"SUBMIT", "ERR usage: SUBMIT <program>"},
		{"SUBMIT x = x +", "ERR expr: …"},
		{"SUBMIT x = x - 30 if x >= 30; y = y + 30 if x >= 30", "OK committed A…"},
		{"READ x", "OK certain 70"},
		{"READ y", "OK certain 35"},
		// A false guard is a committed no-op; a guard that is not a
		// boolean refuses the transaction.
		{"SUBMIT x = x - 1000 if x >= 1000", "OK committed A…"},
		{"SUBMIT x = x - 1 if x", "OK aborted A…"},
		{"READ x", "OK certain 70"},
		{"ASYNC", "ERR usage: ASYNC <program>"},
		{"POLY", "OK 0 "},
		{"QUERY", "ERR usage: QUERY <expr>"},
		{"QUERY x", "OK certain 70"},
		{"QUERY x + y", "OK certain 105"},
		{"CRASHPOINTS", "OK"},
		{"FAULT", "ERR usage: FAULT …"},
		{"FAULT status", "OK"},
		{"DISKFAULT status", "ERR disk-fault plane disabled (start with -data)"},
		{"SPANS", "ERR span tracing disabled (start with -spans N)"},
		{"STATS", "OK"},
		{"FROB x", "ERR unknown command FROB"},
	} {
		out := s.execute(tc.cmd)
		got := out[len(out)-1]
		for _, l := range out[:len(out)-1] {
			if !strings.HasPrefix(l, "| ") {
				t.Errorf("%q: continuation line %q lacks the \"| \" prefix", tc.cmd, l)
			}
		}
		if prefix, ok := strings.CutSuffix(tc.want, "…"); ok {
			if !strings.HasPrefix(got, prefix) {
				t.Errorf("%q: got %q, want prefix %q", tc.cmd, got, prefix)
			}
		} else if got != tc.want {
			t.Errorf("%q: got %q, want %q", tc.cmd, got, tc.want)
		}
	}
	if st := strings.Join(s.execute("STATS"), "\n"); !strings.Contains(st, "committed=2 aborted=1") {
		t.Errorf("STATS does not count 2 commits and 1 abort:\n%s", st)
	}
}

// TestSubmitShed pins what a load client sees when the admission gate
// sheds: with one credit and a transaction parked on an unreachable
// peer, the next SUBMIT answers at once with the overload error —
// polybench retries on exactly this text.
func TestSubmitShed(t *testing.T) {
	peers := map[protocol.SiteID]string{"A": "127.0.0.1:0", "B": "127.0.0.1:1"}
	place, err := parsePlacement("near=A,far=B", peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, cluster.Config{AdmissionLimit: 1, Placement: place}, peers)
	if out := s.execute("LOAD near 1"); out[0] != "OK loaded" {
		t.Fatalf("LOAD: %v", out)
	}
	// A non-owner refuses LOAD with this text; polybench, which sends every
	// LOAD to every node, tolerates exactly it.
	if out := s.execute("LOAD far 1"); !strings.HasPrefix(out[0], "ERR ") || !strings.Contains(out[0], "remote site") {
		t.Fatalf("LOAD at a non-owner: %v", out)
	}
	if out := s.execute("ASYNC far = far + 1"); !strings.HasPrefix(out[0], "OK submitted ") {
		t.Fatalf("ASYNC: %v", out)
	}
	want := "ERR " + cluster.ErrOverload.Error()
	if out := s.execute("SUBMIT near = near + 1"); out[0] != want || !strings.Contains(want, "request shed") {
		t.Fatalf("SUBMIT over the admission cap: got %v, want %q", out, want)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", " , ", "A", "A=", "=127.0.0.1:1", "A=:1,B"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
	peers, err := parsePeers("A=:1, B=:2")
	if err != nil || len(peers) != 2 || peers["B"] != ":2" {
		t.Fatalf("parsePeers: %v %v", peers, err)
	}
	for _, bad := range []string{"x", "x=", "=A", "x=C"} {
		if _, err := parsePlacement(bad, peers, 0); err == nil {
			t.Errorf("parsePlacement(%q) accepted", bad)
		}
	}
	if place, err := parsePlacement("", peers, 3); place != nil || err != nil {
		t.Errorf("empty -place: %v", err)
	}
	// Pins name physical items; under -replicas programs name logical ones.
	if _, err := parsePlacement("x=B", peers, 3); err == nil || !strings.Contains(err.Error(), "-replicas") {
		t.Errorf("-place with -replicas: %v", err)
	}
	place, err := parsePlacement("x=B", peers, 0)
	if err != nil || place("x") != "B" {
		t.Fatalf("parsePlacement: %v", err)
	}
	if got := place("unpinned"); got != "A" && got != "B" {
		t.Errorf("unpinned item placed at unknown site %q", got)
	}
}
