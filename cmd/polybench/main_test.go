package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// freeAddrs reserves n loopback ports, then releases them for the nodes
// to bind.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// bootCluster starts three polynode processes on loopback with the given
// extra flags and returns their -control list.  The processes are killed
// when the test ends, and their logs shown if it failed.
func bootCluster(t *testing.T, bin string, flags ...string) string {
	t.Helper()
	addrs := freeAddrs(t, 6)
	control := addrs[3:]
	var peers []string
	for i, a := range addrs[:3] {
		peers = append(peers, fmt.Sprintf("s%d=%s", i, a))
	}
	for i := range control {
		site := fmt.Sprintf("s%d", i)
		var log bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-site", site, "-peers", strings.Join(peers, ","), "-control", control[i]}, flags...)...)
		cmd.Stdout, cmd.Stderr = &log, &log
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
			if t.Failed() {
				t.Logf("node %s:\n%s", site, log.String())
			}
		})
	}
	// A node listens on its control port last, so once all three accept
	// the cluster is up.
	for _, a := range control {
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			conn, err := net.Dial("tcp", a)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node at %s never listened: %v", a, err)
			}
		}
	}
	return strings.Join(control, ",")
}

// TestEndToEnd drives real 3-process clusters through their control
// ports: 300 seeded bank transactions per case, every one decided, a
// clean audit, and a JSON line that parses.
func TestEndToEnd(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "polynode")
	if out, err := exec.Command("go", "build", "-o", bin, "../polynode").CombinedOutput(); err != nil {
		t.Fatalf("go build ../polynode: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		name     string
		flags    []string
		wantShed bool
	}{
		{name: "default"},
		{name: "paxos", flags: []string{"-decision-plane", "paxos"}},
		{name: "replicas3", flags: []string{"-replicas", "3"}},
		// One credit per site under five workers per site: submissions
		// are shed and retried, and every transaction still gets decided.
		{name: "admission1", flags: []string{"-admission", "1"}, wantShed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := options{
				control: bootCluster(t, bin, tc.flags...),
				kind:    "bank", items: 64, seed: 7, txns: 300, workers: 16,
				waitTxn: 20 * time.Second, settle: 15 * time.Second,
			}
			var out bytes.Buffer
			if err := run(opt, &out); err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the JSON result: %v\n%s", err, out.String())
			}
			if res.Committed+res.Aborted != opt.txns || res.Timeouts != 0 || res.Committed == 0 {
				t.Errorf("undecided transactions: %+v", res)
			}
			if res.Audit != "ok" || res.CommitTPS <= 0 || res.P50 <= 0 || res.P99 < res.P50 {
				t.Errorf("bad result: %+v", res)
			}
			if (res.Shed > 0) != tc.wantShed {
				t.Errorf("shed = %d, want shed: %v", res.Shed, tc.wantShed)
			}
		})
	}
}

func TestRunRejects(t *testing.T) {
	for _, opt := range []options{
		{workers: 1, txns: 1, kind: "bank", items: 4},                             // no -control
		{control: "127.0.0.1:1", workers: 1, txns: 1, kind: "overload", items: 4}, // retired workload
		{control: "127.0.0.1:1", workers: 1, txns: 1, kind: "bank", items: 4},     // nobody listening
	} {
		if err := run(opt, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%+v) succeeded", opt)
		}
	}
}
