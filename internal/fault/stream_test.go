package fault

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/txn"
	"repro/internal/vclock"
)

// The pinned-stream tests fix what a seed draws.  Every other test that
// samples a rule compares two runs of the same tree, checks a range or
// checks an invariant, so a change to the order of PRNG draws would pass
// them all; these record the exact per-kind counts and a digest of every
// decision, so a seeded chaos schedule that moves fails here.

// clockedTransport records each delivery with the simulated instant it
// reached the wire.
type clockedTransport struct {
	clk vclock.Clock
	log []string
}

func (c *clockedTransport) Send(m protocol.Message) {
	c.log = append(c.log, fmt.Sprintf("%s %s->%s @%s", m.TID, m.From, m.To, c.clk.Now()))
}
func (c *clockedTransport) Register(protocol.SiteID, transport.Handler) {}
func (c *clockedTransport) SetDown(protocol.SiteID, bool)               {}
func (c *clockedTransport) IsDown(protocol.SiteID) bool                 { return false }
func (c *clockedTransport) Close() error                                { return nil }

func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func TestPinnedNetworkStream(t *testing.T) {
	sched := vclock.NewScheduler()
	inner := &clockedTransport{clk: sched}
	in := Wrap(inner, Config{Seed: 7, Clock: sched})
	if err := in.ApplyPlan("drop to=B p=0.2; dup p=0.1; delay p=0.3 min=1ms max=9ms; drop from=B p=0.5"); err != nil {
		t.Fatal(err)
	}
	sites := []protocol.SiteID{"A", "B", "C"}
	for i := 0; i < 300; i++ {
		in.Send(protocol.Message{
			Kind: protocol.MsgReady,
			TID:  txn.ID(fmt.Sprintf("t%d", i)),
			From: sites[i%3],
			To:   sites[(i+1+i/3%2)%3],
		})
		sched.RunUntil(sched.Now() + time.Millisecond)
	}
	sched.RunUntil(sched.Now() + time.Second)
	got := fmt.Sprintf("delivered=%d counts=%v digest=%s", len(inner.log), in.Counts(), digest(inner.log))
	const want = "delivered=256 counts=map[delay:78 drop:64 dup:20] digest=165fc87e12c44858"
	if got != want {
		t.Fatalf("seeded network stream moved:\n got  %s\n want %s", got, want)
	}
}

func TestPinnedDiskStream(t *testing.T) {
	dir := t.TempDir()
	d := NewDisk(storage.OSFS, DiskConfig{Seed: 9})
	if err := d.ApplyPlan("fsync p=0.3; enospc path=B p=0.2; torn p=0.1 sticky; readflip p=0.5 once"); err != nil {
		t.Fatal(err)
	}
	var files []storage.File
	for _, name := range []string{"A.wal", "B.wal"} {
		f, err := d.OpenAppend(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files = append(files, f)
	}
	var outcomes []string
	for i := 0; i < 200; i++ {
		f := files[i%2]
		n, werr := f.Write([]byte(fmt.Sprintf("record-%03d;", i)))
		serr := f.Sync()
		outcomes = append(outcomes, fmt.Sprintf("%d %s n=%d w=%v s=%v", i, filepath.Base(f.Name()), n, werr != nil, serr != nil))
	}
	for _, name := range []string{"A.wal", "B.wal"} {
		data, err := d.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		outcomes = append(outcomes, fmt.Sprintf("%s %x", name, sha256.Sum256(data)))
	}
	got := fmt.Sprintf("counts=%v digest=%s", d.Counts(), digest(outcomes))
	const want = "counts=map[enospc:16 fsync:57 readflip:1 torn:184] digest=3c560eaa9f8d7a80"
	if got != want {
		t.Fatalf("seeded disk stream moved:\n got  %s\n want %s", got, want)
	}
}
