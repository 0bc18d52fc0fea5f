package storage_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/polyvalue"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// recordFS wraps an FS and records SyncDir calls, for asserting the
// rename-durability discipline (satellite: parent-dir fsync).
type recordFS struct {
	storage.FS
	mu       sync.Mutex
	dirSyncs []string
}

func (r *recordFS) SyncDir(dir string) error {
	r.mu.Lock()
	r.dirSyncs = append(r.dirSyncs, dir)
	r.mu.Unlock()
	return r.FS.SyncDir(dir)
}

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "site.wal")
}

func TestFaultFSFsyncOneShot(t *testing.T) {
	ffs := fault.NewDisk(storage.OSFS, fault.DiskConfig{Seed: 1})
	ffs.SetRule(fault.Rule{Kind: fault.DiskFsync, P: 1, Once: true})
	log, err := storage.OpenFileLogFS(ffs, tmpLog(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); !fault.IsInjected(err) {
		t.Fatalf("want injected fsync failure, got %v", err)
	}
	// fsyncgate: the failure is sticky on the FileLog even though the
	// rule was one-shot — the page cache can no longer be trusted.
	if err := log.Sync(); err == nil {
		t.Fatal("sticky error not reported on second sync")
	}
	if _, err := log.Write([]byte("x")); err == nil {
		t.Fatal("sticky error not reported on write after failed sync")
	}
	if got := ffs.Counts()[fault.DiskFsync]; got != 1 {
		t.Fatalf("injected count = %d, want 1 (one-shot rule)", got)
	}
}

func TestFaultFSENOSPCAndStickyRule(t *testing.T) {
	ffs := fault.NewDisk(storage.OSFS, fault.DiskConfig{Seed: 2})
	ffs.SetRule(fault.Rule{Kind: fault.DiskENOSPC, P: 1, Sticky: true})
	log, err := storage.OpenFileLogFS(ffs, tmpLog(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Write([]byte("hello")); !fault.IsInjected(err) {
		t.Fatalf("want injected ENOSPC, got %v", err)
	}
	if got := ffs.Counts()[fault.DiskENOSPC]; got != 1 {
		t.Fatalf("injected count = %d, want 1", got)
	}
	// Sticky rule stays armed; sticky FileLog error fires first anyway.
	if _, err := log.Write([]byte("world")); err == nil {
		t.Fatal("write after ENOSPC must fail")
	}
}

func TestFaultFSTornWriteRecoversAsTornTail(t *testing.T) {
	path := tmpLog(t)
	ffs := fault.NewDisk(storage.OSFS, fault.DiskConfig{Seed: 3})
	s, log, _, err := storage.OpenFileStoreFS(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", polyvalue.Simple(value.Int(1))); err != nil {
		t.Fatal(err)
	}
	ffs.SetRule(fault.Rule{Kind: fault.DiskTorn, P: 1, Once: true})
	err = s.Put("b", polyvalue.Simple(value.Int(2)))
	if !storage.IsTornWrite(err) || !fault.IsInjected(err) {
		t.Fatalf("want injected torn write, got %v", err)
	}
	log.Close()
	// Reopen: recovery must drop the torn fragment and keep "a".
	s2, log2, stats, err := storage.OpenFileStoreFS(fault.NewDisk(storage.OSFS, fault.DiskConfig{Seed: 3}), path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if stats.TornBytes == 0 {
		t.Fatal("expected a torn tail to be dropped")
	}
	if v, ok := s2.Get("a").IsCertain(); !ok || !v.Equal(value.Int(1)) {
		t.Fatalf("item a = %v after torn-write recovery, want 1", s2.Get("a"))
	}
	if s2.Has("b") {
		t.Fatal("torn record b must not survive recovery")
	}
}

func TestFaultFSReadFlipTransientHealsOnReread(t *testing.T) {
	path := tmpLog(t)
	s, log, err := storage.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put("item"+string(rune('a'+i)), polyvalue.Simple(value.Int(7))); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(path)
	// One-shot read flip: the first read pass is damaged, the re-read
	// comes back clean — recovery must trust the medium, not the first
	// read, and must not truncate the file.
	ffs := fault.NewDisk(storage.OSFS, fault.DiskConfig{Seed: 4})
	ffs.SetRule(fault.Rule{Kind: fault.DiskReadFlip, P: 1, Once: true})
	s2, log2, stats, err := storage.OpenFileStoreFS(ffs, path)
	if err != nil {
		t.Fatalf("transient read corruption must recover: %v", err)
	}
	defer log2.Close()
	if stats.CorruptReads == 0 {
		t.Fatal("corrupt read pass not counted")
	}
	if len(s2.Items()) != 8 {
		t.Fatalf("recovered %d items, want 8", len(s2.Items()))
	}
	got, _ := os.ReadFile(path)
	if len(got) != len(want) {
		t.Fatalf("on-disk log resized %d -> %d by a transient read flip", len(want), len(got))
	}
}

func TestFaultFSPersistentCorruptionQuarantines(t *testing.T) {
	path := tmpLog(t)
	s, log, err := storage.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.SetOutcome(txn.ID(fmt.Sprintf("T%d", i)), true); err != nil {
			t.Fatal(err)
		}
	}
	log.Close()
	// Damage the medium itself, mid-stream.
	data, _ := os.ReadFile(path)
	data[len(data)/3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, stats, err := storage.OpenFileStoreFS(storage.OSFS, path)
	if !errors.Is(err, storage.ErrCorruptRecord) {
		t.Fatalf("persistent mid-stream corruption must refuse, got %v", err)
	}
	if stats.Quarantined == "" {
		t.Fatal("damaged image not quarantined")
	}
	q, qerr := os.ReadFile(stats.Quarantined)
	if qerr != nil || len(q) != len(data) {
		t.Fatalf("quarantine file bad: %v (%d bytes, want %d)", qerr, len(q), len(data))
	}
}

func TestFaultFSSlowDelays(t *testing.T) {
	ffs := fault.NewDisk(storage.OSFS, fault.DiskConfig{Seed: 5})
	ffs.SetRule(fault.Rule{Kind: fault.DiskSlow, P: 1, MinDelay: 20 * time.Millisecond, MaxDelay: 20 * time.Millisecond})
	log, err := storage.OpenFileLogFS(ffs, tmpLog(t))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	start := time.Now()
	if _, err := log.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("slow rule did not stall: write took %s", d)
	}
}

// TestFaultFSOnceSlowDelays: a one-shot slow rule stalls its one
// operation by its own delay, even when another rule follows it in the
// plan.
func TestFaultFSOnceSlowDelays(t *testing.T) {
	ffs := fault.NewDisk(storage.OSFS, fault.DiskConfig{Seed: 5})
	ffs.SetRule(fault.Rule{Kind: fault.DiskSlow, P: 1, Once: true, MinDelay: 20 * time.Millisecond})
	ffs.SetRule(fault.Rule{Kind: fault.DiskENOSPC, P: 0.001})
	log, err := storage.OpenFileLogFS(ffs, tmpLog(t))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	start := time.Now()
	if _, err := log.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("one-shot slow rule did not stall: write took %s", d)
	}
}

func TestFaultFSDeterministicWithSeed(t *testing.T) {
	run := func() []string {
		ffs := fault.NewDisk(storage.OSFS, fault.DiskConfig{Seed: 42})
		ffs.SetRule(fault.Rule{Kind: fault.DiskFsync, P: 0.5})
		// The raw file has no sticky FileLog error: this probes the
		// injector's PRNG stream, not the discipline.
		f, err := ffs.OpenAppend(tmpLog(t))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var outcomes []string
		for i := 0; i < 20; i++ {
			if err := f.Sync(); err != nil {
				outcomes = append(outcomes, "fail")
			} else {
				outcomes = append(outcomes, "ok")
			}
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded schedules diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestFaultFSPathMatching(t *testing.T) {
	ffs := fault.NewDisk(storage.OSFS, fault.DiskConfig{Seed: 6})
	ffs.SetRule(fault.Rule{Kind: fault.DiskFsync, Path: "A.wal", P: 1})
	dir := t.TempDir()
	la, err := storage.OpenFileLogFS(ffs, filepath.Join(dir, "A.wal"))
	if err != nil {
		t.Fatal(err)
	}
	lb, err := storage.OpenFileLogFS(ffs, filepath.Join(dir, "B.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := lb.Sync(); err != nil {
		t.Fatalf("rule for A.wal hit B.wal: %v", err)
	}
	if err := la.Sync(); !fault.IsInjected(err) {
		t.Fatalf("rule for A.wal missed A.wal: %v", err)
	}
}

func TestDiskPlanGrammar(t *testing.T) {
	ffs := fault.NewDisk(storage.OSFS, fault.DiskConfig{Seed: 7})
	plan := `
		# storm
		fsync path=A.wal p=1 once
		torn p=0.2; enospc p=0.1 sticky
		slow p=0.3 min=1ms max=10ms
		readflip p=1 once
	`
	if err := ffs.ApplyPlan(plan); err != nil {
		t.Fatal(err)
	}
	status := ffs.Status()
	for _, want := range []string{"fsync path=A.wal p=1 once", "torn path=* p=0.2", "enospc path=* p=0.1 sticky", "slow path=* p=0.3 min=1ms max=10ms", "readflip path=* p=1 once"} {
		if !strings.Contains(status, want) {
			t.Fatalf("status missing %q:\n%s", want, status)
		}
	}
	// p=0 removes; clear empties; bad commands error.
	if _, err := ffs.Apply("torn p=0"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ffs.Status(), "torn") {
		t.Fatal("p=0 did not remove the torn rule")
	}
	if _, err := ffs.Apply("clear"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ffs.Status(), "no active disk faults") {
		t.Fatal("clear left rules behind")
	}
	for _, badCmd := range []string{"", "bogus p=1", "fsync", "fsync p=2", "slow p=1", "slow p=1 min=5ms max=1ms", "seed"} {
		if _, err := ffs.Apply(badCmd); err == nil {
			t.Fatalf("command %q should fail", badCmd)
		}
	}
}

func TestCheckpointFileSyncsParentDir(t *testing.T) {
	rfs := &recordFS{FS: storage.OSFS}
	path := tmpLog(t)
	s, log, _, err := storage.OpenFileStoreFS(rfs, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", polyvalue.Simple(value.Int(1))); err != nil {
		t.Fatal(err)
	}
	_, log2, err := storage.CheckpointFile(s, log)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	rfs.mu.Lock()
	defer rfs.mu.Unlock()
	if len(rfs.dirSyncs) == 0 {
		t.Fatal("checkpoint rename not followed by parent-directory fsync")
	}
	if want := filepath.Dir(path); rfs.dirSyncs[0] != want {
		t.Fatalf("synced dir %q, want %q", rfs.dirSyncs[0], want)
	}
}

func TestFileLogTornPathReportsUnderlyingFailures(t *testing.T) {
	// Satellite: the TearNext path used to swallow both the short-write
	// error and the sync error.  Inject an fsync failure underneath an
	// armed tear and require it to surface and stick.
	ffs := fault.NewDisk(storage.OSFS, fault.DiskConfig{Seed: 8})
	log, err := storage.OpenFileLogFS(ffs, tmpLog(t))
	if err != nil {
		t.Fatal(err)
	}
	ffs.SetRule(fault.Rule{Kind: fault.DiskFsync, P: 1, Once: true})
	log.TearNext()
	_, err = log.Write([]byte("0123456789"))
	if !storage.IsTornWrite(err) {
		t.Fatalf("want torn write, got %v", err)
	}
	if !strings.Contains(err.Error(), "injected disk fault") {
		t.Fatalf("underlying fsync failure swallowed by tear: %v", err)
	}
	if log.Err() == nil {
		t.Fatal("fsync failure under a tear must be sticky")
	}
}
