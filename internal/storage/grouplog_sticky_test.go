package storage_test

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/storage"
)

// TestGroupLogStickyFsyncFailure pins the fsyncgate contract: after one
// injected fsync failure, every parked waiter fails, every later append
// fails, and no later wait reports clean — the group log is dead for the
// rest of the incarnation, and recovery must come from disk.
func TestGroupLogStickyFsyncFailure(t *testing.T) {
	ffs := fault.NewDisk(storage.OSFS, fault.DiskConfig{Seed: 11})
	f, err := storage.OpenFileLogFS(ffs, filepath.Join(t.TempDir(), "group.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A slow first disk operation holds the flusher back long enough for
	// every waiter to park on the one flush that is going to fail.
	ffs.SetRule(fault.Rule{Kind: fault.DiskSlow, P: 1, Once: true, MinDelay: 50 * time.Millisecond})
	ffs.SetRule(fault.Rule{Kind: fault.DiskFsync, P: 1, Once: true})
	g := storage.NewGroupLog(f)
	defer g.Close()

	// Park several waiters on frames that will never sync.
	const waiters = 4
	var seqs []uint64
	for i := 0; i < waiters; i++ {
		if _, err := g.Write([]byte("frame")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		seqs = append(seqs, g.Seq())
	}
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for _, seq := range seqs {
		wg.Add(1)
		go func(seq uint64) {
			defer wg.Done()
			errs <- g.WaitSynced(seq)
		}(seq)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("a parked waiter was released clean across a failed fsync")
		}
		if !fault.IsInjected(err) {
			t.Fatalf("waiter error should carry the injected fault: %v", err)
		}
	}

	// The rule was one-shot, but the failure is sticky: later appends
	// and waits must keep failing even though the disk is healthy again.
	if _, err := g.Write([]byte("after")); err == nil {
		t.Fatal("append after failed fsync must fail")
	}
	if err := g.WaitSynced(g.Seq()); err == nil {
		t.Fatal("WaitSynced reported clean after a failed fsync")
	}
}
