package main

import (
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/polyvalue"
	"repro/internal/storage"
	"repro/internal/value"
)

// The sync filesystem is driven the way the durable workload drives it
// — a real storage WAL on top: append, sync, reopen, recover — over
// both the in-memory filesystem the benchmark uses and the real one.
func TestSyncFSUnderARealWAL(t *testing.T) {
	const delay = 2 * time.Millisecond
	for name, inner := range map[string]storage.FS{"memfs": newMemFS(), "osfs": storage.OSFS} {
		t.Run(name, func(t *testing.T) {
			armed := &atomic.Bool{}
			armed.Store(true)
			rec := &fsRecorder{armed: armed}
			fs := &syncFS{inner: inner, delay: delay, rec: rec}
			path := filepath.Join(t.TempDir(), "s0.wal")

			store, log, _, err := storage.OpenFileStoreFS(fs, path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := store.Put(accountName(i), polyvalue.Simple(value.Int(int64(100+i)))); err != nil {
					t.Fatal(err)
				}
			}
			t0 := time.Now()
			if err := log.Sync(); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(t0); took < delay {
				t.Errorf("Sync returned after %v, want ≥ the injected %v", took, delay)
			}
			if got := rec.syncs.Load(); got != 1 {
				t.Errorf("recorded %d syncs, want 1", got)
			}
			if rec.writes.Load() != 10 || rec.bytes.Load() != int64(store.WALSize()) {
				t.Errorf("recorded %d writes / %d bytes, want 10 / %d", rec.writes.Load(), rec.bytes.Load(), store.WALSize())
			}
			if len(rec.intervals) != 1 || rec.intervals[0].end-rec.intervals[0].start < int64(delay) {
				t.Errorf("sync intervals = %+v, want one of ≥ %v", rec.intervals, delay)
			}

			// Disarmed, the wrapper still delays but records nothing more.
			armed.Store(false)
			if err := log.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := rec.syncs.Load(); got != 1 {
				t.Errorf("disarmed recorder counted a sync (%d)", got)
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen: recovery reads the same bytes back through the wrapper.
			again, log2, stats, err := storage.OpenFileStoreFS(fs, path)
			if err != nil {
				t.Fatal(err)
			}
			defer log2.Close()
			if stats.TornBytes != 0 || stats.CorruptReads != 0 {
				t.Errorf("clean log recovered with repairs: %+v", stats)
			}
			for i := 0; i < 10; i++ {
				v, certain := again.Get(accountName(i)).IsCertain()
				if n, _ := value.AsInt(v); !certain || n != int64(100+i) {
					t.Errorf("recovered %s = %v (certain=%v), want %d", accountName(i), v, certain, 100+i)
				}
			}
		})
	}
}

// memFS must honour the storage layer's crash-repair calls: truncate a
// torn tail, and atomically replace a log via temp file + rename.
func TestMemFSRepairOperations(t *testing.T) {
	m := newMemFS()
	f, _ := m.OpenAppend("d/a.wal")
	f.Write([]byte("0123456789"))
	if err := m.Truncate("d/a.wal", 4); err != nil {
		t.Fatal(err)
	}
	if err := m.Truncate("d/a.wal", 99); err == nil {
		t.Error("truncate past the end succeeded")
	}
	tmp, _ := m.CreateTemp("d", ".wal-repair-*")
	tmp.Write([]byte("new"))
	if err := m.Rename(tmp.Name(), "d/a.wal"); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadFile("d/a.wal")
	if err != nil || string(got) != "new" {
		t.Errorf("after rename: %q, %v", got, err)
	}
	if st, _ := f.Stat(); st.Size() != 4 {
		t.Errorf("old handle sees %d bytes, want its own 4", st.Size())
	}
	if _, err := m.ReadFile("d/missing"); err == nil {
		t.Error("reading a missing file succeeded")
	}
	if err := m.Remove("d/a.wal"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("d/a.wal"); err == nil {
		t.Error("removing twice succeeded")
	}
}
