package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/storage"
)

// memFS is a storage.FS held entirely in this process's memory.  The
// durable workload runs its WALs on it so that no device, page cache or
// filesystem journal is inside the measurement (the noise that sank the
// earlier real-fsync benchmark), and so that the benchmark writes
// nothing outside its checkout.  Files are append-only byte slices;
// Sync is a no-op — the cost of a sync is injected above, by syncFS.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData
	temps int
}

type memData struct {
	mu sync.Mutex
	b  []byte
}

func newMemFS() *memFS { return &memFS{files: map[string]*memData{}} }

func (m *memFS) open(path string, create bool) *memData {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[path]
	if d == nil && create {
		d = &memData{}
		m.files[path] = d
	}
	return d
}

func (m *memFS) OpenAppend(path string) (storage.File, error) {
	return &memFile{name: path, d: m.open(path, true)}, nil
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	d := m.open(path, false)
	if d == nil {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.b...), nil
}

func (m *memFS) CreateTemp(dir, pattern string) (storage.File, error) {
	m.mu.Lock()
	m.temps++
	name := filepath.Join(dir, fmt.Sprintf("%s%d", pattern, m.temps))
	d := &memData{}
	m.files[name] = d
	m.mu.Unlock()
	return &memFile{name: name, d: d}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[oldpath]
	if d == nil {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = d
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[path] == nil {
		return &os.PathError{Op: "remove", Path: path, Err: os.ErrNotExist}
	}
	delete(m.files, path)
	return nil
}

func (m *memFS) Truncate(path string, size int64) error {
	d := m.open(path, false)
	if d == nil {
		return &os.PathError{Op: "truncate", Path: path, Err: os.ErrNotExist}
	}
	return d.truncate(size)
}

func (m *memFS) SyncDir(string) error { return nil }

func (d *memData) truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if size < 0 || size > int64(len(d.b)) {
		return fmt.Errorf("memfs: truncate to %d outside [0,%d]", size, len(d.b))
	}
	d.b = d.b[:size]
	return nil
}

// memFile is one open handle.  A handle opened before a Rename replaced
// its path keeps writing to the old bytes, as an os.File would.
type memFile struct {
	name string
	d    *memData
}

func (f *memFile) Write(p []byte) (int, error) {
	f.d.mu.Lock()
	f.d.b = append(f.d.b, p...)
	f.d.mu.Unlock()
	return len(p), nil
}
func (f *memFile) Sync() error               { return nil }
func (f *memFile) Close() error              { return nil }
func (f *memFile) Truncate(size int64) error { return f.d.truncate(size) }
func (f *memFile) Name() string              { return f.name }
func (f *memFile) Stat() (os.FileInfo, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	return memInfo{name: filepath.Base(f.name), size: int64(len(f.d.b))}, nil
}

type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() os.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }

// syncFS is the benchmark's storage.FS wrapper: every File.Sync sleeps
// a fixed delay and then delegates, writes pass through undelayed.  The
// delay stands in for a device with a constant sync time, so the
// durable workload measures the storage layer's own work (framing,
// group commit, output commit) and not the sandbox's disk.  With rec
// set (traced runs only) it also counts calls and records every sync's
// interval for the critical-path reconstruction.
type syncFS struct {
	inner storage.FS
	delay time.Duration
	rec   *fsRecorder
}

// fsRecorder is the traced-run view of one site's WAL filesystem.  It
// records only while armed is set (the measured window).
type fsRecorder struct {
	armed                *atomic.Bool
	syncs, writes, bytes atomic.Int64
	busyNS               atomic.Int64 // time inside Write and Sync calls

	mu        sync.Mutex
	intervals []interval // one per Sync, in call order
}

// interval is a half-open span of monotonic nanoseconds (see nowNS).
type interval struct{ start, end int64 }

func (s *syncFS) wrap(f storage.File, err error) (storage.File, error) {
	if err != nil {
		return nil, err
	}
	return &syncFile{File: f, fs: s}, nil
}

func (s *syncFS) OpenAppend(path string) (storage.File, error) {
	return s.wrap(s.inner.OpenAppend(path))
}
func (s *syncFS) CreateTemp(dir, pattern string) (storage.File, error) {
	return s.wrap(s.inner.CreateTemp(dir, pattern))
}
func (s *syncFS) ReadFile(path string) ([]byte, error)   { return s.inner.ReadFile(path) }
func (s *syncFS) Rename(oldpath, newpath string) error   { return s.inner.Rename(oldpath, newpath) }
func (s *syncFS) Remove(path string) error               { return s.inner.Remove(path) }
func (s *syncFS) Truncate(path string, size int64) error { return s.inner.Truncate(path, size) }
func (s *syncFS) SyncDir(dir string) error               { return s.inner.SyncDir(dir) }

type syncFile struct {
	storage.File
	fs *syncFS
}

func (f *syncFile) Write(p []byte) (int, error) {
	rec := f.fs.rec
	if rec == nil || !rec.armed.Load() {
		return f.File.Write(p)
	}
	t0 := nowNS()
	n, err := f.File.Write(p)
	rec.busyNS.Add(nowNS() - t0)
	rec.writes.Add(1)
	rec.bytes.Add(int64(n))
	return n, err
}

func (f *syncFile) Sync() error {
	rec := f.fs.rec
	if rec == nil || !rec.armed.Load() {
		time.Sleep(f.fs.delay)
		return f.File.Sync()
	}
	t0 := nowNS()
	time.Sleep(f.fs.delay)
	err := f.File.Sync()
	t1 := nowNS()
	rec.busyNS.Add(t1 - t0)
	rec.syncs.Add(1)
	rec.mu.Lock()
	rec.intervals = append(rec.intervals, interval{t0, t1})
	rec.mu.Unlock()
	return err
}

// processStart anchors every timestamp the harness records; nowNS is
// monotonic nanoseconds since then (time.Since reads the monotonic
// clock).
var processStart = time.Now()

func nowNS() int64 { return int64(time.Since(processStart)) }
