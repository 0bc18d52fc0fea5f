// Disk fault plane: the FS seam every durable-storage code path goes
// through, plus FaultFS — a seeded, declarative fault injector over any
// FS, mirroring the transport plane's fault.Injector.  Rules are
// per-path (substring match) and per-operation:
//
//	fsync   — File.Sync / SyncDir fails (the fsyncgate scenario: the
//	          kernel may already have dropped the dirty pages)
//	torn    — a Write persists only a prefix of its bytes and fails,
//	          the on-disk image a power cut mid-append leaves behind
//	          (generalizing FileLog.TearNext to a probabilistic plane)
//	enospc  — a Write fails up front with ENOSPC, nothing persisted
//	readflip— ReadFile flips one byte of the returned data (latent
//	          sector corruption / page-cache damage on the read path;
//	          the medium itself is untouched, so a re-read can differ)
//	slow    — writes, syncs and reads stall for a uniform duration
//	          (gray failure: the disk that is not dead, just dying)
//
// One seeded PRNG drives every probabilistic decision, so a fixed seed
// and a fixed schedule of operations injects the same faults the same
// way.  Rules may be one-shot (Once: disarm after the first hit) or
// sticky (after the first hit the rule fires on every later match —
// a failed sector stays failed).
package storage

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// ErrInjected marks every error produced by FaultFS, so tests and
// harnesses can tell injected faults from real infrastructure failures.
var ErrInjected = errors.New("storage: injected disk fault")

// IsInjected reports whether err is (or wraps) an injected disk fault.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// File is the subset of *os.File the storage layer writes through.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Name() string
}

// FS abstracts the file operations FileLog, OpenFileStore and
// CheckpointFile perform, so a fault injector (FaultFS) can interpose
// on every byte headed to or from the durable medium.  OSFS is the real
// filesystem.
type FS interface {
	// OpenAppend opens (creating if needed) path for appending.
	OpenAppend(path string) (File, error)
	// ReadFile reads the whole file; a missing file returns an error
	// satisfying os.IsNotExist.
	ReadFile(path string) ([]byte, error)
	// CreateTemp creates a new temp file in dir (pattern as os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// Truncate shortens the file at path to size bytes.
	Truncate(path string, size int64) error
	// SyncDir fsyncs the directory itself, making renames within it
	// durable (a rename without it can be lost to a power cut).
	SyncDir(dir string) error
}

// osFS is the passthrough FS over the real filesystem.
type osFS struct{}

// OSFS is the real filesystem; the default when no fault plane is
// configured.
var OSFS FS = osFS{}

func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}
func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) Truncate(path string, size int64) error {
	return os.Truncate(path, size)
}
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir for sync: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("storage: sync dir %s: %w", dir, err)
	}
	return d.Close()
}

// Disk fault kinds.
const (
	DiskFsync    = "fsync"
	DiskTorn     = "torn"
	DiskENOSPC   = "enospc"
	DiskReadFlip = "readflip"
	DiskSlow     = "slow"
)

// DiskRule is one probabilistic disk fault: with probability P, apply
// Kind to operations touching any path containing Path ("" or "*"
// matches every path).
type DiskRule struct {
	Kind string
	Path string
	P    float64
	// Once disarms the rule after its first hit — the transient fault
	// (a single failed fsync, one damaged read).
	Once bool
	// Sticky converts the rule to always-fire after its first hit — the
	// persistent fault (a sector that stays bad, a disk that stays
	// full).  Overrides Once.
	Sticky bool
	// MinDelay/MaxDelay bound the stall of a slow rule.
	MinDelay time.Duration
	MaxDelay time.Duration

	// stuck marks a sticky rule that has fired.
	stuck bool
}

func (r DiskRule) matches(path string) bool {
	return r.Path == "" || r.Path == "*" || strings.Contains(path, r.Path)
}

func (r DiskRule) String() string {
	s := fmt.Sprintf("%s path=%s p=%g", r.Kind, orStar(r.Path), r.P)
	if r.Kind == DiskSlow {
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

func orStar(p string) string {
	if p == "" {
		return "*"
	}
	return p
}

// FaultFSConfig parameterizes a FaultFS.
type FaultFSConfig struct {
	// Seed drives every probabilistic decision.  Equal seeds + equal
	// operation sequences ⇒ equal faults.
	Seed int64
	// Metrics, when set, receives storage.fault.injected{kind=...}
	// counters.
	Metrics *metrics.Registry
	// Logf, when set, receives one line per injected fault.
	Logf func(format string, args ...any)
}

// FaultFS implements FS by delegating to an inner FS through a mutable
// disk-fault plan.  Safe for concurrent use.
type FaultFS struct {
	inner FS
	cfg   FaultFSConfig

	mu     sync.Mutex
	rng    *rand.Rand
	rules  []DiskRule
	counts map[string]int64
}

// NewFaultFS builds a fault injector over inner (OSFS when nil).
func NewFaultFS(inner FS, cfg FaultFSConfig) *FaultFS {
	if inner == nil {
		inner = OSFS
	}
	return &FaultFS{
		inner:  inner,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		counts: map[string]int64{},
	}
}

// SetRule installs r, replacing any existing rule with the same
// (Kind, Path).  P <= 0 removes the rule instead.
func (f *FaultFS) SetRule(r DiskRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, old := range f.rules {
		if old.Kind == r.Kind && old.Path == r.Path {
			if r.P <= 0 {
				f.rules = append(f.rules[:i], f.rules[i+1:]...)
			} else {
				f.rules[i] = r
			}
			return
		}
	}
	if r.P > 0 {
		f.rules = append(f.rules, r)
	}
}

// Clear removes every rule: the plan becomes a no-op.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Reseed restarts the PRNG (for reproducing a schedule mid-session).
func (f *FaultFS) Reseed(seed int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rng = rand.New(rand.NewSource(seed))
}

// Counts snapshots the per-kind injection counters.
func (f *FaultFS) Counts() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, len(f.counts))
	for k, v := range f.counts {
		out[k] = v
	}
	return out
}

// Status renders the active plan and injection counts as stable text.
func (f *FaultFS) Status() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var b strings.Builder
	if len(f.rules) == 0 {
		b.WriteString("no active disk faults\n")
	}
	for _, r := range f.rules {
		fmt.Fprintf(&b, "rule %s\n", r)
	}
	kinds := make([]string, 0, len(f.counts))
	for k := range f.counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "injected{kind=%s} %d\n", k, f.counts[k])
	}
	return b.String()
}

// hit samples the plan for one (kind, path) operation; a hit counts,
// logs, and advances the rule's one-shot/sticky state.
func (f *FaultFS) hit(kind, path string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.rules {
		r := &f.rules[i]
		if r.Kind != kind || !r.matches(path) {
			continue
		}
		if !r.stuck && f.rng.Float64() >= r.P {
			continue
		}
		if r.Sticky {
			r.stuck = true
		} else if r.Once {
			f.rules = append(f.rules[:i], f.rules[i+1:]...)
		}
		f.noteLocked(kind, path)
		return true
	}
	return false
}

// stall sleeps a slow-rule delay for one (path) operation, if any.
func (f *FaultFS) stall(path string) {
	f.mu.Lock()
	var d time.Duration
	for i := range f.rules {
		r := &f.rules[i]
		if r.Kind != DiskSlow || !r.matches(path) {
			continue
		}
		if !r.stuck && f.rng.Float64() >= r.P {
			continue
		}
		// Draw the delay before a one-shot rule is removed: r points into
		// f.rules, which the removal shifts.
		d = r.MinDelay
		if r.MaxDelay > r.MinDelay {
			d += time.Duration(f.rng.Int63n(int64(r.MaxDelay - r.MinDelay)))
		}
		if r.Sticky {
			r.stuck = true
		} else if r.Once {
			f.rules = append(f.rules[:i], f.rules[i+1:]...)
		}
		f.noteLocked(DiskSlow, path)
		break
	}
	f.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

func (f *FaultFS) noteLocked(kind, path string) {
	f.counts[kind]++
	if f.cfg.Metrics != nil {
		f.cfg.Metrics.Counter("storage.fault.injected", metrics.L("kind", kind)).Inc()
	}
	if f.cfg.Logf != nil {
		f.cfg.Logf("diskfault: %s %s", kind, path)
	}
}

// flip corrupts one byte of data in place with readflip-rule probability;
// reports whether it did.
func (f *FaultFS) flip(path string, data []byte) bool {
	if len(data) == 0 || !f.hit(DiskReadFlip, path) {
		return false
	}
	f.mu.Lock()
	i := f.rng.Intn(len(data))
	f.mu.Unlock()
	data[i] ^= 0xFF
	return true
}

// --- FS surface -------------------------------------------------------

func (f *FaultFS) OpenAppend(path string) (File, error) {
	inner, err := f.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, path: path, tornAt: -1}, nil
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	f.stall(path)
	data, err := f.inner.ReadFile(path)
	if err != nil {
		return data, err
	}
	// Flip a copy: the damage is in the read path (page cache, bus,
	// firmware), not on the medium, so a later re-read may come back
	// clean — exactly the transient corruption recovery must survive.
	if f.flip(path, data) {
		// data already mutated in place; ReadFile returned a private copy.
		return data, nil
	}
	return data, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, path: inner.Name(), tornAt: -1}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error { return f.inner.Remove(path) }

func (f *FaultFS) Truncate(path string, size int64) error {
	return f.inner.Truncate(path, size)
}

func (f *FaultFS) SyncDir(dir string) error {
	f.stall(dir)
	if f.hit(DiskFsync, dir) {
		return fmt.Errorf("%w: fsync failure on dir %s: %w", ErrInjected, dir, syscall.EIO)
	}
	return f.inner.SyncDir(dir)
}

var _ FS = (*FaultFS)(nil)

// faultFile interposes write/sync faults on one open file.  A torn
// write leaves a real fragment on disk and remembers its offset, so the
// next write truncates it first — the same repair crash recovery
// performs — keeping the file parseable for whoever reopens it.
type faultFile struct {
	fs    *FaultFS
	inner File
	path  string

	mu     sync.Mutex
	tornAt int64
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.stall(f.path)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tornAt >= 0 {
		if err := f.inner.Truncate(f.tornAt); err != nil {
			return 0, fmt.Errorf("storage: truncate injected torn tail: %w", err)
		}
		f.tornAt = -1
	}
	if f.fs.hit(DiskENOSPC, f.path) {
		return 0, fmt.Errorf("%w: write on %s: %w", ErrInjected, f.path, syscall.ENOSPC)
	}
	if f.fs.hit(DiskTorn, f.path) {
		if st, err := f.inner.Stat(); err == nil {
			f.tornAt = st.Size()
		}
		n, werr := f.inner.Write(p[:len(p)/2])
		serr := f.inner.Sync()
		err := fmt.Errorf("%w: %w on %s", ErrInjected, ErrTornWrite, f.path)
		if werr != nil || serr != nil {
			err = fmt.Errorf("%w (write: %v, sync: %v)", err, werr, serr)
		}
		return n, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	f.fs.stall(f.path)
	if f.fs.hit(DiskFsync, f.path) {
		return fmt.Errorf("%w: fsync failure on %s: %w", ErrInjected, f.path, syscall.EIO)
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error               { return f.inner.Close() }
func (f *faultFile) Truncate(size int64) error  { return f.inner.Truncate(size) }
func (f *faultFile) Stat() (os.FileInfo, error) { return f.inner.Stat() }
func (f *faultFile) Name() string               { return f.inner.Name() }

var _ File = (*faultFile)(nil)
