package fault

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// Kinds of disk rules.  Each applies to the operations on files whose
// path contains the rule's Path:
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
const (
	DiskFsync    = "fsync"
	DiskTorn     = "torn"
	DiskENOSPC   = "enospc"
	DiskReadFlip = "readflip"
	DiskSlow     = "slow"
)

// ErrInjected marks every error a Disk produces, so tests and harnesses
// can tell injected faults from real infrastructure failures.
var ErrInjected = errors.New("storage: injected disk fault")

// IsInjected reports whether err is (or wraps) an injected disk fault.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// DiskConfig parameterizes a Disk.
type DiskConfig struct {
	// Seed drives every probabilistic decision.  Equal seeds + equal
	// operation sequences ⇒ equal faults.
	Seed int64
	// Metrics, when set, receives storage.fault.injected{kind=...}
	// counters.
	Metrics *metrics.Registry
	// Logf, when set, receives one line per injected fault.
	Logf func(format string, args ...any)
}

// Disk implements storage.FS by delegating to an inner FS through the
// disk rules.  Safe for concurrent use.
type Disk struct {
	inner storage.FS
	cfg   DiskConfig
	ruleTable
}

// NewDisk builds a disk fault injector over inner (storage.OSFS when nil).
func NewDisk(inner storage.FS, cfg DiskConfig) *Disk {
	if inner == nil {
		inner = storage.OSFS
	}
	return &Disk{inner: inner, cfg: cfg, ruleTable: newRuleTable(cfg.Seed, cfg.Metrics, "storage.fault.injected")}
}

// Status renders the active plan and injection counts as stable text.
func (d *Disk) Status() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var b strings.Builder
	if len(d.rules) == 0 {
		b.WriteString("no active disk faults\n")
	}
	d.writeRules(&b)
	d.writeCounts(&b)
	return b.String()
}

// Apply parses and executes one disk fault command (see plan.go),
// returning a one-line human-readable result.  The same grammar serves
// the polynode control port's DISKFAULT verb and the -disk-faults
// startup flag.
func (d *Disk) Apply(cmd string) (string, error) {
	return diskGrammar.apply(d, cmd, nil)
}

// ApplyPlan executes a whole disk plan (see applyPlan).
func (d *Disk) ApplyPlan(plan string) error { return applyPlan(plan, d.Apply) }

// drawPath samples the kind rules for path; a hit counts and logs.
func (d *Disk) drawPath(kind, path string) (time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delay, hit := d.draw(kind, func(r *Rule) bool { return r.onPath(path) })
	if hit {
		d.count(kind)
		if d.cfg.Logf != nil {
			d.cfg.Logf("diskfault: %s %s", kind, path)
		}
	}
	return delay, hit
}

func (d *Disk) hit(kind, path string) bool {
	_, hit := d.drawPath(kind, path)
	return hit
}

// stall sleeps a slow-rule delay for one operation on path, if any.
func (d *Disk) stall(path string) {
	if delay, _ := d.drawPath(DiskSlow, path); delay > 0 {
		time.Sleep(delay)
	}
}

// --- storage.FS surface -----------------------------------------------

func (d *Disk) OpenAppend(path string) (storage.File, error) {
	inner, err := d.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{disk: d, inner: inner, path: path, tornAt: -1}, nil
}

// ReadFile damages the bytes it returns, not the medium: the fault is in
// the read path (page cache, bus, firmware), so a later re-read may come
// back clean — exactly the transient corruption recovery must survive.
func (d *Disk) ReadFile(path string) ([]byte, error) {
	d.stall(path)
	data, err := d.inner.ReadFile(path)
	if err != nil || len(data) == 0 || !d.hit(DiskReadFlip, path) {
		return data, err
	}
	d.mu.Lock()
	i := d.rng.Intn(len(data))
	d.mu.Unlock()
	data[i] ^= 0xFF
	return data, nil
}

func (d *Disk) CreateTemp(dir, pattern string) (storage.File, error) {
	inner, err := d.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{disk: d, inner: inner, path: inner.Name(), tornAt: -1}, nil
}

func (d *Disk) Rename(oldpath, newpath string) error {
	return d.inner.Rename(oldpath, newpath)
}

func (d *Disk) Remove(path string) error { return d.inner.Remove(path) }

func (d *Disk) Truncate(path string, size int64) error {
	return d.inner.Truncate(path, size)
}

func (d *Disk) SyncDir(dir string) error {
	d.stall(dir)
	if d.hit(DiskFsync, dir) {
		return fmt.Errorf("%w: fsync failure on dir %s: %w", ErrInjected, dir, syscall.EIO)
	}
	return d.inner.SyncDir(dir)
}

var _ storage.FS = (*Disk)(nil)

// faultFile interposes write/sync faults on one open file.  A torn
// write leaves a real fragment on disk and remembers its offset, so the
// next write truncates it first — the same repair crash recovery
// performs — keeping the file parseable for whoever reopens it.
type faultFile struct {
	disk  *Disk
	inner storage.File
	path  string

	mu     sync.Mutex
	tornAt int64
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.disk.stall(f.path)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tornAt >= 0 {
		if err := f.inner.Truncate(f.tornAt); err != nil {
			return 0, fmt.Errorf("storage: truncate injected torn tail: %w", err)
		}
		f.tornAt = -1
	}
	if f.disk.hit(DiskENOSPC, f.path) {
		return 0, fmt.Errorf("%w: write on %s: %w", ErrInjected, f.path, syscall.ENOSPC)
	}
	if f.disk.hit(DiskTorn, f.path) {
		if st, err := f.inner.Stat(); err == nil {
			f.tornAt = st.Size()
		}
		n, werr := f.inner.Write(p[:len(p)/2])
		serr := f.inner.Sync()
		err := fmt.Errorf("%w: %w on %s", ErrInjected, storage.ErrTornWrite, f.path)
		if werr != nil || serr != nil {
			err = fmt.Errorf("%w (write: %v, sync: %v)", err, werr, serr)
		}
		return n, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	f.disk.stall(f.path)
	if f.disk.hit(DiskFsync, f.path) {
		return fmt.Errorf("%w: fsync failure on %s: %w", ErrInjected, f.path, syscall.EIO)
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error               { return f.inner.Close() }
func (f *faultFile) Truncate(size int64) error  { return f.inner.Truncate(size) }
func (f *faultFile) Stat() (os.FileInfo, error) { return f.inner.Stat() }
func (f *faultFile) Name() string               { return f.inner.Name() }

var _ storage.File = (*faultFile)(nil)
