// The FS seam: every durable-storage code path reads and writes
// through an FS, so a fault injector (fault.Disk) can interpose on every
// byte headed to or from the durable medium.
package storage

import (
	"fmt"
	"io"
	"os"
)

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
// CheckpointFile perform.  OSFS is the real filesystem.
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
