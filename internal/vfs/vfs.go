// Package vfs is the filesystem seam under the durability layer: an FS
// interface covering every file operation the WAL, segment and
// checkpoint code perform, and OS, the passthrough to the os package
// that every production path runs against. Tests hand the same code a
// fault-injecting FS (internal/fault) instead.
package vfs

import (
	"io"
	"os"
)

// File is the per-file surface the durability layer uses: the subset
// of *os.File the WAL and segment writers touch, so a fault injector
// can interpose on every byte that claims to be durable.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Name returns the path the file was opened with.
	Name() string
	// Seek repositions the read/write offset.
	Seek(offset int64, whence int) (int64, error)
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate changes the file's size.
	Truncate(size int64) error
}

// FS is the filesystem the durability layer performs all I/O through.
// OS is the passthrough production implementation; tests and chaos runs
// substitute a fault injector.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a new temporary file in dir (os.CreateTemp
	// semantics: pattern's "*" is replaced by a random string).
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads the whole file at name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the file at name.
	Remove(name string) error
	// MkdirAll creates a directory path and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory, sorted by filename.
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat describes the file at name.
	Stat(name string) (os.FileInfo, error)
	// SyncDir fsyncs a directory so renames and creations inside it
	// are durable.
	SyncDir(dir string) error
}

// OS is the passthrough FS: every call delegates straight to the os
// package. It is the default everywhere an FS is optional.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Or returns fsys when non-nil and the OS passthrough otherwise — the
// idiom every FS-threaded constructor uses to default its parameter.
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}
