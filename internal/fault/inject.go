// Package fault is a deterministic, programmable fault injector for the
// filesystem seam under the durability layer (internal/vfs): an
// InjectFS executes seeded fault plans — fail-the-Nth-op, per-op-class
// probability, one-shot and sticky EIO/ENOSPC, short (torn) writes,
// fsyncs that lie, injected latency — in the spirit of the errorfs
// harnesses production stores use to validate crash recovery and
// graceful degradation.
//
// Only tests import it (the Makefile's vet target fails if anything
// that ships links it): they hand an InjectFS, whose plan is a list of
// Rule values, to the WAL, the segment writer, the store or the engine
// in place of vfs.OS:
//
//	&Rule{Path: "wal-*.log", Op: OpWrite, AfterN: 3, Err: syscall.ENOSPC, ShortWrite: true}
package fault

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"nlexplain/internal/vfs"
)

// Op classifies filesystem operations for rule matching and counting.
type Op string

// The op classes a Rule can target. OpAny matches every class.
const (
	OpOpen   Op = "open"   // OpenFile, CreateTemp
	OpRead   Op = "read"   // ReadFile, File.Read
	OpWrite  Op = "write"  // File.Write
	OpSync   Op = "sync"   // File.Sync, SyncDir
	OpRename Op = "rename" // Rename
	OpRemove Op = "remove" // Remove
	OpMeta   Op = "meta"   // ReadDir, Stat, MkdirAll
	OpAny    Op = "any"
)

// Sticky marks a Rule that keeps firing until the plan is replaced or
// healed (a persistently failed disk, not a transient hiccup).
const Sticky = -1

// Rule is one entry of a fault plan: when a filesystem operation
// matches the rule's op class and path glob, the rule decides — after
// skipping AfterN matches, with probability Prob, at most Count times —
// to inject its fault.
type Rule struct {
	// Op is the op class the rule applies to (OpAny = all).
	Op Op
	// Path is a filepath.Match glob tested against the operation's
	// base filename ("" matches everything). Rename and SyncDir match
	// on the destination / directory base name respectively.
	Path string
	// AfterN skips the first N matching operations; the rule arms on
	// the N+1th (fail-the-Nth-op schedules).
	AfterN int
	// Prob is the probability a matching armed operation faults;
	// 0 means always (probability 1).
	Prob float64
	// Count bounds how many times the rule fires: 0 means one-shot,
	// Sticky (-1) means it never exhausts.
	Count int
	// Err is the injected error; nil selects syscall.EIO. Writes
	// typically inject syscall.ENOSPC.
	Err error
	// ShortWrite makes a faulted write persist roughly half the buffer
	// before returning the error — a torn write, the crash shape WAL
	// recovery must truncate away.
	ShortWrite bool
	// SilentSync makes a faulted sync return success WITHOUT syncing
	// (an fsync that lies). No error is observable; the damage shows
	// up only if the process dies before a later honest sync.
	SilentSync bool
	// Latency is injected before the operation proceeds (fault or
	// not), modeling a slow device. Applied on every match once armed.
	Latency time.Duration

	seen  int // matching ops observed (drives AfterN)
	fired int // faults injected (drives Count)
}

// clone returns a fresh copy with zeroed progress counters.
func (r *Rule) clone() *Rule {
	c := *r
	c.seen, c.fired = 0, 0
	return &c
}

func (r *Rule) matches(op Op, base string) bool {
	if r.Op != "" && r.Op != OpAny && r.Op != op {
		return false
	}
	if r.Path != "" {
		ok, err := filepath.Match(r.Path, base)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

func (r *Rule) errOr() error {
	if r.Err != nil {
		return r.Err
	}
	return syscall.EIO
}

// Stats is a point-in-time snapshot of an InjectFS's counters.
type Stats struct {
	// Ops counts the operations observed per class (faulted or not).
	Ops map[Op]uint64
	// Faults counts the faults injected per class. Silent syncs count
	// as faults even though the caller saw no error.
	Faults map[Op]uint64
}

// Total sums the injected faults across every class.
func (s Stats) Total() uint64 {
	var n uint64
	for _, v := range s.Faults {
		n += v
	}
	return n
}

// InjectFS wraps an inner vfs.FS and executes a fault plan against it.
// Rule evaluation is deterministic for a fixed seed and operation
// sequence; the zero plan (no rules) is a pure passthrough. Safe for
// concurrent use.
type InjectFS struct {
	inner vfs.FS

	mu     sync.Mutex
	rng    *rand.Rand
	rules  []*Rule
	ops    map[Op]uint64
	faults map[Op]uint64
}

// NewInject builds an InjectFS over inner with the given seeded plan.
// The rules are cloned, so a plan can be re-armed across runs without
// carrying progress counters over.
func NewInject(inner vfs.FS, seed int64, rules ...*Rule) *InjectFS {
	f := &InjectFS{
		inner:  vfs.Or(inner),
		rng:    rand.New(rand.NewSource(seed)),
		ops:    make(map[Op]uint64),
		faults: make(map[Op]uint64),
	}
	f.SetRules(rules...)
	return f
}

// SetRules replaces the active plan (progress counters reset).
func (f *InjectFS) SetRules(rules ...*Rule) {
	cloned := make([]*Rule, len(rules))
	for i, r := range rules {
		cloned[i] = r.clone()
	}
	f.mu.Lock()
	f.rules = cloned
	f.mu.Unlock()
}

// Heal drops every rule: the filesystem behaves perfectly again (the
// fault and op counters are kept).
func (f *InjectFS) Heal() { f.SetRules() }

// Stats snapshots the per-class op and fault counters.
func (f *InjectFS) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Stats{Ops: make(map[Op]uint64, len(f.ops)), Faults: make(map[Op]uint64, len(f.faults))}
	for k, v := range f.ops {
		s.Ops[k] = v
	}
	for k, v := range f.faults {
		s.Faults[k] = v
	}
	return s
}

// decision is the outcome of evaluating the plan for one operation.
type decision struct {
	err     error
	short   bool
	silent  bool
	latency time.Duration
}

// check books one operation against the plan and returns the injection
// decision (zero value = proceed normally). The first rule that fires
// wins; latency from any armed matching rule accumulates.
func (f *InjectFS) check(op Op, name string) decision {
	base := filepath.Base(name)
	f.mu.Lock()
	f.ops[op]++
	var d decision
	for _, r := range f.rules {
		if !r.matches(op, base) {
			continue
		}
		r.seen++
		if r.seen <= r.AfterN {
			continue
		}
		if r.Latency > 0 {
			d.latency += r.Latency
		}
		if d.err != nil || d.silent {
			continue // a fault already chosen; latency still accumulates
		}
		if r.Count != Sticky && r.fired > r.Count {
			continue // exhausted (Count 0 = one shot)
		}
		if r.Prob > 0 && f.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		f.faults[op]++
		if r.SilentSync && op == OpSync {
			d.silent = true
			continue
		}
		d.err = r.errOr()
		d.short = r.ShortWrite
	}
	f.mu.Unlock()
	if d.latency > 0 {
		time.Sleep(d.latency)
	}
	return d
}

// OpenFile implements vfs.FS.
func (f *InjectFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if d := f.check(OpOpen, name); d.err != nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: d.err}
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injectFile{File: inner, fs: f}, nil
}

// CreateTemp implements vfs.FS.
func (f *InjectFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	if d := f.check(OpOpen, filepath.Join(dir, pattern)); d.err != nil {
		return nil, &os.PathError{Op: "createtemp", Path: pattern, Err: d.err}
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injectFile{File: inner, fs: f}, nil
}

// ReadFile implements vfs.FS.
func (f *InjectFS) ReadFile(name string) ([]byte, error) {
	if d := f.check(OpRead, name); d.err != nil {
		return nil, &os.PathError{Op: "read", Path: name, Err: d.err}
	}
	return f.inner.ReadFile(name)
}

// Rename implements vfs.FS.
func (f *InjectFS) Rename(oldpath, newpath string) error {
	if d := f.check(OpRename, newpath); d.err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: d.err}
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements vfs.FS.
func (f *InjectFS) Remove(name string) error {
	if d := f.check(OpRemove, name); d.err != nil {
		return &os.PathError{Op: "remove", Path: name, Err: d.err}
	}
	return f.inner.Remove(name)
}

// MkdirAll implements vfs.FS.
func (f *InjectFS) MkdirAll(path string, perm os.FileMode) error {
	if d := f.check(OpMeta, path); d.err != nil {
		return &os.PathError{Op: "mkdir", Path: path, Err: d.err}
	}
	return f.inner.MkdirAll(path, perm)
}

// ReadDir implements vfs.FS.
func (f *InjectFS) ReadDir(name string) ([]os.DirEntry, error) {
	if d := f.check(OpMeta, name); d.err != nil {
		return nil, &os.PathError{Op: "readdir", Path: name, Err: d.err}
	}
	return f.inner.ReadDir(name)
}

// Stat implements vfs.FS.
func (f *InjectFS) Stat(name string) (os.FileInfo, error) {
	if d := f.check(OpMeta, name); d.err != nil {
		return nil, &os.PathError{Op: "stat", Path: name, Err: d.err}
	}
	return f.inner.Stat(name)
}

// SyncDir implements vfs.FS.
func (f *InjectFS) SyncDir(dir string) error {
	d := f.check(OpSync, dir)
	if d.silent {
		return nil
	}
	if d.err != nil {
		return &os.PathError{Op: "syncdir", Path: dir, Err: d.err}
	}
	return f.inner.SyncDir(dir)
}

// injectFile threads per-file reads, writes and syncs back through the
// owning injector's plan.
type injectFile struct {
	vfs.File
	fs *InjectFS
}

func (g *injectFile) Read(p []byte) (int, error) {
	if d := g.fs.check(OpRead, g.Name()); d.err != nil {
		return 0, &os.PathError{Op: "read", Path: g.Name(), Err: d.err}
	}
	return g.File.Read(p)
}

func (g *injectFile) Write(p []byte) (int, error) {
	d := g.fs.check(OpWrite, g.Name())
	if d.err == nil {
		return g.File.Write(p)
	}
	perr := &os.PathError{Op: "write", Path: g.Name(), Err: d.err}
	if !d.short || len(p) == 0 {
		return 0, perr
	}
	// Torn write: half the buffer lands before the device gives up.
	n, werr := g.File.Write(p[:(len(p)+1)/2])
	if werr != nil {
		return n, werr
	}
	return n, perr
}

func (g *injectFile) Sync() error {
	d := g.fs.check(OpSync, g.Name())
	if d.silent {
		return nil // the lie: report durable without flushing
	}
	if d.err != nil {
		return &os.PathError{Op: "sync", Path: g.Name(), Err: d.err}
	}
	return g.File.Sync()
}
