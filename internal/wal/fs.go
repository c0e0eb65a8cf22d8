package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS abstracts the directory a segmented log lives in. The production
// implementation is DirFS (one real directory); tests substitute MemFS,
// an in-memory filesystem that models the volatile/durable split of a
// real disk (written bytes are volatile until Sync), and FaultFS, an
// injection layer that kills every mutating operation past a chosen
// boundary — together they let the crash-point sweep rehearse a kill -9
// at every record, segment, and snapshot boundary deterministically.
type FS interface {
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Create opens name truncated to empty, creating it if absent.
	Create(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	// List returns the file names in the directory, sorted.
	List() ([]string, error)
	// Rename atomically renames oldname to newname (replacing newname).
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// Size reports name's current length in bytes.
	Size(name string) (int64, error)
	// Truncate cuts name to size bytes (recovery trims torn tails with
	// it before reopening the active segment for append).
	Truncate(name string, size int64) error
}

// File is one writable log file.
type File interface {
	io.Writer
	// Sync makes every byte written so far durable.
	Sync() error
	Close() error
}

// DirFS is the production FS: files inside one OS directory.
type DirFS string

// NewDirFS creates (if needed) and returns the directory-backed FS. A
// path naming a regular file is refused by name: it is most likely a
// journal in the retired single-file format, and starting an empty log
// beside it would silently forget what it holds.
func NewDirFS(dir string) (DirFS, error) {
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return "", fmt.Errorf("wal: single-file journals are no longer read: %s (journal paths name a directory)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	return DirFS(dir), nil
}

func (d DirFS) path(name string) string { return filepath.Join(string(d), name) }

// OpenAppend implements FS.
func (d DirFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Create implements FS.
func (d DirFS) Create(name string) (File, error) { return os.Create(d.path(name)) }

// Open implements FS.
func (d DirFS) Open(name string) (io.ReadCloser, error) { return os.Open(d.path(name)) }

// List implements FS.
func (d DirFS) List() ([]string, error) {
	entries, err := os.ReadDir(string(d))
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Rename implements FS.
func (d DirFS) Rename(oldname, newname string) error {
	return os.Rename(d.path(oldname), d.path(newname))
}

// Remove implements FS.
func (d DirFS) Remove(name string) error { return os.Remove(d.path(name)) }

// Size implements FS.
func (d DirFS) Size(name string) (int64, error) {
	fi, err := os.Stat(d.path(name))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Truncate implements FS.
func (d DirFS) Truncate(name string, size int64) error {
	return os.Truncate(d.path(name), size)
}

// MemFS is an in-memory FS that models durability the way a disk does:
// Write lands in a volatile page cache, Sync hardens everything written
// so far, and CrashCopy produces the directory a machine would find
// after losing power — synced prefixes intact, unsynced suffixes gone
// (or partially kept, the torn-tail case). Renames model journaled
// metadata: atomic and immediately durable.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

type memFile struct {
	fs     *MemFS
	name   string
	data   []byte
	synced int // durable prefix length
}

// NewMemFS creates an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memFile)} }

// ErrNotExist mirrors os.ErrNotExist for the in-memory FS.
var ErrNotExist = os.ErrNotExist

func (m *MemFS) get(name string, create, truncate bool) (*memFile, error) {
	f, ok := m.files[name]
	if !ok {
		if !create {
			return nil, fmt.Errorf("wal: memfs open %s: %w", name, ErrNotExist)
		}
		f = &memFile{fs: m, name: name}
		m.files[name] = f
	} else if truncate {
		f.data, f.synced = nil, 0
	}
	return f, nil
}

// OpenAppend implements FS.
func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.get(name, true, false)
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.get(name, true, true)
}

// Open implements FS.
func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("wal: memfs open %s: %w", name, ErrNotExist)
	}
	data := append([]byte(nil), f.data...)
	return io.NopCloser(&memReader{data: data}), nil
}

type memReader struct {
	data []byte
	off  int
}

func (r *memReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements FS. Renames are atomic and durable (journaled
// metadata), matching the rename(2) contract segmented snapshots rely on.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("wal: memfs rename %s: %w", oldname, ErrNotExist)
	}
	delete(m.files, oldname)
	f.name = newname
	m.files[newname] = f
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("wal: memfs remove %s: %w", name, ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

// Size implements FS.
func (m *MemFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return 0, fmt.Errorf("wal: memfs size %s: %w", name, ErrNotExist)
	}
	return int64(len(f.data)), nil
}

// Truncate implements FS.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return fmt.Errorf("wal: memfs truncate %s: %w", name, ErrNotExist)
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("wal: memfs truncate %s to %d (have %d)", name, size, len(f.data))
	}
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	return nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.data = append(f.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.synced = len(f.data)
	return nil
}

func (f *memFile) Close() error { return nil }

// CrashCopy returns the filesystem a restarted machine would observe
// after a power loss: every file truncated to its durable prefix, plus
// keep(name, unsynced) extra bytes of its volatile suffix — 0 models a
// clean write barrier, a positive value models a torn tail where part of
// an un-fsynced write reached the platter. A nil keep keeps nothing.
// The receiver is not modified, so one recorded run can be crash-tested
// at many boundaries.
func (m *MemFS) CrashCopy(keep func(name string, unsynced int) int) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMemFS()
	for name, f := range m.files {
		n := f.synced
		if keep != nil {
			extra := keep(name, len(f.data)-f.synced)
			if extra < 0 {
				extra = 0
			}
			if extra > len(f.data)-f.synced {
				extra = len(f.data) - f.synced
			}
			n += extra
		}
		out.files[name] = &memFile{
			fs: out, name: name,
			data:   append([]byte(nil), f.data[:n]...),
			synced: n,
		}
	}
	return out
}

// ErrInjected is the error every FaultFS operation returns past the
// injected crash point.
var ErrInjected = errors.New("wal: injected fault")

// FaultFS wraps an FS and kills every mutating operation (write, sync,
// create, rename, remove) once FailAfter operations have executed —
// the moment the "process" dies. Reads stay alive (recovery runs on a
// CrashCopy of the underlying MemFS, not through the fault layer).
// Operation counting is deterministic for a deterministic workload, so
// sweeping FailAfter over [1, Ops] visits every boundary exactly once.
type FaultFS struct {
	inner FS

	mu     sync.Mutex
	ops    int
	failAt int // kill every mutating op once ops >= failAt; 0 = never
}

// NewFaultFS wraps inner with fault injection. failAfter <= 0 never
// injects (pure pass-through with op counting).
func NewFaultFS(inner FS, failAfter int) *FaultFS {
	return &FaultFS{inner: inner, failAt: failAfter}
}

// Ops reports how many mutating operations have executed.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// step counts one mutating op; past the boundary it reports the kill.
func (f *FaultFS) step() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	if f.failAt > 0 && f.ops >= f.failAt {
		return ErrInjected
	}
	return nil
}

// OpenAppend implements FS.
func (f *FaultFS) OpenAppend(name string) (File, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Open implements FS (reads are never injected).
func (f *FaultFS) Open(name string) (io.ReadCloser, error) { return f.inner.Open(name) }

// List implements FS (reads are never injected).
func (f *FaultFS) List() ([]string, error) { return f.inner.List() }

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Rename(oldname, newname)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// Size implements FS (reads are never injected).
func (f *FaultFS) Size(name string) (int64, error) { return f.inner.Size(name) }

// Truncate implements FS.
func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

// Write forwards to the real file unless the crash point has passed; a
// crash landing exactly on a write leaves HALF the buffer behind in the
// volatile cache, so a later torn-tail CrashCopy can surface a
// mid-record truncation — the sweep's "truncate mid-record" case.
func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.fs.step(); err != nil {
		if half := len(p) / 2; half > 0 {
			f.inner.Write(p[:half]) //nolint:errcheck // volatile torn prefix
		}
		return 0, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.fs.step(); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error { return f.inner.Close() }
