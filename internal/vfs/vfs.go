// Package vfs implements the Faaslet filesystem of §3.1: a read-global
// write-local virtual filesystem. Functions read files from a global object
// store (shared, read-only — e.g. language-runtime library code) and write
// to locally cached copies; local writes are never visible globally, and the
// whole local tier is dropped on the Faaslet's per-call reset.
//
// Access follows the WASI capability-based security model: all I/O flows
// through unforgeable file handles handed out by Open, so there is no
// ambient path authority and no need for chroot or layered filesystems —
// which is precisely how the paper avoids their cold-start costs.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Open flags (a subset of POSIX, as in Table 2).
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreate = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// Seek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Errors returned by the filesystem.
var (
	ErrNotFound     = errors.New("vfs: file not found")
	ErrBadFD        = errors.New("vfs: bad file descriptor")
	ErrNotWritable  = errors.New("vfs: descriptor not opened for writing")
	ErrNotReadable  = errors.New("vfs: descriptor not opened for reading")
	ErrTooManyFiles = errors.New("vfs: too many open files")
	ErrIsGlobal     = errors.New("vfs: cannot modify the global tier")
)

// GlobalStore is the read-only file source shared by every Faaslet on the
// cluster (backed by the object store in deployments).
type GlobalStore interface {
	// ReadFile returns the file's contents, or false if absent.
	ReadFile(path string) ([]byte, bool)
	// ListFiles returns the sorted paths with the given prefix.
	ListFiles(prefix string) []string
}

// MapGlobal is an in-memory GlobalStore, convenient for tests and the
// simulator.
type MapGlobal struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewMapGlobal builds a global tier from a path→contents map.
func NewMapGlobal(files map[string][]byte) *MapGlobal {
	g := &MapGlobal{files: map[string][]byte{}}
	for k, v := range files {
		g.files[normPath(k)] = append([]byte(nil), v...)
	}
	return g
}

// ReadFile implements GlobalStore.
func (g *MapGlobal) ReadFile(path string) ([]byte, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	b, ok := g.files[normPath(path)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// ListFiles implements GlobalStore.
func (g *MapGlobal) ListFiles(prefix string) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for p := range g.files {
		if strings.HasPrefix(p, normPath(prefix)) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

func normPath(p string) string {
	p = strings.TrimPrefix(p, "/")
	// Collapse doubled separators; reject traversal by dropping dot-dot
	// segments entirely (capability model: no escaping the namespace).
	parts := strings.Split(p, "/")
	var clean []string
	for _, part := range parts {
		switch part {
		case "", ".", "..":
			continue
		default:
			clean = append(clean, part)
		}
	}
	return strings.Join(clean, "/")
}

// FileInfo describes a file for stat.
type FileInfo struct {
	Path  string
	Size  int64
	Local bool // true if the file lives in (or was copied to) the local tier
}

// file is one local-tier file.
type file struct {
	data []byte
}

// fdEntry is an unforgeable handle: guests only ever hold the integer key.
type fdEntry struct {
	f        *file
	path     string
	pos      int64
	readable bool
	writable bool
	append_  bool
}

// FS is one Faaslet's filesystem view.
type FS struct {
	mu     sync.Mutex
	global GlobalStore
	local  map[string]*file
	fds    map[int32]*fdEntry
	nextFD int32
	maxFDs int
	// BytesPulled counts global-tier bytes copied locally, for the
	// data-shipping accounting.
	BytesPulled int64
}

// MaxOpenFiles is the per-Faaslet descriptor limit.
const MaxOpenFiles = 256

// New creates a filesystem over the given global tier (nil means an empty
// global tier).
func New(global GlobalStore) *FS {
	if global == nil {
		global = NewMapGlobal(nil)
	}
	return &FS{
		global: global,
		local:  map[string]*file{},
		fds:    map[int32]*fdEntry{},
		nextFD: 3, // leave 0-2 for the conventional stdio slots
		maxFDs: MaxOpenFiles,
	}
}

// Reset drops the local tier and all descriptors — the per-call Faaslet
// reset (§5.2) guarantees nothing leaks to the next tenant.
func (fs *FS) Reset() {
	fs.mu.Lock()
	clear(fs.local)
	clear(fs.fds)
	fs.nextFD = 3
	fs.BytesPulled = 0
	fs.mu.Unlock()
}

// Open opens path with the given flags and returns a new descriptor.
// Global files are copied into the local tier on first open (read-global
// write-local).
func (fs *FS) Open(path string, flags int) (int32, error) {
	p := normPath(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(fs.fds) >= fs.maxFDs {
		return 0, ErrTooManyFiles
	}
	f, ok := fs.local[p]
	if !ok {
		if blob, exists := fs.global.ReadFile(p); exists {
			f = &file{data: append([]byte(nil), blob...)}
			fs.local[p] = f
			fs.BytesPulled += int64(len(blob))
			ok = true
		}
	}
	if !ok {
		if flags&OCreate == 0 {
			return 0, fmt.Errorf("%w: %s", ErrNotFound, p)
		}
		f = &file{}
		fs.local[p] = f
	}
	if flags&OTrunc != 0 {
		f.data = f.data[:0]
	}
	e := &fdEntry{
		f:        f,
		path:     p,
		readable: flags&OWronly == 0,
		writable: flags&(OWronly|ORdwr|OAppend|OCreate|OTrunc) != 0,
		append_:  flags&OAppend != 0,
	}
	fd := fs.nextFD
	fs.nextFD++
	fs.fds[fd] = e
	return fd, nil
}

func (fs *FS) entry(fd int32) (*fdEntry, error) {
	e, ok := fs.fds[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return e, nil
}

// Read reads up to len(buf) bytes at the descriptor's position.
func (fs *FS) Read(fd int32, buf []byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, err := fs.entry(fd)
	if err != nil {
		return 0, err
	}
	if !e.readable {
		return 0, ErrNotReadable
	}
	if e.pos >= int64(len(e.f.data)) {
		return 0, io.EOF
	}
	n := copy(buf, e.f.data[e.pos:])
	e.pos += int64(n)
	return n, nil
}

// Write writes buf at the descriptor's position (or the end in append
// mode), extending the file as needed.
func (fs *FS) Write(fd int32, buf []byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, err := fs.entry(fd)
	if err != nil {
		return 0, err
	}
	if !e.writable {
		return 0, ErrNotWritable
	}
	if e.append_ {
		e.pos = int64(len(e.f.data))
	}
	end := e.pos + int64(len(buf))
	if end > int64(len(e.f.data)) {
		grown := make([]byte, end)
		copy(grown, e.f.data)
		e.f.data = grown
	}
	copy(e.f.data[e.pos:], buf)
	e.pos = end
	return len(buf), nil
}

// Seek repositions the descriptor, returning the new offset.
func (fs *FS) Seek(fd int32, offset int64, whence int) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, err := fs.entry(fd)
	if err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = e.pos
	case SeekEnd:
		base = int64(len(e.f.data))
	default:
		return 0, fmt.Errorf("vfs: bad whence %d", whence)
	}
	np := base + offset
	if np < 0 {
		return 0, fmt.Errorf("vfs: negative seek")
	}
	e.pos = np
	return np, nil
}

// Close releases the descriptor.
func (fs *FS) Close(fd int32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.fds[fd]; !ok {
		return fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	delete(fs.fds, fd)
	return nil
}

// Dup duplicates a descriptor; the copy shares the file but has an
// independent position, starting at the original's.
func (fs *FS) Dup(fd int32) (int32, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, err := fs.entry(fd)
	if err != nil {
		return 0, err
	}
	if len(fs.fds) >= fs.maxFDs {
		return 0, ErrTooManyFiles
	}
	cp := *e
	nfd := fs.nextFD
	fs.nextFD++
	fs.fds[nfd] = &cp
	return nfd, nil
}

// Stat reports on a path, checking the local tier then the global tier.
func (fs *FS) Stat(path string) (FileInfo, error) {
	p := normPath(path)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.local[p]; ok {
		return FileInfo{Path: p, Size: int64(len(f.data)), Local: true}, nil
	}
	if blob, ok := fs.global.ReadFile(p); ok {
		return FileInfo{Path: p, Size: int64(len(blob))}, nil
	}
	return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, p)
}

// FStat reports on an open descriptor.
func (fs *FS) FStat(fd int32) (FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	e, err := fs.entry(fd)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Path: e.path, Size: int64(len(e.f.data)), Local: true}, nil
}

// ReadFile is a convenience that opens, reads fully and closes.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fd, err := fs.Open(path, ORdonly)
	if err != nil {
		return nil, err
	}
	defer fs.Close(fd)
	info, err := fs.FStat(fd)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, info.Size)
	n, err := fs.Read(fd, buf)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return buf[:n], nil
}

// WriteFile is a convenience that creates/truncates and writes path locally.
func (fs *FS) WriteFile(path string, data []byte) error {
	fd, err := fs.Open(path, OCreate|OTrunc|OWronly)
	if err != nil {
		return err
	}
	defer fs.Close(fd)
	_, err = fs.Write(fd, data)
	return err
}

// OpenCount reports the number of live descriptors (leak tests).
func (fs *FS) OpenCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.fds)
}

// LocalBytes reports the local tier's size (footprint accounting).
func (fs *FS) LocalBytes() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var n int64
	for _, f := range fs.local {
		n += int64(len(f.data))
	}
	return n
}
