// Package vfs is the in-memory filesystem behind the simulated ROS. It
// gives the forwarded file system calls (open/read/write/stat/getcwd/close,
// Figure 9) real work to do and backs the Racket-stand-in's package loading.
package vfs

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"multiverse/internal/linuxabi"
)

// Mode bits (subset of POSIX).
const (
	ModeDir  uint32 = 0o040000
	ModeFile uint32 = 0o100000
)

type inode struct {
	ino      uint64
	mode     uint32
	data     []byte
	children map[string]*inode // directories only
	stamp    uint64            // generation stamp (see NewStamp)
}

// stamps is the one counter every generation stamp is drawn from.
var stamps atomic.Uint64

// NewStamp returns a generation stamp no earlier call returned, and never
// 0. An inode draws one at creation, so a missing path can read as 0 and
// a file recreated at a path never repeats its predecessor's stamp; the
// ROS kernel draws the stamps of its fd table and program break here too.
func NewStamp() uint64 { return stamps.Add(1) }

func (n *inode) isDir() bool { return n.mode&ModeDir != 0 }

// FS is a tree of inodes rooted at "/".
type FS struct {
	mu      sync.Mutex
	root    *inode
	nextIno uint64
}

// New returns an empty filesystem containing only "/".
func New() *FS {
	fs := &FS{nextIno: 2}
	fs.root = &inode{ino: 1, mode: ModeDir | 0o755, children: make(map[string]*inode)}
	return fs
}

// clean normalizes a path to an absolute, slash-separated form.
func clean(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

func (fs *FS) lookup(p string) (*inode, error) {
	p = clean(p)
	if p == "/" {
		return fs.root, nil
	}
	cur := fs.root
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		if !cur.isDir() {
			return nil, linuxabi.ENOTDIR
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, linuxabi.ENOENT
		}
		cur = next
	}
	return cur, nil
}

func (fs *FS) parentOf(p string) (*inode, string, error) {
	p = clean(p)
	dir, base := path.Split(p)
	if base == "" {
		return nil, "", linuxabi.EINVAL
	}
	parent, err := fs.lookup(dir)
	if err != nil {
		return nil, "", err
	}
	if !parent.isDir() {
		return nil, "", linuxabi.ENOTDIR
	}
	return parent, base, nil
}

// Mkdir creates a directory; parents must exist.
func (fs *FS) Mkdir(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, base, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	if _, ok := parent.children[base]; ok {
		return linuxabi.EEXIST
	}
	parent.children[base] = &inode{
		ino:      fs.nextIno,
		mode:     ModeDir | 0o755,
		children: make(map[string]*inode),
		stamp:    NewStamp(),
	}
	fs.nextIno++
	return nil
}

// MkdirAll creates a directory and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	p = clean(p)
	if p == "/" {
		return nil
	}
	partial := ""
	for _, part := range strings.Split(strings.TrimPrefix(p, "/"), "/") {
		partial += "/" + part
		if err := fs.Mkdir(partial); err != nil && err != linuxabi.EEXIST {
			return err
		}
	}
	return nil
}

// WriteFile creates or replaces a file with the given contents.
func (fs *FS) WriteFile(p string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, base, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	if existing, ok := parent.children[base]; ok {
		if existing.isDir() {
			return linuxabi.EISDIR
		}
		existing.data = append(existing.data[:0], data...)
		return nil
	}
	parent.children[base] = &inode{
		ino:   fs.nextIno,
		mode:  ModeFile | 0o644,
		data:  append([]byte(nil), data...),
		stamp: NewStamp(),
	}
	fs.nextIno++
	return nil
}

// ReadFile returns a copy of the file's contents.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if n.isDir() {
		return nil, linuxabi.EISDIR
	}
	return append([]byte(nil), n.data...), nil
}

// Stat fills st for the path.
func (fs *FS) Stat(p string) (linuxabi.Stat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		return linuxabi.Stat{}, err
	}
	return linuxabi.Stat{Ino: n.ino, Size: uint64(len(n.data)), Mode: n.mode, IsDir: n.isDir()}, nil
}

// ReadDir returns the sorted names in a directory.
func (fs *FS) ReadDir(p string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		return nil, err
	}
	if !n.isDir() {
		return nil, linuxabi.ENOTDIR
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Stamp returns the generation stamp of the inode at p, or 0 when p does
// not exist.
func (fs *FS) Stamp(p string) uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err != nil {
		return 0
	}
	return n.stamp
}

// Remove deletes a file or empty directory.
func (fs *FS) Remove(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, base, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	n, ok := parent.children[base]
	if !ok {
		return linuxabi.ENOENT
	}
	if n.isDir() && len(n.children) > 0 {
		return linuxabi.EINVAL
	}
	delete(parent.children, base)
	return nil
}

// File is an open file description (shared on dup, positioned).
type File struct {
	mu     sync.Mutex
	fs     *FS
	node   *inode
	pos    int64
	flags  int
	append bool
	path   string
}

// Open opens a path with linuxabi.O* flags.
func (fs *FS) Open(p string, flags int) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.lookup(p)
	if err == linuxabi.ENOENT && flags&linuxabi.OCreat != 0 {
		parent, base, perr := fs.parentOf(p)
		if perr != nil {
			return nil, perr
		}
		n = &inode{ino: fs.nextIno, mode: ModeFile | 0o644, stamp: NewStamp()}
		fs.nextIno++
		parent.children[base] = n
	} else if err != nil {
		return nil, err
	}
	if n.isDir() && flags&(linuxabi.OWronly|linuxabi.ORdwr) != 0 {
		return nil, linuxabi.EISDIR
	}
	if flags&linuxabi.OTrunc != 0 && !n.isDir() {
		n.data = n.data[:0]
	}
	return &File{fs: fs, node: n, flags: flags, append: flags&linuxabi.OAppend != 0, path: clean(p)}, nil
}

// Restamp gives the file's inode a fresh generation stamp.
func (f *File) Restamp() {
	f.fs.mu.Lock()
	f.node.stamp = NewStamp()
	f.fs.mu.Unlock()
}

// Path returns the path the file was opened with.
func (f *File) Path() string { return f.path }

// Read copies up to len(p) bytes from the current position.
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.pos >= int64(len(f.node.data)) {
		return 0, nil // EOF by zero count, Linux-style
	}
	n := copy(p, f.node.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

// Write stores p at the current position (or at EOF with O_APPEND).
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.flags&(linuxabi.OWronly|linuxabi.ORdwr) == 0 {
		return 0, linuxabi.EBADF
	}
	if f.append {
		f.pos = int64(len(f.node.data))
	}
	end := f.pos + int64(len(p))
	if end > int64(len(f.node.data)) {
		// append grows the capacity geometrically, so a run of appends
		// copies the file O(log n) times, not once per write; any gap
		// between the old end and pos reads as zeros.
		f.node.data = append(f.node.data, make([]byte, end-int64(len(f.node.data)))...)
	}
	copy(f.node.data[f.pos:], p)
	f.pos = end
	return len(p), nil
}

// Seek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Seek repositions the file offset.
func (f *File) Seek(off int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fs.mu.Lock()
	size := int64(len(f.node.data))
	f.fs.mu.Unlock()
	var next int64
	switch whence {
	case SeekSet:
		next = off
	case SeekCur:
		next = f.pos + off
	case SeekEnd:
		next = size + off
	default:
		return 0, linuxabi.EINVAL
	}
	if next < 0 {
		return 0, linuxabi.EINVAL
	}
	f.pos = next
	return next, nil
}

// Stat fills st for the open file.
func (f *File) Stat() linuxabi.Stat {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return linuxabi.Stat{
		Ino:   f.node.ino,
		Size:  uint64(len(f.node.data)),
		Mode:  f.node.mode,
		IsDir: f.node.isDir(),
	}
}

// Size returns the current file size.
func (f *File) Size() int64 {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.node.data))
}

// String implements fmt.Stringer for diagnostics.
func (f *File) String() string { return fmt.Sprintf("file(%s)", f.path) }
