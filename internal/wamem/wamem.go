// Package wamem implements the WebAssembly-style linear memory that backs
// every Faaslet, together with the two mechanisms the paper layers on top of
// it:
//
//   - shared memory regions (§3.3): the guest's single dense linear address
//     space may be backed by several mappings; new pages can be remapped onto
//     a host-wide shared segment so that co-located Faaslets access the same
//     bytes with no copying, while the guest still sees offsets from zero;
//   - copy-on-write snapshots (§5.2): a Proto-Faaslet restore aliases the
//     snapshot's pages and copies a page only when it is first written, so
//     restores cost O(page table), not O(memory). A live Memory is restored
//     in place (RestoreFrom): the pages the last call made private go back,
//     zeroed, to a host-wide free list that the next first-write draws from.
//
// The paper implements both with mmap/mremap on the host; Go has no portable
// equivalent, so wamem uses a page table: the linear space is an array of
// 64 KiB pages, each entry pointing at private storage, a snapshot page
// (copy-on-write), or a window into a shared Segment. Pages are materialised
// lazily, so an untouched no-op Faaslet has a footprint of a few hundred
// bytes of bookkeeping — matching the paper's KB-scale Faaslet footprints.
//
// All accessors bounds-check against the current memory size and return
// ErrOutOfBounds on violation; the VM layer converts these into SFI traps.
package wamem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// PageSize is the WebAssembly page size (64 KiB).
const PageSize = 64 * 1024

const (
	pageShift = 16
	pageMask  = PageSize - 1
)

// ErrOutOfBounds is returned when an access falls outside linear memory.
var ErrOutOfBounds = errors.New("wamem: out-of-bounds memory access")

// ErrLimit is returned when growth would exceed the memory's page limit,
// mirroring the per-function memory limits of §3.2.
var ErrLimit = errors.New("wamem: memory limit exceeded")

// ErrShared is returned for operations not permitted on shared-region pages.
var ErrShared = errors.New("wamem: operation not supported on shared region")

// Segment is a region of common process memory that can be mapped into many
// Faaslets' linear address spaces (the central region of Fig 2). Its length
// is always a multiple of PageSize.
type Segment struct {
	data []byte
}

// NewSegment allocates a shared segment of at least size bytes, rounded up
// to a whole number of pages.
func NewSegment(size int) *Segment {
	if size < 1 {
		size = 1
	}
	pages := (size + PageSize - 1) / PageSize
	return &Segment{data: make([]byte, pages*PageSize)}
}

// Len returns the segment length in bytes (a multiple of PageSize).
func (s *Segment) Len() int { return len(s.data) }

// Pages returns the segment length in pages.
func (s *Segment) Pages() int { return len(s.data) / PageSize }

// Bytes returns the raw backing slice. Writers on different Faaslets must
// coordinate through the state tier's locks, exactly as the paper requires.
func (s *Segment) Bytes() []byte { return s.data }

// page is one page-table entry.
type page struct {
	// buf is the 64 KiB backing storage; nil means an untouched zero page.
	buf []byte
	// cow marks buf as aliased from a snapshot: copy before first write.
	cow bool
	// seg, when non-nil, marks this page as a window into a shared segment
	// (buf aliases seg.data[segOff : segOff+PageSize]).
	seg    *Segment
	segOff int
}

// Memory is one Faaslet's linear memory.
type Memory struct {
	pages    []page
	maxPages int
	// brk is the guest heap break used by the brk/sbrk host calls.
	brk uint32
	// owned counts pages with private materialised storage, for footprint
	// accounting (Table 3).
	owned int
}

// New creates a memory with initialPages of lazily materialised zero pages
// and a hard limit of maxPages (0 means the 32-bit maximum of 65536 pages).
func New(initialPages, maxPages int) (*Memory, error) {
	if maxPages <= 0 || maxPages > 65536 {
		maxPages = 65536
	}
	if initialPages < 0 || initialPages > maxPages {
		return nil, fmt.Errorf("wamem: initial pages %d exceed limit %d", initialPages, maxPages)
	}
	return &Memory{pages: make([]page, initialPages), maxPages: maxPages}, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(initialPages, maxPages int) *Memory {
	m, err := New(initialPages, maxPages)
	if err != nil {
		panic(err)
	}
	return m
}

// Size returns the current memory size in bytes.
func (m *Memory) Size() uint32 { return uint32(len(m.pages)) * PageSize }

// Pages returns the current memory size in pages.
func (m *Memory) Pages() int { return len(m.pages) }

// MaxPages returns the configured page limit.
func (m *Memory) MaxPages() int { return m.maxPages }

// Footprint returns the bytes of private storage actually materialised.
// Shared-segment pages and un-copied COW pages cost nothing here, which is
// what makes Faaslet and Proto-Faaslet footprints KB-scale.
func (m *Memory) Footprint() int64 { return int64(m.owned) * PageSize }

// Grow extends memory by delta pages of zeroes, returning the previous size
// in pages (the wasm memory.grow contract). Fails with ErrLimit past the
// per-function limit.
func (m *Memory) Grow(delta int) (int, error) {
	if delta < 0 {
		return 0, fmt.Errorf("wamem: negative grow %d", delta)
	}
	prev := len(m.pages)
	if prev+delta > m.maxPages {
		return 0, ErrLimit
	}
	m.pages = append(m.pages, make([]page, delta)...)
	return prev, nil
}

// Brk returns the current heap break.
func (m *Memory) Brk() uint32 { return m.brk }

// SetBrk moves the heap break, growing memory if the break passes the
// current size. It implements the brk/sbrk host-interface calls: growth
// beyond the page limit fails with ErrLimit and leaves the break unchanged.
func (m *Memory) SetBrk(addr uint32) error {
	if addr > m.Size() {
		need := int((addr+PageSize-1)/PageSize) - len(m.pages)
		if _, err := m.Grow(need); err != nil {
			return err
		}
	}
	m.brk = addr
	return nil
}

// MapShared extends the linear address space with the segment's pages and
// maps them onto the segment, returning the guest base offset of the new
// region. The guest keeps a dense address space; the underlying accesses hit
// the shared segment (Fig 2).
func (m *Memory) MapShared(seg *Segment) (uint32, error) {
	n := seg.Pages()
	if len(m.pages)+n > m.maxPages {
		return 0, ErrLimit
	}
	base := m.Size()
	for i := 0; i < n; i++ {
		off := i * PageSize
		m.pages = append(m.pages, page{
			buf:    seg.data[off : off+PageSize],
			seg:    seg,
			segOff: off,
		})
	}
	return base, nil
}

// SharedAt reports the segment mapped at guest offset off, if any.
func (m *Memory) SharedAt(off uint32) (*Segment, bool) {
	idx := int(off >> pageShift)
	if idx >= len(m.pages) || m.pages[idx].seg == nil {
		return nil, false
	}
	return m.pages[idx].seg, true
}

// freePages is the host-wide free list of private pages. Every page in it is
// all-zero: RestoreFrom clears a page before releasing it, so a page one
// Faaslet dirtied can reach another only as zeroes, and pageForWrite can hand
// one out as a fresh zero page without touching it.
var freePages = sync.Pool{New: func() any { return new([PageSize]byte) }}

func takePage() []byte { return freePages.Get().(*[PageSize]byte)[:] }

// releasePage clears a private page and puts it on the free list. The caller
// must hold the only reference to it.
func releasePage(buf []byte) {
	pg := (*[PageSize]byte)(buf)
	clear(pg[:])
	freePages.Put(pg)
}

// pageForRead returns the backing slice for page idx, which may be nil for
// an untouched zero page.
func (m *Memory) pageForRead(idx int) []byte { return m.pages[idx].buf }

// pageForWrite materialises page idx for writing, performing the COW copy if
// the page aliases a snapshot.
func (m *Memory) pageForWrite(idx int) []byte {
	p := &m.pages[idx]
	if p.seg != nil {
		return p.buf
	}
	if p.buf == nil {
		p.buf = takePage()
		m.owned++
		return p.buf
	}
	if p.cow {
		fresh := takePage()
		copy(fresh, p.buf)
		p.buf = fresh
		p.cow = false
		m.owned++
	}
	return p.buf
}

func (m *Memory) check(off uint32, n int) error {
	// A negative length is out of bounds. The end and the size are computed
	// in 64 bits: a full 65536-page memory is 4 GiB, which Size's uint32
	// cannot express.
	if n < 0 || int64(off)+int64(n) > int64(len(m.pages))<<pageShift {
		return ErrOutOfBounds
	}
	return nil
}

// ReadablePage and WritablePage are the VM's load/store fast path: they
// return the PageSize-byte backing of page idx (guest address >> 16) when a
// typed access can go straight to it, and nil when it cannot — the page is
// out of range or still an untouched zero page, or (for writes) must first
// be copied out of a snapshot. A nil result is not an error: the caller
// falls back to the checked accessors (ReadU64, WriteU64, ...), which also
// handle accesses that straddle a page boundary. Both are small enough to
// inline into the interpreter loop.
func (m *Memory) ReadablePage(idx uint64) []byte {
	if idx < uint64(len(m.pages)) {
		return m.pages[idx].buf
	}
	return nil
}

// WritablePage is ReadablePage for stores; see there.
func (m *Memory) WritablePage(idx uint64) []byte {
	if idx < uint64(len(m.pages)) && !m.pages[idx].cow {
		return m.pages[idx].buf
	}
	return nil
}

// ReadU8 loads one byte.
func (m *Memory) ReadU8(off uint32) (byte, error) {
	if err := m.check(off, 1); err != nil {
		return 0, err
	}
	buf := m.pageForRead(int(off >> pageShift))
	if buf == nil {
		return 0, nil
	}
	return buf[off&pageMask], nil
}

// WriteU8 stores one byte.
func (m *Memory) WriteU8(off uint32, b byte) error {
	if err := m.check(off, 1); err != nil {
		return err
	}
	m.pageForWrite(int(off >> pageShift))[off&pageMask] = b
	return nil
}

// ReadU32 loads a little-endian uint32.
func (m *Memory) ReadU32(off uint32) (uint32, error) {
	if err := m.check(off, 4); err != nil {
		return 0, err
	}
	if off&pageMask <= PageSize-4 {
		buf := m.pageForRead(int(off >> pageShift))
		if buf == nil {
			return 0, nil
		}
		return binary.LittleEndian.Uint32(buf[off&pageMask:]), nil
	}
	var b [4]byte
	if err := m.read(off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteU32 stores a little-endian uint32.
func (m *Memory) WriteU32(off uint32, v uint32) error {
	if err := m.check(off, 4); err != nil {
		return err
	}
	if off&pageMask <= PageSize-4 {
		binary.LittleEndian.PutUint32(m.pageForWrite(int(off >> pageShift))[off&pageMask:], v)
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return m.write(off, b[:])
}

// ReadU64 loads a little-endian uint64.
func (m *Memory) ReadU64(off uint32) (uint64, error) {
	if err := m.check(off, 8); err != nil {
		return 0, err
	}
	if off&pageMask <= PageSize-8 {
		buf := m.pageForRead(int(off >> pageShift))
		if buf == nil {
			return 0, nil
		}
		return binary.LittleEndian.Uint64(buf[off&pageMask:]), nil
	}
	var b [8]byte
	if err := m.read(off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU64 stores a little-endian uint64.
func (m *Memory) WriteU64(off uint32, v uint64) error {
	if err := m.check(off, 8); err != nil {
		return err
	}
	if off&pageMask <= PageSize-8 {
		binary.LittleEndian.PutUint64(m.pageForWrite(int(off >> pageShift))[off&pageMask:], v)
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.write(off, b[:])
}

// ReadU16 loads a little-endian uint16.
func (m *Memory) ReadU16(off uint32) (uint16, error) {
	if err := m.check(off, 2); err != nil {
		return 0, err
	}
	if off&pageMask <= PageSize-2 {
		buf := m.pageForRead(int(off >> pageShift))
		if buf == nil {
			return 0, nil
		}
		return binary.LittleEndian.Uint16(buf[off&pageMask:]), nil
	}
	var b [2]byte
	if err := m.read(off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

// WriteU16 stores a little-endian uint16.
func (m *Memory) WriteU16(off uint32, v uint16) error {
	if err := m.check(off, 2); err != nil {
		return err
	}
	if off&pageMask <= PageSize-2 {
		binary.LittleEndian.PutUint16(m.pageForWrite(int(off >> pageShift))[off&pageMask:], v)
		return nil
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return m.write(off, b[:])
}

// read copies [off, off+len(dst)) into dst crossing pages as needed.
// Caller has already bounds-checked.
func (m *Memory) read(off uint32, dst []byte) error {
	for len(dst) > 0 {
		idx := int(off >> pageShift)
		po := int(off & pageMask)
		n := PageSize - po
		if n > len(dst) {
			n = len(dst)
		}
		buf := m.pageForRead(idx)
		if buf == nil {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		} else {
			copy(dst[:n], buf[po:po+n])
		}
		dst = dst[n:]
		off += uint32(n)
	}
	return nil
}

// write copies src into [off, off+len(src)) crossing pages as needed.
// Caller has already bounds-checked.
func (m *Memory) write(off uint32, src []byte) error {
	for len(src) > 0 {
		idx := int(off >> pageShift)
		po := int(off & pageMask)
		n := PageSize - po
		if n > len(src) {
			n = len(src)
		}
		copy(m.pageForWrite(idx)[po:po+n], src[:n])
		src = src[n:]
		off += uint32(n)
	}
	return nil
}

// ReadBytes returns a copy of n bytes at off.
func (m *Memory) ReadBytes(off uint32, n int) ([]byte, error) {
	if err := m.check(off, n); err != nil {
		return nil, err
	}
	dst := make([]byte, n)
	if err := m.read(off, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// WriteBytes copies src into memory at off.
func (m *Memory) WriteBytes(off uint32, src []byte) error {
	if err := m.check(off, len(src)); err != nil {
		return err
	}
	return m.write(off, src)
}

// Fill sets n bytes at off to val (the memory.fill instruction). The range
// is bounds-checked before anything is touched or allocated, and filling
// with zero leaves untouched zero pages unmaterialised.
func (m *Memory) Fill(off uint32, val byte, n int) error {
	if err := m.check(off, n); err != nil {
		return err
	}
	for n > 0 {
		idx := int(off >> pageShift)
		po := int(off & pageMask)
		c := min(PageSize-po, n)
		if p := &m.pages[idx]; val != 0 || p.buf != nil {
			buf := m.pageForWrite(idx)[po : po+c]
			for i := range buf {
				buf[i] = val
			}
		}
		n -= c
		off += uint32(c)
	}
	return nil
}

// Copy moves n bytes from src to dst inside the memory with memmove
// semantics (the memory.copy instruction): the ranges may overlap. It works
// a page-bounded chunk at a time, front to back when dst is below src and
// back to front otherwise, so no temporary is needed and an overlapping
// source is never overwritten before it is read.
func (m *Memory) Copy(dst, src uint32, n int) error {
	if err := m.check(src, n); err != nil {
		return err
	}
	if err := m.check(dst, n); err != nil {
		return err
	}
	backward := dst > src
	for n > 0 {
		// The chunk ends at the nearer page boundary of the two ranges, taken
		// from whichever end the copy is working from.
		var c int
		if backward {
			c = min(n, int((src+uint32(n)-1)&pageMask)+1, int((dst+uint32(n)-1)&pageMask)+1)
		} else {
			c = min(n, PageSize-int(src&pageMask), PageSize-int(dst&pageMask))
		}
		so, do := src, dst
		if backward {
			so, do = src+uint32(n-c), dst+uint32(n-c)
		} else {
			src, dst = src+uint32(c), dst+uint32(c)
		}
		n -= c
		si, di := int(so>>pageShift), int(do>>pageShift)
		if m.pages[si].buf == nil && m.pages[di].buf == nil {
			continue // zero page onto zero page
		}
		// Materialise the destination first: if both ranges share a
		// copy-on-write page, the source must be read from the fresh copy.
		to := m.pageForWrite(di)[do&pageMask:][:c]
		if from := m.pageForRead(si); from != nil {
			copy(to, from[so&pageMask:][:c])
		} else {
			clear(to)
		}
	}
	return nil
}

// Snapshot captures the current memory contents. Private pages are captured
// by aliasing (both the snapshot and the live memory become copy-on-write);
// shared-region pages are recorded as segment references. The snapshot is
// immutable and may be restored many times, including concurrently into
// different Memories.
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{
		pages:    make([]snapPage, len(m.pages)),
		brk:      m.brk,
		maxPages: m.maxPages,
	}
	for i := range m.pages {
		p := &m.pages[i]
		if p.seg != nil {
			s.pages[i] = snapPage{seg: p.seg, segOff: p.segOff}
			continue
		}
		if p.buf != nil {
			if !p.cow {
				// The page's storage is now attributed to the snapshot; the
				// live memory will copy on its next write.
				p.cow = true
				m.owned--
			}
			s.pages[i] = snapPage{buf: p.buf}
		}
	}
	return s
}

// Snapshot is an immutable capture of a Memory (a Proto-Faaslet's memory
// image). Restores alias its pages copy-on-write.
type Snapshot struct {
	pages    []snapPage
	brk      uint32
	maxPages int
}

type snapPage struct {
	buf    []byte
	seg    *Segment
	segOff int
}

// Restore builds a new Memory aliasing the snapshot copy-on-write. This is
// the Proto-Faaslet restore path: cost is proportional to the page count,
// not the memory contents.
func (s *Snapshot) Restore() *Memory {
	m := &Memory{}
	m.RestoreFrom(s)
	return m
}

// RestoreFrom returns m, in place, to the snapshot's contents: the per-call
// reset of §5.2. It walks the page table once. A page m owns privately — one
// it materialised or copied out of a snapshot since the last restore — is
// cleared and released to the free list; every entry is re-pointed at the
// snapshot's page copy-on-write, at the snapshot's shared segment, or back
// to an untouched zero page. Shared-segment windows mapped since are simply
// unmapped — the segment belongs to the state tier and is never cleared —
// pages grown past the snapshot's size are dropped, and the break and page
// limit are the snapshot's. The cost is O(page table) + O(pages made private
// since the last restore), and nothing is allocated unless the snapshot is
// larger than any size m has had.
func (m *Memory) RestoreFrom(s *Snapshot) {
	for i := range m.pages {
		if p := &m.pages[i]; p.buf != nil && !p.cow && p.seg == nil {
			releasePage(p.buf)
		}
	}
	if n := len(s.pages); n <= cap(m.pages) {
		clear(m.pages[min(n, len(m.pages)):]) // drop references past the new end
		m.pages = m.pages[:n]
	} else {
		m.pages = make([]page, n)
	}
	for i, sp := range s.pages {
		switch {
		case sp.seg != nil:
			m.pages[i] = page{buf: sp.seg.data[sp.segOff : sp.segOff+PageSize], seg: sp.seg, segOff: sp.segOff}
		case sp.buf != nil:
			m.pages[i] = page{buf: sp.buf, cow: true}
		default:
			m.pages[i] = page{}
		}
	}
	m.owned, m.brk, m.maxPages = 0, s.brk, s.maxPages
}

// Serialize flattens the snapshot for cross-host transfer through the global
// tier. Shared-segment pages cannot be serialised (Proto-Faaslets are taken
// before any state is mapped); ErrShared is returned if any are present.
// The encoding is a simple sparse page list:
//
//	u32 pageCount | u32 brk | u32 maxPages | repeated { u32 pageIndex | page bytes }
func (s *Snapshot) Serialize() ([]byte, error) {
	var materialised int
	for _, p := range s.pages {
		if p.seg != nil {
			return nil, ErrShared
		}
		if p.buf != nil {
			materialised++
		}
	}
	out := make([]byte, 0, 12+materialised*(4+PageSize))
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(s.pages)))
	binary.LittleEndian.PutUint32(hdr[4:], s.brk)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(s.maxPages))
	out = append(out, hdr[:]...)
	var idx [4]byte
	for i, p := range s.pages {
		if p.buf == nil {
			continue
		}
		binary.LittleEndian.PutUint32(idx[:], uint32(i))
		out = append(out, idx[:]...)
		out = append(out, p.buf...)
	}
	return out, nil
}

// DeserializeSnapshot reverses Serialize. The resulting snapshot owns its
// page storage.
func DeserializeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("wamem: snapshot too short (%d bytes)", len(b))
	}
	pageCount := int(binary.LittleEndian.Uint32(b[0:]))
	brk := binary.LittleEndian.Uint32(b[4:])
	maxPages := int(binary.LittleEndian.Uint32(b[8:]))
	if pageCount < 0 || pageCount > 65536 {
		return nil, fmt.Errorf("wamem: invalid snapshot page count %d", pageCount)
	}
	s := &Snapshot{pages: make([]snapPage, pageCount), brk: brk, maxPages: maxPages}
	rest := b[12:]
	for len(rest) > 0 {
		if len(rest) < 4+PageSize {
			return nil, fmt.Errorf("wamem: truncated snapshot page record (%d bytes left)", len(rest))
		}
		idx := int(binary.LittleEndian.Uint32(rest[0:]))
		if idx < 0 || idx >= pageCount {
			return nil, fmt.Errorf("wamem: snapshot page index %d out of range", idx)
		}
		buf := make([]byte, PageSize)
		copy(buf, rest[4:4+PageSize])
		s.pages[idx] = snapPage{buf: buf}
		rest = rest[4+PageSize:]
	}
	return s, nil
}
