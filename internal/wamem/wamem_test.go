package wamem

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewSizeAndLimits(t *testing.T) {
	m, err := New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pages() != 2 || m.Size() != 2*PageSize {
		t.Fatalf("got %d pages, %d bytes", m.Pages(), m.Size())
	}
	if _, err := New(5, 4); err == nil {
		t.Fatal("expected error when initial > max")
	}
	if _, err := New(-1, 4); err == nil {
		t.Fatal("expected error for negative initial pages")
	}
}

func TestZeroPageReads(t *testing.T) {
	m := MustNew(1, 0)
	b, err := m.ReadU8(100)
	if err != nil || b != 0 {
		t.Fatalf("zero page read: %v %v", b, err)
	}
	v, err := m.ReadU32(200)
	if err != nil || v != 0 {
		t.Fatalf("zero page u32: %v %v", v, err)
	}
	if m.Footprint() != 0 {
		t.Fatalf("reads must not materialise pages, footprint=%d", m.Footprint())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := MustNew(2, 0)
	if err := m.WriteU32(10, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadU32(10)
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("u32 round trip: %x %v", v, err)
	}
	if err := m.WriteU64(100, 0x0123456789abcdef); err != nil {
		t.Fatal(err)
	}
	v64, err := m.ReadU64(100)
	if err != nil || v64 != 0x0123456789abcdef {
		t.Fatalf("u64 round trip: %x %v", v64, err)
	}
	if err := m.WriteU16(50, 0xbeef); err != nil {
		t.Fatal(err)
	}
	v16, err := m.ReadU16(50)
	if err != nil || v16 != 0xbeef {
		t.Fatalf("u16 round trip: %x %v", v16, err)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := MustNew(2, 0)
	off := uint32(PageSize - 2) // straddles the page boundary
	if err := m.WriteU32(off, 0xcafebabe); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadU32(off)
	if err != nil || v != 0xcafebabe {
		t.Fatalf("cross-page u32: %x %v", v, err)
	}
	big := make([]byte, PageSize+100)
	for i := range big {
		big[i] = byte(i)
	}
	if err := m.WriteBytes(10, big[:PageSize+50]); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBytes(10, PageSize+50)
	if err != nil || !bytes.Equal(got, big[:PageSize+50]) {
		t.Fatalf("cross-page bulk copy mismatch: %v", err)
	}
}

func TestOutOfBounds(t *testing.T) {
	m := MustNew(1, 1)
	cases := []func() error{
		func() error { _, err := m.ReadU8(PageSize); return err },
		func() error { return m.WriteU8(PageSize, 1) },
		func() error { _, err := m.ReadU32(PageSize - 3); return err },
		func() error { return m.WriteU32(PageSize-1, 1) },
		func() error { _, err := m.ReadU64(PageSize - 7); return err },
		func() error { return m.WriteU64(PageSize-4, 1) },
		func() error { _, err := m.ReadBytes(PageSize-10, 11); return err },
		func() error { return m.WriteBytes(PageSize-10, make([]byte, 11)) },
		func() error { _, err := m.ReadBytes(0, -1); return err },
	}
	for i, f := range cases {
		if err := f(); err == nil {
			t.Errorf("case %d: expected out-of-bounds error", i)
		}
	}
}

func TestOffsetOverflowDoesNotWrap(t *testing.T) {
	m := MustNew(1, 1)
	// off+n would wrap a uint32; the 64-bit check must still reject it.
	if err := m.WriteBytes(0xfffffff0, make([]byte, 32)); err == nil {
		t.Fatal("expected wrap-around access to be rejected")
	}
}

func TestGrow(t *testing.T) {
	m := MustNew(1, 3)
	prev, err := m.Grow(2)
	if err != nil || prev != 1 {
		t.Fatalf("grow: %d %v", prev, err)
	}
	if m.Pages() != 3 {
		t.Fatalf("pages after grow = %d", m.Pages())
	}
	if _, err := m.Grow(1); err != ErrLimit {
		t.Fatalf("expected ErrLimit, got %v", err)
	}
	if _, err := m.Grow(-1); err == nil {
		t.Fatal("expected error for negative grow")
	}
}

func TestBrk(t *testing.T) {
	m := MustNew(1, 4)
	if err := m.SetBrk(PageSize + 10); err != nil {
		t.Fatal(err)
	}
	if m.Brk() != PageSize+10 {
		t.Fatalf("brk = %d", m.Brk())
	}
	if m.Pages() != 2 {
		t.Fatalf("brk growth gave %d pages", m.Pages())
	}
	// Past the limit: fails, break unchanged.
	if err := m.SetBrk(10 * PageSize); err == nil {
		t.Fatal("expected brk past limit to fail")
	}
	if m.Brk() != PageSize+10 {
		t.Fatalf("brk changed after failure: %d", m.Brk())
	}
}

func TestSharedRegionVisibility(t *testing.T) {
	seg := NewSegment(PageSize)
	a := MustNew(1, 0)
	b := MustNew(4, 0)
	baseA, err := a.MapShared(seg)
	if err != nil {
		t.Fatal(err)
	}
	baseB, err := b.MapShared(seg)
	if err != nil {
		t.Fatal(err)
	}
	if baseA != PageSize || baseB != 4*PageSize {
		t.Fatalf("bases: %d %d", baseA, baseB)
	}
	// A write through Faaslet A is visible to Faaslet B at its own offset —
	// the core sharing property of §3.3.
	if err := a.WriteU32(baseA+8, 42); err != nil {
		t.Fatal(err)
	}
	v, err := b.ReadU32(baseB + 8)
	if err != nil || v != 42 {
		t.Fatalf("shared visibility: %d %v", v, err)
	}
	// And directly via the segment.
	if seg.Bytes()[8] != 42 {
		t.Fatal("segment bytes not updated")
	}
	if _, ok := a.SharedAt(baseA); !ok {
		t.Fatal("SharedAt should find the mapping")
	}
	if _, ok := a.SharedAt(0); ok {
		t.Fatal("SharedAt found mapping on private page")
	}
}

func TestSharedRegionKeepsAddressSpaceDense(t *testing.T) {
	seg := NewSegment(2 * PageSize)
	m := MustNew(1, 0)
	base, err := m.MapShared(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Every offset from 0 to Size must be addressable: dense linear space.
	for _, off := range []uint32{0, PageSize - 1, base, base + 2*PageSize - 1} {
		if _, err := m.ReadU8(off); err != nil {
			t.Fatalf("offset %d not addressable: %v", off, err)
		}
	}
	if _, err := m.ReadU8(m.Size()); err == nil {
		t.Fatal("read past end must fail")
	}
}

func TestSnapshotRestoreAndCOW(t *testing.T) {
	m := MustNew(2, 8)
	if err := m.WriteBytes(0, []byte("proto state")); err != nil {
		t.Fatal(err)
	}
	if err := m.SetBrk(100); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()

	r := snap.Restore()
	if r.Brk() != 100 {
		t.Fatalf("restored brk = %d", r.Brk())
	}
	got, err := r.ReadBytes(0, 11)
	if err != nil || string(got) != "proto state" {
		t.Fatalf("restored contents: %q %v", got, err)
	}
	// Restore must be cheap: no private pages materialised yet.
	if r.Footprint() != 0 {
		t.Fatalf("restore materialised %d bytes", r.Footprint())
	}

	// Writing in the restored memory must not corrupt the snapshot or the
	// original.
	if err := r.WriteBytes(0, []byte("scribble")); err != nil {
		t.Fatal(err)
	}
	if r.Footprint() != PageSize {
		t.Fatalf("COW copy not accounted: %d", r.Footprint())
	}
	r2 := snap.Restore()
	got2, _ := r2.ReadBytes(0, 11)
	if string(got2) != "proto state" {
		t.Fatalf("snapshot corrupted by restored write: %q", got2)
	}
	gotOrig, _ := m.ReadBytes(0, 11)
	if string(gotOrig) != "proto state" {
		t.Fatalf("original corrupted: %q", gotOrig)
	}

	// Writing in the original after snapshot must not affect the snapshot.
	if err := m.WriteBytes(0, []byte("mutated orig")); err != nil {
		t.Fatal(err)
	}
	r3 := snap.Restore()
	got3, _ := r3.ReadBytes(0, 11)
	if string(got3) != "proto state" {
		t.Fatalf("snapshot sees original's later writes: %q", got3)
	}
}

func TestSnapshotSerializeRoundTrip(t *testing.T) {
	m := MustNew(3, 16)
	if err := m.WriteBytes(PageSize+5, []byte("cross-host")); err != nil {
		t.Fatal(err)
	}
	if err := m.SetBrk(2 * PageSize); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	blob, err := snap.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	// Sparse: only one page materialised → 12 + (4+PageSize) bytes.
	if len(blob) != 12+4+PageSize {
		t.Fatalf("blob size = %d", len(blob))
	}
	back, err := DeserializeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	r := back.Restore()
	got, err := r.ReadBytes(PageSize+5, 10)
	if err != nil || string(got) != "cross-host" {
		t.Fatalf("cross-host restore: %q %v", got, err)
	}
	if r.Pages() != 3 || r.Brk() != 2*PageSize {
		t.Fatalf("restored shape: %d pages brk %d", r.Pages(), r.Brk())
	}
}

func TestSnapshotSerializeRejectsShared(t *testing.T) {
	m := MustNew(1, 0)
	if _, err := m.MapShared(NewSegment(PageSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Snapshot().Serialize(); err == nil {
		t.Fatal("expected ErrShared")
	}
}

func TestDeserializeSnapshotErrors(t *testing.T) {
	if _, err := DeserializeSnapshot([]byte{1, 2, 3}); err == nil {
		t.Fatal("short blob accepted")
	}
	// Valid header, truncated page record.
	blob := make([]byte, 12+10)
	blob[0] = 1
	if _, err := DeserializeSnapshot(blob); err == nil {
		t.Fatal("truncated page record accepted")
	}
}

func TestSnapshotOfRestoredMemory(t *testing.T) {
	// Chained snapshots: restore, mutate, snapshot again.
	m := MustNew(1, 4)
	m.WriteU8(0, 1)
	s1 := m.Snapshot()
	r := s1.Restore()
	r.WriteU8(1, 2)
	s2 := r.Snapshot()
	r2 := s2.Restore()
	b0, _ := r2.ReadU8(0)
	b1, _ := r2.ReadU8(1)
	if b0 != 1 || b1 != 2 {
		t.Fatalf("chained snapshot contents: %d %d", b0, b1)
	}
}

func TestFill(t *testing.T) {
	m := MustNew(2, 0)
	if err := m.Fill(PageSize-1500, 0xff, 3000); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadBytes(PageSize-1501, 3002)
	for i, b := range got {
		want := byte(0xff)
		if i == 0 || i == len(got)-1 {
			want = 0
		}
		if b != want {
			t.Fatalf("byte %d = %#x after fill, want %#x", i, b, want)
		}
	}
	if err := m.Fill(PageSize-1500, 0, 3000); err != nil {
		t.Fatal(err)
	}
	got, _ = m.ReadBytes(PageSize-1500, 3000)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d not zeroed", i)
		}
	}
	// A zero fill of untouched pages must not materialise them.
	m2 := MustNew(1, 0)
	if err := m2.Fill(0, 0, PageSize); err != nil {
		t.Fatal(err)
	}
	if m2.Footprint() != 0 {
		t.Fatal("zero fill materialised an untouched page")
	}
	// Out of range is refused before anything is written or allocated.
	if err := m2.Fill(PageSize-1, 7, 2); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("fill past the end: %v", err)
	}
	if err := m2.Fill(0, 7, 1<<32-1); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("4 GiB fill of a one-page memory: %v", err)
	}
	if m2.Footprint() != 0 {
		t.Fatal("refused fill materialised a page")
	}
	// A fill of a restored page copies it; the snapshot keeps its bytes.
	m.WriteU8(10, 1)
	snap := m.Snapshot()
	r := snap.Restore()
	if err := r.Fill(0, 9, 20); err != nil {
		t.Fatal(err)
	}
	if b, _ := m.ReadU8(10); b != 1 {
		t.Fatalf("fill leaked through copy-on-write: %d", b)
	}
}

// TestCopy checks memory.copy's memmove contract against a flat model for
// overlapping ranges in both directions, page-straddling ranges, untouched
// zero pages on either side and copy-on-write pages.
func TestCopy(t *testing.T) {
	const size = 3 * PageSize
	fresh := func() (*Memory, []byte) {
		m := MustNew(3, 0)
		model := make([]byte, size)
		for i := PageSize - 4000; i < PageSize+4000; i++ {
			model[i] = byte(i*7 + 1)
		}
		if err := m.WriteBytes(PageSize-4000, model[PageSize-4000:PageSize+4000]); err != nil {
			t.Fatal(err)
		}
		return m, model
	}
	cases := []struct{ dst, src, n int }{
		{PageSize - 3000, PageSize - 3500, 5000},   // overlap, dst above src, straddles
		{PageSize - 3500, PageSize - 3000, 5000},   // overlap, dst below src, straddles
		{2*PageSize + 100, PageSize - 2000, 4000},  // into an untouched page
		{PageSize - 2000, 2*PageSize + 4000, 3000}, // from an untouched zero page
		{2*PageSize + 10, 2*PageSize + 5000, 100},  // zero page onto zero page
		{PageSize - 1, PageSize, 1},
		{0, 0, size}, // whole memory onto itself
		{5, 900, 0},
	}
	for _, snapshotFirst := range []bool{false, true} {
		for _, c := range cases {
			m, model := fresh()
			if snapshotFirst {
				m = m.Snapshot().Restore()
			}
			if err := m.Copy(uint32(c.dst), uint32(c.src), c.n); err != nil {
				t.Fatalf("copy %+v: %v", c, err)
			}
			copy(model[c.dst:c.dst+c.n], model[c.src:c.src+c.n])
			got, _ := m.ReadBytes(0, size)
			if !bytes.Equal(got, model) {
				t.Fatalf("copy %+v (cow=%v) diverged from memmove", c, snapshotFirst)
			}
		}
	}
	m, _ := fresh()
	if err := m.Copy(0, size-10, 11); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("copy from past the end: %v", err)
	}
	if err := m.Copy(size-10, 0, 11); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("copy to past the end: %v", err)
	}
	owned := m.Footprint()
	if err := m.Copy(2*PageSize, 2*PageSize+100, 1000); err != nil || m.Footprint() != owned {
		t.Fatalf("zero-onto-zero copy materialised a page (err %v)", err)
	}
}

// TestFastPathPages pins the contract the VM's load/store fast path relies
// on: a page slice comes back only when a direct access is valid.
func TestFastPathPages(t *testing.T) {
	m := MustNew(2, 0)
	if m.ReadablePage(0) != nil || m.WritablePage(0) != nil {
		t.Fatal("untouched page offered for direct access")
	}
	if m.ReadablePage(2) != nil || m.WritablePage(1<<40) != nil {
		t.Fatal("out-of-range page offered for direct access")
	}
	m.WriteU8(5, 9)
	if pg := m.ReadablePage(0); len(pg) != PageSize || pg[5] != 9 {
		t.Fatal("materialised page not readable directly")
	}
	if pg := m.WritablePage(0); len(pg) != PageSize {
		t.Fatal("private page not writable directly")
	}
	r := m.Snapshot().Restore()
	if r.ReadablePage(0) == nil || r.WritablePage(0) != nil || m.WritablePage(0) != nil {
		t.Fatal("copy-on-write page must be readable but not directly writable")
	}
	r.WriteU8(5, 1)
	if r.WritablePage(0) == nil {
		t.Fatal("page still not directly writable after its copy")
	}
	full := MustNew(65536, 0)
	if err := full.WriteU32(1<<32-4, 7); err != nil {
		t.Fatalf("last word of a 4 GiB memory: %v", err)
	}
}

// Property: a write followed by a read at the same offset returns the value,
// regardless of page alignment (the dense-linear-space invariant).
func TestPropertyWriteReadU32(t *testing.T) {
	m := MustNew(4, 0)
	f := func(off uint32, v uint32) bool {
		off %= 4*PageSize - 4
		if err := m.WriteU32(off, v); err != nil {
			return false
		}
		got, err := m.ReadU32(off)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: bulk writes and reads agree for random offsets and lengths.
func TestPropertyBulkRoundTrip(t *testing.T) {
	m := MustNew(4, 0)
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(3 * PageSize)
		off := uint32(r.Intn(4*PageSize - n))
		data := make([]byte, n)
		rng.Read(data)
		if err := m.WriteBytes(off, data); err != nil {
			return false
		}
		got, err := m.ReadBytes(off, n)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshots are immutable under arbitrary interleaved writes to
// original and restored memories.
func TestPropertySnapshotImmutable(t *testing.T) {
	base := MustNew(2, 0)
	for i := uint32(0); i < 2*PageSize; i += 97 {
		base.WriteU8(i, byte(i))
	}
	want, _ := base.ReadBytes(0, 2*PageSize)
	snap := base.Snapshot()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := snap.Restore()
		for i := 0; i < 50; i++ {
			off := uint32(r.Intn(2 * PageSize))
			m.WriteU8(off, byte(r.Intn(256)))
			base.WriteU8(off, byte(r.Intn(256)))
		}
		fresh := snap.Restore()
		got, err := fresh.ReadBytes(0, 2*PageSize)
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteU32(b *testing.B) {
	m := MustNew(16, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.WriteU32(uint32(i*4)%(16*PageSize-4), uint32(i))
	}
}

func BenchmarkSnapshotRestore(b *testing.B) {
	m := MustNew(64, 0) // 4 MiB memory
	for p := 0; p < 64; p++ {
		m.WriteU8(uint32(p*PageSize), 1) // materialise every page
	}
	snap := m.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := snap.Restore()
		_ = r
	}
}

// dirty writes a recognisable byte into every page of m.
func dirty(t *testing.T, m *Memory, b byte) {
	t.Helper()
	if err := m.Fill(0, b, int(m.Size())); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreFromInPlace: RestoreFrom returns a live memory to the snapshot:
// written pages read as the image again, untouched zero pages are zero again,
// grown pages and the moved break are gone, and nothing is private any more.
func TestRestoreFromInPlace(t *testing.T) {
	m := MustNew(3, 16)
	if err := m.WriteBytes(10, []byte("image bytes")); err != nil {
		t.Fatal(err)
	}
	if err := m.SetBrk(4000); err != nil {
		t.Fatal(err)
	}
	image := m.Snapshot()

	for round := 0; round < 3; round++ {
		if _, err := m.Grow(4); err != nil {
			t.Fatal(err)
		}
		dirty(t, m, 0xC0+byte(round))
		if err := m.SetBrk(m.Size() - 1); err != nil {
			t.Fatal(err)
		}
		if m.Footprint() != 7*PageSize {
			t.Fatalf("round %d: footprint %d with 7 dirty pages", round, m.Footprint())
		}
		m.RestoreFrom(image)
		if m.Pages() != 3 || m.Brk() != 4000 || m.Footprint() != 0 {
			t.Fatalf("round %d: %d pages, brk %d, footprint %d after the restore", round, m.Pages(), m.Brk(), m.Footprint())
		}
		want := make([]byte, 3*PageSize)
		copy(want[10:], "image bytes")
		if got, _ := m.ReadBytes(0, 3*PageSize); !bytes.Equal(got, want) {
			t.Fatalf("round %d: memory is not the image after the restore", round)
		}
		if _, err := m.ReadU8(3 * PageSize); err == nil {
			t.Fatalf("round %d: a grown page is still addressable", round)
		}
	}
	// A snapshot larger than the memory has ever been also restores.
	big := MustNew(40, 64)
	dirty(t, big, 0x11)
	m.RestoreFrom(big.Snapshot())
	if v, _ := m.ReadU8(39*PageSize + 5); m.Pages() != 40 || v != 0x11 || m.MaxPages() != 64 {
		t.Fatalf("restore of a larger image: %d pages (limit %d), byte %#x", m.Pages(), m.MaxPages(), v)
	}
}

// TestFreeListPagesAreZero: whatever a memory wrote into a page, the next
// memory to draw that page from the free list sees zeroes — both through a
// fresh zero page and around the bytes of a copy-on-write copy.
func TestFreeListPagesAreZero(t *testing.T) {
	empty := MustNew(8, 8).Snapshot()
	for round := 0; round < 50; round++ {
		a := MustNew(8, 8)
		dirty(t, a, 0xEE)
		a.RestoreFrom(empty) // eight poisoned pages go to the free list

		b := MustNew(8, 8)
		for p := uint32(0); p < 8; p++ {
			if err := b.WriteU8(p*PageSize+77, 1); err != nil { // draws a page
				t.Fatal(err)
			}
		}
		got, _ := b.ReadBytes(0, 8*PageSize)
		for i, v := range got {
			if v != 0 && i%PageSize != 77 {
				t.Fatalf("round %d: byte %#x of a page from the free list is %#x", round, i, v)
			}
		}
	}
}

// TestRestoreFromLeavesSharedSegmentsAlone: a segment mapped after the
// snapshot is unmapped by the restore and not one byte of it is touched; a
// segment that is part of the snapshot is mapped again.
func TestRestoreFromLeavesSharedSegmentsAlone(t *testing.T) {
	m := MustNew(1, 16)
	image := m.Snapshot()
	seg := NewSegment(2 * PageSize)
	for i := range seg.Bytes() {
		seg.Bytes()[i] = byte(i * 7)
	}
	want := append([]byte(nil), seg.Bytes()...)
	base, err := m.MapShared(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteU8(base+5, want[5]); err != nil { // a store through the window
		t.Fatal(err)
	}
	m.RestoreFrom(image)
	if _, ok := m.SharedAt(base); ok || m.Pages() != 1 {
		t.Fatalf("segment still mapped after the restore (%d pages)", m.Pages())
	}
	if !bytes.Equal(seg.Bytes(), want) {
		t.Fatal("the restore modified the shared segment")
	}

	base, _ = m.MapShared(seg)
	withSeg := m.Snapshot()
	other := NewSegment(PageSize)
	if _, err := m.MapShared(other); err != nil {
		t.Fatal(err)
	}
	m.RestoreFrom(withSeg)
	if s, ok := m.SharedAt(base); !ok || s != seg || m.Pages() != 3 {
		t.Fatalf("the snapshot's own segment was not mapped back (%d pages)", m.Pages())
	}
	if v, _ := m.ReadU8(base + 9); v != want[9] {
		t.Fatalf("read through the re-mapped window: %#x", v)
	}
}

// TestRestoreFromConcurrently restores one snapshot into 64 memories at once,
// each writing, checking and restoring in a loop: under -race, the proof that
// restored memories never write to the pages they share.
func TestRestoreFromConcurrently(t *testing.T) {
	src := MustNew(4, 8)
	dirty(t, src, 0x42)
	image := src.Snapshot()
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := image.Restore()
			for n := 0; n < 50; n++ {
				off := uint32((g*977 + n*131) % (4*PageSize - 8))
				if err := m.WriteU64(off, uint64(g)<<32|uint64(n)); err != nil {
					t.Error(err)
					return
				}
				if v, _ := m.ReadU64(off); v != uint64(g)<<32|uint64(n) {
					t.Errorf("memory %d read back %#x", g, v)
					return
				}
				m.RestoreFrom(image)
				if v, _ := m.ReadU64(off); v != 0x4242424242424242 {
					t.Errorf("memory %d sees %#x after a restore", g, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
