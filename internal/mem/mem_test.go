package mem

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestFrameAddr(t *testing.T) {
	if Frame(1).Addr() != 4096 {
		t.Errorf("frame 1 addr = %#x", Frame(1).Addr())
	}
	if FrameOf(0x5123) != 5 {
		t.Errorf("FrameOf(0x5123) = %d", FrameOf(0x5123))
	}
}

func TestAllocFree(t *testing.T) {
	pm := NewFlat(4)
	var frames []Frame
	for i := 0; i < 4; i++ {
		f, err := pm.Alloc(0)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		frames = append(frames, f)
	}
	if _, err := pm.Alloc(0); err == nil {
		t.Error("alloc on exhausted zone should fail")
	}
	if pm.InUse() != 4 {
		t.Errorf("InUse = %d", pm.InUse())
	}
	for _, f := range frames {
		if err := pm.Free(f); err != nil {
			t.Fatalf("free: %v", err)
		}
	}
	if pm.InUse() != 0 {
		t.Errorf("InUse after free = %d", pm.InUse())
	}
	if err := pm.Free(frames[0]); err == nil {
		t.Error("double free should fail")
	}
}

func TestAllocNRollsBack(t *testing.T) {
	pm := NewFlat(3)
	if _, err := pm.AllocN(0, 5); err == nil {
		t.Fatal("AllocN beyond capacity should fail")
	}
	if pm.InUse() != 0 {
		t.Errorf("failed AllocN leaked %d frames", pm.InUse())
	}
	fs, err := pm.AllocN(0, 3)
	if err != nil {
		t.Fatalf("AllocN: %v", err)
	}
	if len(fs) != 3 {
		t.Errorf("got %d frames", len(fs))
	}
}

func TestZones(t *testing.T) {
	pm := New(
		Zone{ID: 0, Start: 0, Count: 2},
		Zone{ID: 1, Start: 2, Count: 2},
	)
	f0, err := pm.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := pm.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	z0, ok := pm.ZoneOf(f0)
	if !ok || z0.ID != 0 {
		t.Errorf("frame %d in zone %v", f0, z0.ID)
	}
	z1, ok := pm.ZoneOf(f1)
	if !ok || z1.ID != 1 {
		t.Errorf("frame %d in zone %v", f1, z1.ID)
	}
	if pm.FreeCount(0) != 1 || pm.FreeCount(1) != 1 {
		t.Errorf("free counts = %d, %d", pm.FreeCount(0), pm.FreeCount(1))
	}
}

func TestOverlappingZonesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overlapping zones should panic")
		}
	}()
	New(Zone{ID: 0, Start: 0, Count: 4}, Zone{ID: 1, Start: 2, Count: 4})
}

// TestAllocMarksFrameInUse: an allocated frame has state, and a frame
// never allocated or freed again has none.
func TestAllocMarksFrameInUse(t *testing.T) {
	pm := NewFlat(2)
	f, _ := pm.Alloc(0)
	if pm.state(f) == nil {
		t.Errorf("frame %d has no state after Alloc", f)
	}
	if g := f ^ 1; pm.state(g) != nil {
		t.Errorf("never-allocated frame %d has state", g)
	}
	if err := pm.Free(f); err != nil {
		t.Fatal(err)
	}
	if pm.state(f) != nil {
		t.Errorf("frame %d has state after Free", f)
	}
}

func TestReadWriteU64(t *testing.T) {
	pm := NewFlat(2)
	f, _ := pm.Alloc(0)
	pa := f.Addr() + 64
	if err := pm.WriteU64(pa, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := pm.ReadU64(pa)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeefcafef00d {
		t.Errorf("ReadU64 = %#x", v)
	}
	// Unallocated frame access fails.
	if _, err := pm.ReadU64(1 << 30); err == nil {
		t.Error("read of unallocated frame should fail")
	}
	// Cross-page access fails.
	if err := pm.WriteU64(f.Addr()+4090, 1); err == nil {
		t.Error("page-crossing write should fail")
	}
}

func TestFreeDropsContents(t *testing.T) {
	pm := NewFlat(1)
	f, _ := pm.Alloc(0)
	if err := pm.WriteU64(f.Addr(), 42); err != nil {
		t.Fatal(err)
	}
	if err := pm.Free(f); err != nil {
		t.Fatal(err)
	}
	f2, _ := pm.Alloc(0)
	if f2 != f {
		t.Fatalf("expected frame reuse")
	}
	v, err := pm.ReadU64(f2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("reallocated frame not zeroed: %#x", v)
	}
}

// Property: WriteU64 then ReadU64 round-trips for any aligned offset.
func TestReadWriteRoundTripProperty(t *testing.T) {
	pm := NewFlat(4)
	f, _ := pm.Alloc(0)
	prop := func(off uint16, v uint64) bool {
		o := uint64(off) % (PageSize - 8)
		pa := f.Addr() + o
		if err := pm.WriteU64(pa, v); err != nil {
			return false
		}
		got, err := pm.ReadU64(pa)
		return err == nil && got == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestAllocOrder pins the order frames are handed out in: a fresh zone
// gives End-1, End-2, ..., and a freed frame is reused before any frame
// that was never allocated, most recently freed first. Page-table frames,
// and so every simulated address built on them, follow this order.
func TestAllocOrder(t *testing.T) {
	pm := New(Zone{ID: 0, Start: 10, Count: 4}, Zone{ID: 1, Start: 20, Count: 2})
	alloc := func(z NUMAZone) Frame {
		t.Helper()
		f, err := pm.Alloc(z)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	var got []Frame
	got = append(got, alloc(0), alloc(0), alloc(1))
	if err := pm.Free(13); err != nil {
		t.Fatal(err)
	}
	if err := pm.Free(12); err != nil {
		t.Fatal(err)
	}
	got = append(got, alloc(0), alloc(0), alloc(0), alloc(1), alloc(0))
	want := []Frame{13, 12, 21, 12, 13, 11, 20, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("allocation order = %v, want %v", got, want)
		}
	}
	if n := pm.FreeCount(0); n != 0 {
		t.Errorf("FreeCount(0) = %d, want 0", n)
	}

	// A seeded mix of allocs and frees against the reference allocator: a
	// LIFO stack holding every frame of the zone in ascending order.
	pm = NewFlat(64)
	stack := make([]Frame, 64)
	for i := range stack {
		stack[i] = Frame(i)
	}
	var held []Frame
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 2000; step++ {
		if len(stack) > 0 && (len(held) == 0 || rng.Intn(3) > 0) {
			f, err := pm.Alloc(0)
			if err != nil {
				t.Fatal(err)
			}
			want := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if f != want {
				t.Fatalf("step %d: Alloc = %d, reference %d", step, f, want)
			}
			held = append(held, f)
		} else {
			i := rng.Intn(len(held))
			f := held[i]
			held = append(held[:i], held[i+1:]...)
			if err := pm.Free(f); err != nil {
				t.Fatal(err)
			}
			stack = append(stack, f)
		}
		if pm.FreeCount(0) != len(stack) {
			t.Fatalf("step %d: FreeCount = %d, reference %d", step, pm.FreeCount(0), len(stack))
		}
	}
}

// TestNewAllocBytes bounds what building the default machine's physical
// memory (two zones of 16,384 frames) costs the host: the table of chunk
// pointers only, with no list of free frames and no per-frame state until
// a frame is allocated.
func TestNewAllocBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pm := New(Zone{ID: 0, Start: 0, Count: 16384}, Zone{ID: 1, Start: 16384, Count: 16384})
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pm)
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("New allocated %d bytes for the default machine", n)
	if n >= 1<<20 {
		t.Errorf("New allocated %d bytes for the default machine, want < 1 MiB", n)
	}
}

// TestChunkBoundaries drives every frame operation at the first and last
// frame of a chunk, the first frame of the next one and the machine's
// last frame. Single-frame zones make Alloc hand out exactly those frames.
func TestChunkBoundaries(t *testing.T) {
	pm := New(
		Zone{ID: 0, Start: 0, Count: 1},
		Zone{ID: 1, Start: chunkFrames - 1, Count: 2},
		Zone{ID: 2, Start: 4*chunkFrames - 1, Count: 1},
	)
	want := []struct {
		zone NUMAZone
		f    Frame
	}{{0, 0}, {1, chunkFrames}, {1, chunkFrames - 1}, {2, 4*chunkFrames - 1}}
	for _, w := range want {
		f, err := pm.Alloc(w.zone)
		if err != nil || f != w.f {
			t.Fatalf("Alloc(zone %d) = %d, %v; want frame %d", w.zone, f, err, w.f)
		}
		st := pm.state(f)
		if st == nil {
			t.Fatalf("frame %d has no state after Alloc", f)
		}
		if st.page != nil {
			t.Errorf("frame %d has storage before its first touch", f)
		}
		if err := pm.WriteU64(f.Addr()+8, uint64(f)+1); err != nil {
			t.Fatalf("WriteU64 frame %d: %v", f, err)
		}
		if st.page == nil {
			t.Errorf("frame %d has no storage after WriteU64", f)
		}
		if v, err := pm.ReadU64(f.Addr() + 8); err != nil || v != uint64(f)+1 {
			t.Errorf("ReadU64 frame %d = %d, %v; want %d", f, v, err, uint64(f)+1)
		}
	}
	if n := pm.InUse(); n != len(want) {
		t.Errorf("InUse = %d, want %d", n, len(want))
	}
	for _, w := range want {
		if err := pm.Free(w.f); err != nil {
			t.Errorf("Free(%d): %v", w.f, err)
		}
		if pm.state(w.f) != nil {
			t.Errorf("freed frame %d has state", w.f)
		}
	}
	if n := pm.InUse(); n != 0 {
		t.Errorf("InUse after freeing all = %d", n)
	}
}

// TestUnallocatedFrameErrors: a frame in a chunk no Alloc ever touched,
// one past the machine and a frame freed twice all give the errors an
// unallocated frame always gave.
func TestUnallocatedFrameErrors(t *testing.T) {
	pm := NewFlat(4 * chunkFrames)
	f, err := pm.Alloc(0) // the last chunk's last frame
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []Frame{chunkFrames + 7, 4 * chunkFrames} {
		if pm.state(g) != nil {
			t.Errorf("unallocated frame %d has state", g)
		}
		if err := pm.WriteU64(g.Addr(), 1); err == nil || err.Error() != fmt.Sprintf("mem: access to unallocated frame %#x", uint64(g)) {
			t.Errorf("WriteU64 frame %d error = %v", g, err)
		}
		if err := pm.Share(g, new([PageSize]byte)); err == nil || err.Error() != fmt.Sprintf("mem: access to unallocated frame %#x", uint64(g)) {
			t.Errorf("Share(%d) error = %v", g, err)
		}
		if _, err := pm.ReadU64(g.Addr()); err == nil || err.Error() != fmt.Sprintf("mem: access to unallocated frame %#x", uint64(g)) {
			t.Errorf("ReadU64 frame %d error = %v", g, err)
		}
		if err := pm.Free(g); err == nil || err.Error() != fmt.Sprintf("mem: double free of frame %#x", uint64(g)) {
			t.Errorf("Free(%d) error = %v", g, err)
		}
	}
	if err := pm.Free(f); err != nil {
		t.Fatal(err)
	}
	if err := pm.Free(f); err == nil || err.Error() != fmt.Sprintf("mem: double free of frame %#x", uint64(f)) {
		t.Errorf("second Free(%d) error = %v", f, err)
	}
}

// TestSharedFrameCopiesOnWrite: frames sharing a template read it in
// place; the first write to one gives that frame a private copy, leaving
// the template and the other frame as they were; Free drops the share.
func TestSharedFrameCopiesOnWrite(t *testing.T) {
	tmpl := new([PageSize]byte)
	for i := range tmpl {
		tmpl[i] = byte(i)
	}
	want := *tmpl
	a, b := NewFlat(2), NewFlat(2)
	fa, _ := a.Alloc(0)
	fb, _ := b.Alloc(0)
	if err := a.Share(fa, tmpl); err != nil {
		t.Fatal(err)
	}
	if err := b.Share(fb, tmpl); err != nil {
		t.Fatal(err)
	}
	word := func(pm *PhysMem, f Frame, off uint64) uint64 {
		t.Helper()
		v, err := pm.ReadU64(f.Addr() + off)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	orig := word(a, fa, 64)
	if a.state(fa).page != tmpl {
		t.Error("a read copied the shared page")
	}
	if err := a.WriteU64(fa.Addr()+64, 7); err != nil {
		t.Fatal(err)
	}
	if st := a.state(fa); st.page == tmpl || st.shared {
		t.Error("a write left the frame on its template")
	}
	if got := word(a, fa, 64); got != 7 {
		t.Errorf("written word = %#x, want 7", got)
	}
	if got := word(a, fa, 72); got != word(b, fb, 72) {
		t.Errorf("copy lost the template's other words: %#x", got)
	}
	if got := word(b, fb, 64); got != orig {
		t.Errorf("other machine's frame reads %#x, want %#x", got, orig)
	}
	if *tmpl != want {
		t.Error("a write reached the template")
	}
	if err := b.Free(fb); err != nil {
		t.Fatal(err)
	}
	if f, _ := b.Alloc(0); f != fb || word(b, f, 64) != 0 {
		t.Errorf("frame %d reallocated after Free still reads the template", f)
	}
}

// TestFrameChunkFitsPage: a frame's state is a page pointer and two flags,
// 16 bytes, so a chunk of it is one 4 KiB page.
func TestFrameChunkFitsPage(t *testing.T) {
	if n := unsafe.Sizeof(frameState{}); n != 16 {
		t.Errorf("unsafe.Sizeof(frameState{}) = %d, want 16", n)
	}
	if n := unsafe.Sizeof([chunkFrames]frameState{}); n != PageSize {
		t.Errorf("a chunk is %d bytes, want %d", n, PageSize)
	}
}

// TestStateFollowsAllocatedFrames: a 32,768-frame machine with one
// allocated frame holds the state of one chunk, not of every frame.
func TestStateFollowsAllocatedFrames(t *testing.T) {
	pm := NewFlat(32768)
	if _, err := pm.Alloc(0); err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, c := range pm.chunks {
		if c != nil {
			held++
		}
	}
	if held != 1 || len(pm.chunks) != 32768/chunkFrames {
		t.Errorf("%d of %d chunks held, want 1 of %d", held, len(pm.chunks), 32768/chunkFrames)
	}
}
