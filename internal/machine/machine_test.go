package machine

import (
	"bytes"
	"runtime"
	"testing"

	"multiverse/internal/cycles"
)

func newMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTopology(t *testing.T) {
	m := newMachine(t)
	if m.NumCores() != 8 {
		t.Fatalf("cores = %d", m.NumCores())
	}
	// Paper testbed: 4 cores per socket.
	if !m.SameSocket(0, 3) {
		t.Error("cores 0 and 3 should share socket 0")
	}
	if m.SameSocket(0, 4) {
		t.Error("cores 0 and 4 are on different sockets")
	}
	if m.ZoneOfCore(0) == m.ZoneOfCore(7) {
		t.Error("per-socket NUMA zones expected")
	}
}

func TestBadSpec(t *testing.T) {
	if _, err := New(Spec{Sockets: 0, CoresPerSocket: 4}); err == nil {
		t.Error("zero sockets should fail")
	}
}

func TestCoreOutOfRangePanics(t *testing.T) {
	m := newMachine(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Core(99)
}

func TestGDTIsolation(t *testing.T) {
	m := newMachine(t)
	c := m.Core(0)
	g := GDT{Entries: []SegmentDescriptor{{Base: 0x1000, DPL: 3}}}
	c.SetGDT(g)
	g.Entries[0].Base = 0xDEAD // mutate the caller's copy
	got := c.GDT()
	if got.Entries[0].Base != 0x1000 {
		t.Error("SetGDT did not deep-copy")
	}
	got.Entries[0].Base = 0xBEEF
	if c.GDT().Entries[0].Base != 0x1000 {
		t.Error("GDT() did not deep-copy")
	}
}

func TestFSBase(t *testing.T) {
	c := newMachine(t).Core(2)
	c.SetFSBase(0x7ffe_1234)
	if c.FSBase() != 0x7ffe_1234 {
		t.Errorf("FSBase = %#x", c.FSBase())
	}
}

func TestRaiseWithoutHandlerFails(t *testing.T) {
	c := newMachine(t).Core(0)
	if err := c.Raise(VecPageFault, Context{Clock: cycles.NewClock(0)}, &InterruptFrame{}, 0); err == nil {
		t.Error("raise without handler should fail")
	}
}

func TestRaiseSyncsClock(t *testing.T) {
	m := newMachine(t)
	c := m.Core(0)
	clk := cycles.NewClock(100)
	var seen *InterruptFrame
	if err := c.SetHandler(VecPageFault, 0, func(_ *Core, f *InterruptFrame) { seen = f }); err != nil {
		t.Fatal(err)
	}
	owner := new(int)
	if err := c.Raise(VecPageFault, Context{Clock: clk, Owner: owner}, &InterruptFrame{CR2: 0x42}, 500); err != nil {
		t.Fatal(err)
	}
	if seen == nil || seen.CR2 != 0x42 {
		t.Fatal("handler not invoked with frame")
	}
	if seen.Ctx.Owner != owner || seen.Ctx.Clock != clk {
		t.Error("handler did not see the interrupted context")
	}
	if clk.Now() < 500 {
		t.Errorf("clock not synced to arrival: %d", clk.Now())
	}
}

func TestISTValidation(t *testing.T) {
	c := newMachine(t).Core(0)
	if err := c.SetHandler(VecPageFault, 9, nil); err == nil {
		t.Error("IST index 9 should be rejected")
	}
	if err := c.SetISTStack(0, NewStack(4096)); err == nil {
		t.Error("IST slot 0 should be rejected")
	}
}

// TestRedZoneClobberedWithoutIST reproduces the hazard of section 4.4: an
// interrupt landing on the current stack destroys the red zone a leaf
// function is using; with an IST stack configured, it survives.
func TestRedZoneClobberedWithoutIST(t *testing.T) {
	m := newMachine(t)

	runCase := func(useIST bool) (intact bool) {
		c := m.Core(0)
		user := NewStack(4096)
		ist := 0
		if useIST {
			if err := c.SetISTStack(1, NewStack(4096)); err != nil {
				t.Fatal(err)
			}
			ist = 1
		}
		if err := c.SetHandler(VecHVMEvent, ist, func(*Core, *InterruptFrame) {}); err != nil {
			t.Fatal(err)
		}
		// A leaf function stores into the red zone...
		for off := 0; off < 16; off++ {
			if err := user.WriteRedZone(off, byte(0xA0+off)); err != nil {
				t.Fatal(err)
			}
		}
		// ...an interrupt arrives...
		if err := c.Raise(VecHVMEvent, Context{Clock: cycles.NewClock(0), Stack: user}, &InterruptFrame{}, 0); err != nil {
			t.Fatal(err)
		}
		// ...and the leaf function reads its data back.
		for off := 0; off < 16; off++ {
			b, err := user.ReadRedZone(off)
			if err != nil {
				t.Fatal(err)
			}
			if b != byte(0xA0+off) {
				return false
			}
		}
		return true
	}

	if runCase(false) {
		t.Error("red zone survived an interrupt on the current stack — hazard not modelled")
	}
	if !runCase(true) {
		t.Error("red zone destroyed despite IST stack switch")
	}
}

// TestSyscallPullDownProtectsRedZone models the Nautilus stub workaround:
// SYSCALL cannot IST-switch, so the stub pulls RSP past the red zone
// before anything pushes.
func TestSyscallPullDownProtectsRedZone(t *testing.T) {
	s := NewStack(4096)
	for off := 0; off < RedZoneSize; off++ {
		if err := s.WriteRedZone(off, byte(off)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.PullDown(RedZoneSize); err != nil {
		t.Fatal(err)
	}
	// The stub's own frame push now lands below the red zone.
	s.PushFrame(&InterruptFrame{Vector: VecHVMEvent})
	s.PopFrame()
	if err := s.Release(RedZoneSize); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < RedZoneSize; off++ {
		b, err := s.ReadRedZone(off)
		if err != nil {
			t.Fatal(err)
		}
		if b != byte(off) {
			t.Fatalf("red zone byte %d clobbered despite pull-down", off)
		}
	}
}

func TestStackOverflowChecks(t *testing.T) {
	s := NewStack(256)
	if _, err := s.PullDown(10_000); err == nil {
		t.Error("pull-down past stack bottom should fail")
	}
	if err := s.Release(10_000); err == nil {
		t.Error("release past stack top should fail")
	}
}

// stackBytes reads every byte of s through the red-zone window, walking
// RSP down from the top and back, so it sees what a guest could.
func stackBytes(t *testing.T, s *Stack) []byte {
	t.Helper()
	out := make([]byte, 0, s.Size())
	top := s.SP()
	for {
		sp := s.SP()
		for off := 0; off < RedZoneSize && sp-1-off >= 0; off++ {
			b, err := s.ReadRedZone(off)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		if sp <= RedZoneSize {
			break
		}
		if _, err := s.PullDown(RedZoneSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Release(top - s.SP()); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStackResetReadsLikeFresh dirties a paged stack with interrupt
// frames and red-zone bytes that straddle a page boundary, then requires
// Reset to leave it byte-for-byte a fresh NewStack of the same size.
func TestStackResetReadsLikeFresh(t *testing.T) {
	const size = 4 * pageSize
	s := NewStack(size)
	// Park RSP 20 bytes above the boundary between pages 1 and 2, so the
	// red zone and the frame below RSP both cross it.
	if _, err := s.PullDown(size - 2*pageSize - 20); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < RedZoneSize; off++ {
		if err := s.WriteRedZone(off, byte(0xA0+off)); err != nil {
			t.Fatal(err)
		}
	}
	s.PushFrame(&InterruptFrame{Vector: VecHVMEvent})
	s.PushFrame(&InterruptFrame{Vector: VecPageFault})
	dirty := stackBytes(t, s)
	if bytes.Count(dirty, []byte{0}) == len(dirty) {
		t.Fatal("writes did not reach the stack")
	}

	s.Reset()
	fresh := NewStack(size)
	if s.SP() != fresh.SP() || s.Size() != fresh.Size() {
		t.Fatalf("reset SP/Size = %d/%d, fresh %d/%d", s.SP(), s.Size(), fresh.SP(), fresh.Size())
	}
	got, want := stackBytes(t, s), stackBytes(t, fresh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reset stack reads %#x at walk position %d, fresh reads %#x", got[i], i, want[i])
		}
	}
}

var stackSink *Stack

// TestStackAllocs bounds the host cost of the paged stack: a fresh 256 KiB
// stack costs its page table, not its bytes, and a warm reset or an
// interrupt on a touched page allocates nothing.
func TestStackAllocs(t *testing.T) {
	s := NewStack(256 * 1024)
	f := &InterruptFrame{Vector: VecHVMEvent}
	s.PushFrame(f)
	s.PopFrame()
	// Reset keeps the touched pages, so reusing the stack after it (a
	// warm claim) allocates nothing either.
	if n := testing.AllocsPerRun(100, func() { s.Reset(); s.PushFrame(f); s.PopFrame() }); n != 0 {
		t.Errorf("Reset of a touched stack, then an interrupt: %.0f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.PushFrame(f); s.PopFrame() }); n != 0 {
		t.Errorf("PushFrame/PopFrame on a touched page: %.0f allocs, want 0", n)
	}

	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		stackSink = NewStack(256 * 1024)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
		t.Errorf("NewStack(256 KiB) allocates %d bytes, want <= 1024", per)
	} else {
		t.Logf("NewStack(256 KiB) allocates %d bytes", per)
	}
}

func TestShootdownTLB(t *testing.T) {
	m := newMachine(t)
	clk := cycles.NewClock(0)
	before := clk.Now()
	m.ShootdownTLB(clk, 0, []CoreID{0, 1, 2})
	// 1 local flush + 2 remote IPIs+flushes.
	want := m.Cost.TLBFlushLocal + 2*(m.Cost.TLBShootdownIPI+m.Cost.TLBFlushLocal)
	if clk.Now()-before != want {
		t.Errorf("shootdown cost = %d, want %d", clk.Now()-before, want)
	}
}
