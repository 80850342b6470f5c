package paging

import (
	"testing"

	"multiverse/internal/cycles"
	"multiverse/internal/mem"
)

func newMMUSpace(t *testing.T) (*mem.PhysMem, *AddressSpace, *MMU) {
	t.Helper()
	pm := mem.NewFlat(256)
	as, err := NewAddressSpace(pm, 0, "walk")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMMU(8)
	m.LoadCR3(as)
	return pm, as, m
}

func TestTranslateHitAndMiss(t *testing.T) {
	pm, as, m := newMMUSpace(t)
	target, _ := pm.Alloc(0, "p")
	va := uint64(0x7000)
	if err := as.Map(va, target, PteUser|PteWrite); err != nil {
		t.Fatal(err)
	}

	clk := cycles.NewClock(0)
	cost := cycles.DefaultCostModel()
	f, fault := m.Translate(va, Access{User: true}, clk, cost)
	if fault != nil {
		t.Fatalf("fault: %v", fault)
	}
	if f != target {
		t.Errorf("frame = %d", f)
	}
	missCost := clk.Now()
	if missCost != 4*cost.TLBMissPerLevel {
		t.Errorf("miss cost = %d", missCost)
	}

	// Second access: TLB hit, cheaper.
	before := clk.Now()
	if _, fault := m.Translate(va, Access{User: true}, clk, cost); fault != nil {
		t.Fatalf("fault on hit: %v", fault)
	}
	if clk.Now()-before != cost.TLBHit {
		t.Errorf("hit cost = %d", clk.Now()-before)
	}
	hits, misses, _ := m.TLB().Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses", hits, misses)
	}
}

func TestTranslateNotPresent(t *testing.T) {
	_, _, m := newMMUSpace(t)
	_, fault := m.Translate(0x9000, Access{User: true}, nil, nil)
	if fault == nil {
		t.Fatal("expected fault")
	}
	if fault.Present {
		t.Error("not-present fault marked as protection")
	}
	if fault.Addr != 0x9000 {
		t.Errorf("CR2 = %#x", fault.Addr)
	}
}

func TestUserCannotTouchSupervisorPage(t *testing.T) {
	pm, as, m := newMMUSpace(t)
	target, _ := pm.Alloc(0, "k")
	if err := as.Map(0xA000, target, PteWrite); err != nil { // no PteUser
		t.Fatal(err)
	}
	_, fault := m.Translate(0xA000, Access{User: true}, nil, nil)
	if fault == nil || !fault.Present || !fault.User {
		t.Fatalf("want user protection fault, got %v", fault)
	}
	// Supervisor access succeeds.
	if _, fault := m.Translate(0xA000, Access{}, nil, nil); fault != nil {
		t.Errorf("supervisor access faulted: %v", fault)
	}
}

// TestCR0WPSemantics verifies the exact behaviour the paper fixes in
// section 4.4: ring-0 writes to read-only pages silently succeed with
// CR0.WP clear ("mysterious memory corruption") and fault with it set.
func TestCR0WPSemantics(t *testing.T) {
	pm, as, m := newMMUSpace(t)
	target, _ := pm.Alloc(0, "ro")
	if err := as.Map(0xB000, target, PteUser); err != nil { // read-only
		t.Fatal(err)
	}

	// WP clear: the supervisor write is (wrongly, for Multiverse's
	// purposes) allowed.
	m.SetWP(false)
	if _, fault := m.Translate(0xB000, Access{Write: true}, nil, nil); fault != nil {
		t.Errorf("WP=0 supervisor write faulted: %v", fault)
	}

	// WP set: the write faults like a user write would.
	m.SetWP(true)
	m.TLB().FlushAll()
	_, fault := m.Translate(0xB000, Access{Write: true}, nil, nil)
	if fault == nil || !fault.Present || !fault.Write {
		t.Fatalf("WP=1 supervisor write did not fault properly: %v", fault)
	}
	// User writes fault regardless.
	_, fault = m.Translate(0xB000, Access{Write: true, User: true}, nil, nil)
	if fault == nil {
		t.Fatal("user write to RO page must fault")
	}
}

func TestTLBEvictionFIFO(t *testing.T) {
	pm, as, m := newMMUSpace(t)
	// Capacity is 8; map 10 pages and touch them in order.
	for i := uint64(0); i < 10; i++ {
		f, _ := pm.Alloc(0, "p")
		if err := as.Map(0x10000+i*4096, f, PteUser); err != nil {
			t.Fatal(err)
		}
		if _, fault := m.Translate(0x10000+i*4096, Access{User: true}, nil, nil); fault != nil {
			t.Fatal(fault)
		}
	}
	if m.TLB().Len() != 8 {
		t.Errorf("TLB len = %d, want 8", m.TLB().Len())
	}
	// The first two pages were evicted: touching them misses again.
	_, misses0, _ := m.TLB().Stats()
	if _, fault := m.Translate(0x10000, Access{User: true}, nil, nil); fault != nil {
		t.Fatal(fault)
	}
	_, misses1, _ := m.TLB().Stats()
	if misses1 != misses0+1 {
		t.Error("evicted entry did not miss")
	}
}

func TestTLBFlushVA(t *testing.T) {
	pm, as, m := newMMUSpace(t)
	f, _ := pm.Alloc(0, "p")
	if err := as.Map(0xC000, f, PteUser|PteWrite); err != nil {
		t.Fatal(err)
	}
	if _, fault := m.Translate(0xC000, Access{User: true}, nil, nil); fault != nil {
		t.Fatal(fault)
	}
	// Tighten the PTE behind the TLB's back, then invlpg.
	if err := as.Protect(0xC000, PteUser); err != nil {
		t.Fatal(err)
	}
	m.TLB().FlushVA(0xC000)
	_, fault := m.Translate(0xC000, Access{User: true, Write: true}, nil, nil)
	if fault == nil {
		t.Error("stale translation survived FlushVA")
	}
}

// TestStaleTLBHidesProtectionChange documents the hazard the AeroKernel
// handles by flushing after forwarded memory-management calls: without an
// invalidation, a cached writable translation lets writes through a
// now-read-only page.
func TestStaleTLBHidesProtectionChange(t *testing.T) {
	pm, as, m := newMMUSpace(t)
	f, _ := pm.Alloc(0, "p")
	if err := as.Map(0xD000, f, PteUser|PteWrite); err != nil {
		t.Fatal(err)
	}
	if _, fault := m.Translate(0xD000, Access{User: true, Write: true}, nil, nil); fault != nil {
		t.Fatal(fault)
	}
	if err := as.Protect(0xD000, PteUser); err != nil {
		t.Fatal(err)
	}
	// No flush: the stale writable entry still serves the write.
	if _, fault := m.Translate(0xD000, Access{User: true, Write: true}, nil, nil); fault != nil {
		t.Errorf("expected stale TLB to (incorrectly) allow the write; got %v", fault)
	}
}

func TestLoadCR3FlushesTLB(t *testing.T) {
	pm, as, m := newMMUSpace(t)
	f, _ := pm.Alloc(0, "p")
	if err := as.Map(0xE000, f, PteUser); err != nil {
		t.Fatal(err)
	}
	if _, fault := m.Translate(0xE000, Access{User: true}, nil, nil); fault != nil {
		t.Fatal(fault)
	}
	if m.TLB().Len() == 0 {
		t.Fatal("expected cached translation")
	}
	m.LoadCR3(as)
	if m.TLB().Len() != 0 {
		t.Error("CR3 reload did not flush the TLB")
	}
}

// TestTLBFlushVAAbsent pins invlpg semantics for a page that was never
// cached: nothing is removed and resident entries keep hitting.
func TestTLBFlushVAAbsent(t *testing.T) {
	pm, as, m := newMMUSpace(t)
	f, _ := pm.Alloc(0, "p")
	if err := as.Map(0xF000, f, PteUser); err != nil {
		t.Fatal(err)
	}
	if _, fault := m.Translate(0xF000, Access{User: true}, nil, nil); fault != nil {
		t.Fatal(fault)
	}
	before := m.TLB().Len()
	m.TLB().FlushVA(0x55000) // never translated
	if got := m.TLB().Len(); got != before {
		t.Errorf("FlushVA of absent page changed residency: %d -> %d", before, got)
	}
	hits0, _, _ := m.TLB().Stats()
	if _, fault := m.Translate(0xF000, Access{User: true}, nil, nil); fault != nil {
		t.Fatal(fault)
	}
	if hits1, _, _ := m.TLB().Stats(); hits1 != hits0+1 {
		t.Error("resident entry stopped hitting after absent-page FlushVA")
	}
}

// TestTLBStatsFlushAccounting pins what counts as a full flush: FlushAll
// does, per-page invalidations do not.
func TestTLBStatsFlushAccounting(t *testing.T) {
	_, _, m := newMMUSpace(t)
	_, _, flushes0 := m.TLB().Stats() // the LoadCR3 in setup already flushed once
	m.TLB().FlushAll()
	m.TLB().FlushAll()
	if _, _, f := m.TLB().Stats(); f != flushes0+2 {
		t.Errorf("flushes = %d, want %d", f, flushes0+2)
	}
	m.TLB().FlushVA(0x1000)
	if _, _, f := m.TLB().Stats(); f != flushes0+2 {
		t.Errorf("per-page invalidations counted as full flushes (%d)", f)
	}
}

func TestFaultErrorString(t *testing.T) {
	f := &Fault{Addr: 0x123000, Write: true, User: false, Present: true}
	s := f.Error()
	for _, want := range []string{"0x123000", "write", "supervisor", "protection"} {
		if !contains(s, want) {
			t.Errorf("fault string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	}()
}
