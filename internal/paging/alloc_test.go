package paging

import (
	"testing"

	"multiverse/internal/cycles"
)

// The TLB and the page walker sit on the hottest path the simulator has:
// every simulated memory touch goes through MMU.Translate. These tests pin
// the allocation-free property the raw-speed pass established — any Go
// allocation creeping back into lookup/insert/flush or the warm translate
// path is a regression, caught here rather than in a profile weeks later.

func TestTLBOpsAllocationFree(t *testing.T) {
	tl := NewTLB(64)
	// Warm: populate well past one set so the eviction path runs too.
	for i := uint64(0); i < 256; i++ {
		tl.insert(i<<12, i|0x1)
	}

	if n := testing.AllocsPerRun(200, func() {
		tl.insert(0x1234<<12, 0x9)
		tl.lookup(0x1234 << 12)
		tl.lookup(0xdead << 12) // miss path
		tl.FlushVA(0x1234 << 12)
	}); n != 0 {
		t.Errorf("TLB insert/lookup/flushVA allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		tl.FlushAll()
	}); n != 0 {
		t.Errorf("TLB FlushAll allocates %.1f per run, want 0", n)
	}
}

func TestTranslateWarmPathAllocationFree(t *testing.T) {
	pm, as, m := newMMUSpace(t)
	target, _ := pm.Alloc(0)
	va := uint64(0x7000)
	if err := as.Map(va, target, PteUser|PteWrite); err != nil {
		t.Fatal(err)
	}
	clk := cycles.NewClock(0)
	cost := cycles.DefaultCostModel()

	// Warm once so page-table pages exist and the TLB holds the entry.
	if _, f := m.Translate(va, Access{User: true}, clk, cost); f != nil {
		t.Fatalf("warm translate faulted: %v", f)
	}

	if n := testing.AllocsPerRun(200, func() {
		if _, f := m.Translate(va, Access{User: true}, clk, cost); f != nil {
			t.Fatalf("translate faulted: %v", f)
		}
	}); n != 0 {
		t.Errorf("TLB-hit translate allocates %.1f per run, want 0", n)
	}

	// The full walk (TLB miss on a mapped page) must also be free: it
	// re-reads the live page tables and refills the TLB in place.
	if n := testing.AllocsPerRun(200, func() {
		m.TLB().FlushVA(va)
		if _, f := m.Translate(va, Access{User: true}, clk, cost); f != nil {
			t.Fatalf("translate faulted: %v", f)
		}
	}); n != 0 {
		t.Errorf("walk-and-refill translate allocates %.1f per run, want 0", n)
	}
}
