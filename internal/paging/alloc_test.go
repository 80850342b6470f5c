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

// TestUnfilledTLBIsEmpty: a TLB allocates its entries at its first fill;
// until then it must behave as an empty one. The same operations on an
// unfilled TLB and on one filled and then flushed read the same counts,
// and none of them allocates.
func TestUnfilledTLBIsEmpty(t *testing.T) {
	unfilled := NewTLB(64)
	flushed := NewTLB(64)
	flushed.insert(0x1000, 0x1)
	flushed.FlushAll()
	if !flushed.Filled() || unfilled.Filled() {
		t.Fatalf("Filled: flushed %v, unfilled %v; want true, false", flushed.Filled(), unfilled.Filled())
	}
	_, _, f0 := flushed.Stats() // the flush above
	ops := func(tl *TLB) {
		tl.lookup(0x1000)
		tl.lookup(0x2000)
		tl.FlushVA(0x1000)
		tl.FlushAll()
	}
	const calls = 11 // AllocsPerRun(10) makes one warm-up call first
	for _, tl := range []*TLB{unfilled, flushed} {
		if n := testing.AllocsPerRun(calls-1, func() { ops(tl) }); n != 0 {
			t.Errorf("filled=%v: lookup/flush allocates %.1f per run, want 0", tl.Filled(), n)
		}
	}
	if unfilled.Filled() {
		t.Error("lookups and flushes allocated the entries")
	}
	h, m, f := unfilled.Stats()
	fh, fm, ff := flushed.Stats()
	if h != fh || m != fm || f != ff-f0 || unfilled.Len() != flushed.Len() {
		t.Errorf("unfilled: hits %d misses %d flushes %d len %d; filled-then-flushed: %d %d %d %d",
			h, m, f, unfilled.Len(), fh, fm, ff-f0, flushed.Len())
	}
	if h != 0 || m != 2*calls || f != calls || unfilled.Len() != 0 {
		t.Errorf("unfilled: hits %d misses %d flushes %d len %d; want 0 %d %d 0", h, m, f, unfilled.Len(), 2*calls, calls)
	}
	// The first fill allocates once and the TLB then works as usual.
	unfilled.insert(0x3000, 0x3)
	if pte, ok := unfilled.lookup(0x3000); !ok || pte != 0x3 || unfilled.Len() != 1 {
		t.Errorf("after first fill: lookup = %#x, %v; len %d", pte, ok, unfilled.Len())
	}
}
