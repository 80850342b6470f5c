package paging

import (
	"testing"
	"testing/quick"

	"multiverse/internal/mem"
)

func newSpace(t *testing.T, frames uint64) (*mem.PhysMem, *AddressSpace) {
	t.Helper()
	pm := mem.NewFlat(frames)
	as, err := NewAddressSpace(pm, 0, "test")
	if err != nil {
		t.Fatal(err)
	}
	return pm, as
}

func TestCanonical(t *testing.T) {
	cases := []struct {
		va   uint64
		ok   bool
		low  bool
		high bool
	}{
		{0, true, true, false},
		{LowerHalfMax, true, true, false},
		{LowerHalfMax + 1, false, false, false},
		{HigherHalfMin - 1, false, false, false},
		{HigherHalfMin, true, false, true},
		{^uint64(0), true, false, true},
	}
	for _, c := range cases {
		if IsCanonical(c.va) != c.ok {
			t.Errorf("IsCanonical(%#x) = %v", c.va, !c.ok)
		}
		if c.ok && (IsLowerHalf(c.va) != c.low || IsHigherHalf(c.va) != c.high) {
			t.Errorf("halves of %#x wrong", c.va)
		}
	}
}

func TestMapLookupUnmap(t *testing.T) {
	pm, as := newSpace(t, 64)
	target, _ := pm.Alloc(0)
	va := uint64(0x7f12_3456_7000)

	if err := as.Map(va, target, PteUser|PteWrite); err != nil {
		t.Fatal(err)
	}
	pte, levels := as.Lookup(va)
	if levels != 4 {
		t.Errorf("levels = %d", levels)
	}
	if pte&PtePresent == 0 || pte&PteUser == 0 || pte&PteWrite == 0 {
		t.Errorf("pte = %#x", pte)
	}
	if mem.FrameOf(pte&0x000ffffffffff000) != target {
		t.Errorf("pte frame wrong")
	}

	if err := as.Unmap(va); err != nil {
		t.Fatal(err)
	}
	pte, _ = as.Lookup(va)
	if pte&PtePresent != 0 {
		t.Errorf("pte still present after unmap")
	}
	if err := as.Unmap(va); err == nil {
		t.Error("double unmap should fail")
	}
}

func TestProtect(t *testing.T) {
	pm, as := newSpace(t, 64)
	target, _ := pm.Alloc(0)
	va := uint64(0x1000)
	if err := as.Map(va, target, PteUser|PteWrite); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(va, PteUser); err != nil { // drop write
		t.Fatal(err)
	}
	pte, _ := as.Lookup(va)
	if pte&PteWrite != 0 {
		t.Error("write bit survived Protect")
	}
	if mem.FrameOf(pte&0x000ffffffffff000) != target {
		t.Error("Protect changed the frame")
	}
	if err := as.Protect(0xdead000, PteUser); err == nil {
		t.Error("Protect of unmapped page should fail")
	}
}

func TestNonCanonicalMapFails(t *testing.T) {
	_, as := newSpace(t, 64)
	if err := as.Map(LowerHalfMax+1, 1, PteUser); err == nil {
		t.Error("mapping non-canonical address should fail")
	}
}

func TestMergerSharesLowerTables(t *testing.T) {
	pm := mem.NewFlat(256)
	rosAS, err := NewAddressSpace(pm, 0, "ros")
	if err != nil {
		t.Fatal(err)
	}
	hrtAS, err := NewAddressSpace(pm, 0, "hrt")
	if err != nil {
		t.Fatal(err)
	}
	target, _ := pm.Alloc(0)
	va := uint64(0x7f00_0000_0000)
	if err := rosAS.Map(va, target, PteUser|PteWrite); err != nil {
		t.Fatal(err)
	}

	n, err := hrtAS.CopyLowerHalfFrom(rosAS)
	if err != nil {
		t.Fatal(err)
	}
	if n != LowerHalfEntries {
		t.Errorf("copied %d entries, want %d", n, LowerHalfEntries)
	}
	// HRT resolves the ROS mapping.
	pte, _ := hrtAS.Lookup(va)
	if pte&PtePresent == 0 {
		t.Fatal("merged mapping not visible in HRT")
	}

	// Sub-PML4 changes propagate without re-merge: map a second page in
	// the same 512 GiB region on the ROS side.
	target2, _ := pm.Alloc(0)
	va2 := va + 0x200000*5 + 0x3000
	if err := rosAS.Map(va2, target2, PteUser); err != nil {
		t.Fatal(err)
	}
	pte2, _ := hrtAS.Lookup(va2)
	if pte2&PtePresent == 0 {
		t.Error("sub-PML4 ROS change invisible in HRT despite shared tables")
	}

	// A change in a *new* PML4 slot does NOT propagate (needs re-merge).
	va3 := uint64(0x0000_1000_0000_0000) // PML4 index 2
	target3, _ := pm.Alloc(0)
	if err := rosAS.Map(va3, target3, PteUser); err != nil {
		t.Fatal(err)
	}
	pte3, _ := hrtAS.Lookup(va3)
	if pte3&PtePresent != 0 {
		t.Error("new top-level entry visible without re-merge?")
	}
	if _, err := hrtAS.CopyLowerHalfFrom(rosAS); err != nil {
		t.Fatal(err)
	}
	pte3, _ = hrtAS.Lookup(va3)
	if pte3&PtePresent == 0 {
		t.Error("re-merge did not pick up new top-level entry")
	}
}

func TestClearLowerHalf(t *testing.T) {
	pm := mem.NewFlat(128)
	rosAS, _ := NewAddressSpace(pm, 0, "ros")
	hrtAS, _ := NewAddressSpace(pm, 0, "hrt")
	target, _ := pm.Alloc(0)
	if err := rosAS.Map(0x4000, target, PteUser); err != nil {
		t.Fatal(err)
	}
	if _, err := hrtAS.CopyLowerHalfFrom(rosAS); err != nil {
		t.Fatal(err)
	}
	if err := hrtAS.ClearLowerHalf(); err != nil {
		t.Fatal(err)
	}
	if pte, _ := hrtAS.Lookup(0x4000); pte&PtePresent != 0 {
		t.Error("lower half still mapped after clear")
	}
}

func TestIdentityMapHigherHalf(t *testing.T) {
	pm := mem.NewFlat(64)
	as, _ := NewAddressSpace(pm, 0, "hrt")
	if err := as.IdentityMapHigherHalf(16); err != nil {
		t.Fatal(err)
	}
	for f := uint64(0); f < 16; f++ {
		pte, _ := as.Lookup(HigherHalfVA(f * mem.PageSize))
		if pte&PtePresent == 0 {
			t.Fatalf("frame %d not identity mapped", f)
		}
		if got := mem.FrameOf(pte & 0x000ffffffffff000); got != mem.Frame(f) {
			t.Fatalf("frame %d maps to %d", f, got)
		}
		if pte&PteUser != 0 {
			t.Error("identity map should be supervisor-only")
		}
	}
}

func TestFromCR3AdoptsHierarchy(t *testing.T) {
	pm := mem.NewFlat(64)
	orig, _ := NewAddressSpace(pm, 0, "orig")
	target, _ := pm.Alloc(0)
	if err := orig.Map(0x5000, target, PteUser); err != nil {
		t.Fatal(err)
	}
	adopted := FromCR3(pm, 0, orig.CR3(), "adopted")
	pte, _ := adopted.Lookup(0x5000)
	if pte&PtePresent == 0 {
		t.Error("adopted space does not see original mappings")
	}
	if adopted.Root() != orig.Root() {
		t.Error("adopted root differs")
	}
}

// Property: for arbitrary page-aligned lower-half addresses, Map then
// Lookup resolves to the mapped frame and Unmap clears it.
func TestMapLookupProperty(t *testing.T) {
	pm := mem.NewFlat(2048)
	as, err := NewAddressSpace(pm, 0, "prop")
	if err != nil {
		t.Fatal(err)
	}
	target, _ := pm.Alloc(0)
	prop := func(raw uint64) bool {
		va := (raw % LowerHalfMax) &^ uint64(mem.PageSize-1)
		if err := as.Map(va, target, PteUser|PteWrite); err != nil {
			return false
		}
		pte, levels := as.Lookup(va)
		ok := levels == 4 && pte&PtePresent != 0 &&
			mem.FrameOf(pte&0x000ffffffffff000) == target
		if err := as.Unmap(va); err != nil {
			return false
		}
		gone, _ := as.Lookup(va)
		return ok && gone&PtePresent == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
