package paging

import (
	"encoding/binary"
	"testing"

	"multiverse/internal/mem"
)

// identityTableFrames bounds the page-table frames one identity map of up
// to 32,768 frames needs: a PML4, a PDPT, a PD and 64 leaf tables.
const identityTableFrames = 128

// perPageIdentity builds the identity map the way a per-page Map loop
// does, one PTE write per frame.
func perPageIdentity(t *testing.T, frames uint64) (*mem.PhysMem, *AddressSpace) {
	t.Helper()
	pm := mem.NewFlat(identityTableFrames)
	as, err := NewAddressSpace(pm, 0, "per-page")
	if err != nil {
		t.Fatal(err)
	}
	for f := mem.Frame(0); f < mem.Frame(frames); f++ {
		if err := as.Map(HigherHalfVA(f.Addr()), f, PteWrite); err != nil {
			t.Fatal(err)
		}
	}
	return pm, as
}

func sharedIdentity(t *testing.T, frames uint64) (*mem.PhysMem, *AddressSpace) {
	t.Helper()
	pm := mem.NewFlat(identityTableFrames)
	as, err := NewAddressSpace(pm, 0, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.IdentityMapHigherHalf(frames); err != nil {
		t.Fatal(err)
	}
	return pm, as
}

// TestSharedIdentityMatchesPerPageMap: at every page of the map, and at
// the first page past it, the shared leaves read through Lookup exactly
// what a per-page Map loop writes, with the same frames allocated and the
// same PML4 entry.
func TestSharedIdentityMatchesPerPageMap(t *testing.T) {
	for _, frames := range []uint64{1, 511, 512, 513, 32768} {
		pmWant, want := perPageIdentity(t, frames)
		pmGot, got := sharedIdentity(t, frames)
		if g, w := pmGot.InUse(), pmWant.InUse(); g != w {
			t.Errorf("%d frames: %d table frames in use, per-page map %d", frames, g, w)
		}
		slot := PML4Index(HigherHalfMin)
		if g, w := got.TopEntry(slot), want.TopEntry(slot); g != w {
			t.Errorf("%d frames: PML4[%d] = %#x, per-page map %#x", frames, slot, g, w)
		}
		for f := mem.Frame(0); f <= mem.Frame(frames); f++ {
			va := HigherHalfVA(f.Addr())
			g, gl := got.Lookup(va)
			w, wl := want.Lookup(va)
			if g != w || gl != wl {
				t.Fatalf("%d frames: page %d reads %#x (%d levels), per-page map %#x (%d levels)",
					frames, f, g, gl, w, wl)
			}
		}
	}
}

// TestIdentityMapOverExistingTables: mapping again over tables that
// already exist writes the same PTEs and allocates nothing.
func TestIdentityMapOverExistingTables(t *testing.T) {
	pm, as := sharedIdentity(t, 513)
	inUse := pm.InUse()
	if err := as.IdentityMapHigherHalf(513); err != nil {
		t.Fatal(err)
	}
	if n := pm.InUse(); n != inUse {
		t.Errorf("second map allocated %d frames", n-inUse)
	}
	_, want := perPageIdentity(t, 513)
	for f := mem.Frame(0); f <= 513; f++ {
		va := HigherHalfVA(f.Addr())
		if g, _ := as.Lookup(va); g != lookupPTE(want, va) {
			t.Fatalf("page %d reads %#x after the second map", f, g)
		}
	}
}

func lookupPTE(as *AddressSpace, va uint64) uint64 {
	pte, _ := as.Lookup(va)
	return pte
}

// TestSharedLeafEditsStayPrivate: a Map, Unmap or Protect of a higher-half
// page on one machine changes that machine's table only; another machine
// booted from the same templates, and the templates themselves, are left
// as they were.
func TestSharedLeafEditsStayPrivate(t *testing.T) {
	const frames = 1024
	pmA, a := sharedIdentity(t, frames)
	_, b := sharedIdentity(t, frames)
	_, ref := perPageIdentity(t, frames)
	extra, err := pmA.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	va := func(f mem.Frame) uint64 { return HigherHalfVA(f.Addr()) }
	if err := a.Protect(va(5), 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Unmap(va(6)); err != nil {
		t.Fatal(err)
	}
	if err := a.Map(va(600), extra, PteWrite); err != nil {
		t.Fatal(err)
	}

	if pte := lookupPTE(a, va(5)); pte&PteWrite != 0 || pte&PtePresent == 0 {
		t.Errorf("protected page reads %#x on its own machine", pte)
	}
	if pte := lookupPTE(a, va(6)); pte&PtePresent != 0 {
		t.Errorf("unmapped page reads %#x on its own machine", pte)
	}
	if pte := lookupPTE(a, va(600)); mem.FrameOf(pte&pteAddrMask) != extra {
		t.Errorf("remapped page reads %#x on its own machine, want frame %d", pte, extra)
	}
	for f := mem.Frame(0); f < frames; f++ {
		if g, w := lookupPTE(b, va(f)), lookupPTE(ref, va(f)); g != w {
			t.Fatalf("other machine's page %d reads %#x, want %#x", f, g, w)
		}
		if f != 5 && f != 6 && f != 600 {
			if g, w := lookupPTE(a, va(f)), lookupPTE(ref, va(f)); g != w {
				t.Fatalf("untouched page %d reads %#x, want %#x", f, g, w)
			}
		}
	}
	for first := mem.Frame(0); first < frames; first += EntriesPerTable {
		tmpl := identityLeaf(first, EntriesPerTable)
		for i := 0; i < EntriesPerTable; i++ {
			f := first + mem.Frame(i)
			if got := binary.LittleEndian.Uint64(tmpl[i*8:]); got != f.Addr()|PteWrite|PtePresent {
				t.Fatalf("template entry for frame %d = %#x", f, got)
			}
		}
	}
}
