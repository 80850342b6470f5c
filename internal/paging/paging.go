// Package paging implements the x86-64 4-level paging model the Multiverse
// protocols manipulate.
//
// Page tables are real data structures: each table is one simulated
// physical frame (512 8-byte entries) and every mapping operation edits
// entries in those frames. This matters because the paper's address-space
// merger is literally "copy the first 256 entries of the PML4 pointed to by
// the ROS's CR3 to the HRT's PML4 and broadcast a TLB shootdown" — the same
// operation, on the same structures, happens here.
package paging

import (
	"encoding/binary"
	"fmt"
	"sync"

	"multiverse/internal/mem"
	"multiverse/internal/telemetry"
)

// EntriesPerTable is the number of entries in one paging structure.
const EntriesPerTable = 512

// LowerHalfEntries is the number of PML4 entries covering the canonical
// lower half (user space). The merger copies exactly these.
const LowerHalfEntries = 256

// Page-table entry bits (x86-64 layout).
const (
	PtePresent uint64 = 1 << 0
	PteWrite   uint64 = 1 << 1
	PteUser    uint64 = 1 << 2
	PteNX      uint64 = 1 << 63

	pteAddrMask uint64 = 0x000ffffffffff000
)

// Canonical address-space boundaries.
const (
	LowerHalfMax  uint64 = 0x0000_7fff_ffff_ffff
	HigherHalfMin uint64 = 0xffff_8000_0000_0000
)

// IsCanonical reports whether va is a canonical 48-bit address.
func IsCanonical(va uint64) bool {
	return va <= LowerHalfMax || va >= HigherHalfMin
}

// IsLowerHalf reports whether va lies in the canonical lower (user) half.
func IsLowerHalf(va uint64) bool { return va <= LowerHalfMax }

// IsHigherHalf reports whether va lies in the canonical higher (kernel)
// half.
func IsHigherHalf(va uint64) bool { return va >= HigherHalfMin }

// Table indices of a virtual address.
func pml4Index(va uint64) int { return int(va>>39) & 0x1ff }
func pdptIndex(va uint64) int { return int(va>>30) & 0x1ff }
func pdIndex(va uint64) int   { return int(va>>21) & 0x1ff }
func ptIndex(va uint64) int   { return int(va>>12) & 0x1ff }

// PML4Index exposes the top-level index of va (used by re-merge logic and
// tests).
func PML4Index(va uint64) int { return pml4Index(va) }

// PageBase returns the 4 KiB-aligned base of va.
func PageBase(va uint64) uint64 { return va &^ uint64(mem.PageSize-1) }

// AddressSpace is one paging hierarchy rooted at a PML4 frame.
type AddressSpace struct {
	pm      *mem.PhysMem
	zone    mem.NUMAZone
	root    mem.Frame
	name    string
	metrics *telemetry.Registry
}

// SetTelemetry attaches a metrics registry so structural operations (the
// merger's entry copies) are counted at the paging layer. Nil detaches.
func (as *AddressSpace) SetTelemetry(m *telemetry.Registry) { as.metrics = m }

// FromCR3 adopts an existing paging hierarchy by its CR3 value, without
// allocating anything. The AeroKernel uses this to walk the ROS process's
// tables during a merger: all it receives from the VMM is the CR3 in the
// shared data page. New mappings must not be created through the adopted
// space (zone is recorded for table allocation if a caller nevertheless
// maps; it extends the foreign hierarchy in the given zone).
func FromCR3(pm *mem.PhysMem, zone mem.NUMAZone, cr3 uint64, name string) *AddressSpace {
	return &AddressSpace{pm: pm, zone: zone, root: mem.FrameOf(cr3), name: name}
}

// NewAddressSpace allocates an empty PML4 in the given zone.
func NewAddressSpace(pm *mem.PhysMem, zone mem.NUMAZone, name string) (*AddressSpace, error) {
	root, err := pm.Alloc(zone)
	if err != nil {
		return nil, fmt.Errorf("paging: allocating PML4 for %s: %w", name, err)
	}
	return FromCR3(pm, zone, root.Addr(), name), nil
}

// Root returns the PML4 frame; Root().Addr() is the CR3 value for this
// address space.
func (as *AddressSpace) Root() mem.Frame { return as.root }

// Name returns the diagnostic name given at construction.
func (as *AddressSpace) Name() string { return as.name }

// CR3 returns the physical address loaded into CR3 to activate this space.
func (as *AddressSpace) CR3() uint64 { return as.root.Addr() }

func (as *AddressSpace) readEntry(table mem.Frame, idx int) (uint64, error) {
	return as.pm.ReadU64(table.Addr() + uint64(idx)*8)
}

func (as *AddressSpace) writeEntry(table mem.Frame, idx int, v uint64) error {
	return as.pm.WriteU64(table.Addr()+uint64(idx)*8, v)
}

// next returns the frame of the next-level table reached through entry idx
// of table, allocating it if absent and create is set. Intermediate entries
// are created writable+user so leaf PTEs fully determine access rights, as
// kernels conventionally arrange for user mappings.
func (as *AddressSpace) next(table mem.Frame, idx int, create bool) (mem.Frame, error) {
	e, err := as.readEntry(table, idx)
	if err != nil {
		return 0, err
	}
	if e&PtePresent != 0 {
		return mem.FrameOf(e & pteAddrMask), nil
	}
	if !create {
		return 0, errNotMapped
	}
	f, err := as.pm.Alloc(as.zone)
	if err != nil {
		return 0, err
	}
	if err := as.writeEntry(table, idx, f.Addr()|PtePresent|PteWrite|PteUser); err != nil {
		return 0, err
	}
	return f, nil
}

var errNotMapped = fmt.Errorf("paging: not mapped")

// Map installs a leaf PTE for the 4 KiB page containing va, pointing at
// frame f with the given flag bits (PtePresent is implied).
func (as *AddressSpace) Map(va uint64, f mem.Frame, flags uint64) error {
	if !IsCanonical(va) {
		return fmt.Errorf("paging: map of non-canonical address %#x", va)
	}
	pdpt, err := as.next(as.root, pml4Index(va), true)
	if err != nil {
		return err
	}
	pd, err := as.next(pdpt, pdptIndex(va), true)
	if err != nil {
		return err
	}
	pt, err := as.next(pd, pdIndex(va), true)
	if err != nil {
		return err
	}
	return as.writeEntry(pt, ptIndex(va), f.Addr()|flags|PtePresent)
}

// Unmap clears the leaf PTE for va. Unmapping a non-mapped page is an
// error, surfacing bookkeeping bugs in callers.
func (as *AddressSpace) Unmap(va uint64) error {
	pt, idx, err := as.leafTable(va)
	if err != nil {
		return fmt.Errorf("paging: unmap %#x: %w", va, err)
	}
	e, err := as.readEntry(pt, idx)
	if err != nil {
		return err
	}
	if e&PtePresent == 0 {
		return fmt.Errorf("paging: unmap of unmapped page %#x", va)
	}
	return as.writeEntry(pt, idx, 0)
}

// Protect rewrites the flag bits of the leaf PTE for va, keeping its frame.
func (as *AddressSpace) Protect(va uint64, flags uint64) error {
	pt, idx, err := as.leafTable(va)
	if err != nil {
		return fmt.Errorf("paging: protect %#x: %w", va, err)
	}
	e, err := as.readEntry(pt, idx)
	if err != nil {
		return err
	}
	if e&PtePresent == 0 {
		return fmt.Errorf("paging: protect of unmapped page %#x", va)
	}
	return as.writeEntry(pt, idx, (e&pteAddrMask)|flags|PtePresent)
}

func (as *AddressSpace) leafTable(va uint64) (mem.Frame, int, error) {
	pdpt, err := as.next(as.root, pml4Index(va), false)
	if err != nil {
		return 0, 0, err
	}
	pd, err := as.next(pdpt, pdptIndex(va), false)
	if err != nil {
		return 0, 0, err
	}
	pt, err := as.next(pd, pdIndex(va), false)
	if err != nil {
		return 0, 0, err
	}
	return pt, ptIndex(va), nil
}

// Lookup returns the raw leaf PTE for va and the number of table levels
// fetched to reach it (for cycle accounting). A zero PTE with levels < 4
// means the walk ended early at a non-present intermediate entry.
func (as *AddressSpace) Lookup(va uint64) (pte uint64, levels int) {
	table := as.root
	idxs := [4]int{pml4Index(va), pdptIndex(va), pdIndex(va), ptIndex(va)}
	for l, idx := range idxs {
		e, err := as.readEntry(table, idx)
		if err != nil || e&PtePresent == 0 {
			return 0, l + 1
		}
		if l == 3 {
			return e, 4
		}
		table = mem.FrameOf(e & pteAddrMask)
	}
	return 0, 4
}

// TopEntry returns PML4 entry i.
func (as *AddressSpace) TopEntry(i int) uint64 {
	e, err := as.readEntry(as.root, i)
	if err != nil {
		return 0
	}
	return e
}

// SetTopEntry writes PML4 entry i directly. The merger and tests use it.
func (as *AddressSpace) SetTopEntry(i int, v uint64) error {
	return as.writeEntry(as.root, i, v)
}

// CopyLowerHalfFrom copies the first LowerHalfEntries PML4 entries of src
// into as — the paper's address-space merger. It returns the number of
// entries copied (always LowerHalfEntries on success).
//
// After this, lower-half translations in as resolve through src's
// lower-level tables, so the HRT sees exactly the ROS process's user
// mappings, including later changes at PDPT depth and below. Only top-level
// (PML4) changes on the ROS side require a re-merge; the AeroKernel detects
// those via duplicate page faults (section 4.4).
func (as *AddressSpace) CopyLowerHalfFrom(src *AddressSpace) (int, error) {
	for i := 0; i < LowerHalfEntries; i++ {
		e, err := src.readEntry(src.root, i)
		if err != nil {
			return i, err
		}
		if err := as.writeEntry(as.root, i, e); err != nil {
			return i, err
		}
	}
	as.metrics.Counter("paging.lower_half_copies").Inc()
	as.metrics.Counter("paging.pml4_entries_copied").Add(LowerHalfEntries)
	return LowerHalfEntries, nil
}

// CopyTopEntriesFrom copies only the given PML4 slots of src into as — the
// delta path of the incremental merger. Slots must lie in the lower half.
// It returns the number of entries copied.
func (as *AddressSpace) CopyTopEntriesFrom(src *AddressSpace, slots []int) (int, error) {
	for _, i := range slots {
		if i < 0 || i >= LowerHalfEntries {
			return 0, fmt.Errorf("paging: delta copy of non-user PML4 slot %d", i)
		}
	}
	for n, i := range slots {
		e, err := src.readEntry(src.root, i)
		if err != nil {
			return n, err
		}
		if err := as.writeEntry(as.root, i, e); err != nil {
			return n, err
		}
	}
	as.metrics.Counter("paging.delta_copies").Inc()
	as.metrics.Counter("paging.pml4_entries_copied").Add(uint64(len(slots)))
	return len(slots), nil
}

// ClearLowerHalf zeroes the lower-half PML4 entries (un-merge, used on HRT
// reboot).
func (as *AddressSpace) ClearLowerHalf() error {
	for i := 0; i < LowerHalfEntries; i++ {
		if err := as.writeEntry(as.root, i, 0); err != nil {
			return err
		}
	}
	return nil
}

// IdentityMapHigherHalf maps the physical frames [0, frames) into the
// higher half at HigherHalfMin+pa, supervisor read/write — the HVM's
// arrangement for an HRT that supports it (section 4.4: "the physical
// address space is identity-mapped into the higher half").
//
// The map covers every physical frame and an HRT boots at every hybrid
// program start, so it is built a leaf table at a time: each 2 MiB region
// allocates its tables as a per-page Map loop would, and a leaf table this
// call creates shares the process-wide template holding exactly the PTEs
// that loop would write (mem.PhysMem.Share). A later Map, Unmap or Protect
// of one of those pages copies the table first, so no other address space
// sees the edit.
func (as *AddressSpace) IdentityMapHigherHalf(frames uint64) error {
	for first := uint64(0); first < frames; first += EntriesPerTable {
		count := min(frames-first, EntriesPerTable)
		if err := as.identityMapRegion(mem.Frame(first), int(count)); err != nil {
			return fmt.Errorf("paging: identity map frame %#x: %w", first, err)
		}
	}
	return nil
}

// identityMapRegion maps frames [first, first+count), which start a
// 2 MiB region, at their higher-half addresses.
func (as *AddressSpace) identityMapRegion(first mem.Frame, count int) error {
	va := HigherHalfVA(first.Addr())
	pdpt, err := as.next(as.root, pml4Index(va), true)
	if err != nil {
		return err
	}
	pd, err := as.next(pdpt, pdptIndex(va), true)
	if err != nil {
		return err
	}
	e, err := as.readEntry(pd, pdIndex(va))
	if err != nil {
		return err
	}
	pt, err := as.next(pd, pdIndex(va), true)
	if err != nil {
		return err
	}
	if e&PtePresent == 0 { // a fresh, all-zero table
		return as.pm.Share(pt, identityLeaf(first, count))
	}
	for i := 0; i < count; i++ {
		if err := as.writeEntry(pt, i, identityPTE(first+mem.Frame(i))); err != nil {
			return err
		}
	}
	return nil
}

// identityPTE is the leaf PTE mapping frame f in the identity map.
func identityPTE(f mem.Frame) uint64 { return f.Addr() | PteWrite | PtePresent }

// identityLeaves holds the identity map's leaf-table templates, keyed by
// first frame and frame count (leafKey → *[mem.PageSize]byte). A template
// is built once per process and never written after it is published.
var identityLeaves sync.Map

type leafKey struct {
	first mem.Frame
	count int
}

// identityLeaf returns the template of the leaf table mapping frames
// [first, first+count) at entries 0..count-1.
func identityLeaf(first mem.Frame, count int) *[mem.PageSize]byte {
	k := leafKey{first, count}
	if p, ok := identityLeaves.Load(k); ok {
		return p.(*[mem.PageSize]byte)
	}
	p := new([mem.PageSize]byte)
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint64(p[i*8:], identityPTE(first+mem.Frame(i)))
	}
	actual, _ := identityLeaves.LoadOrStore(k, p)
	return actual.(*[mem.PageSize]byte)
}

// HigherHalfVA returns the higher-half virtual address aliasing physical
// address pa under the identity mapping.
func HigherHalfVA(pa uint64) uint64 { return HigherHalfMin + pa }
