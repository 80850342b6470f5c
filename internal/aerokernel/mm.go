package aerokernel

import (
	"fmt"

	"multiverse/internal/mem"
	"multiverse/internal/paging"
)

// Kernel-mode memory management — the paper's predicted first porting
// target: "The next steps would be to port bottleneck functionality, for
// example the mmap(), mprotect(), and signal mechanisms the garbage
// collector depends on, to kernel mode via AeroKernel ... In effect,
// these comprise page table edits combined with page faults, all of which
// can occur hundreds of times faster within the kernel instead of behind
// a system call interface" (section 5).
//
// The AeroKernel owns a dedicated lower-half region (its own PML4 slots,
// disjoint from everything the ROS uses) and edits the page tables
// directly: eager frame allocation at map time (no demand-paging round
// trips), direct PTE rewrites for protection changes, and a kernel-level
// fault handler for the protection faults the runtime *wants* (GC write
// barriers). Nothing crosses the event channel.

// AK-managed region: PML4 slot 252 (0x7e00_0000_0000 .. +512 GiB), below
// the ROS's mmap area (slot 254) and TLS region (slot 255).
const (
	AKMemBase = uint64(0x0000_7e00_0000_0000)
	AKMemSize = uint64(1) << 39 // one PML4 slot
)

const akMemSlot = 252

// akRegion is one kernel-managed mapping.
type akRegion struct {
	start  uint64
	length uint64
	pages  map[uint64]mem.Frame
}

// MemFaultHandler resolves a fault in the AK-managed region (the
// runtime's write-barrier hook). It returns true if the access should be
// retried.
type MemFaultHandler func(addr uint64, write bool) bool

// inAKRegion reports whether addr lies in the kernel-managed region.
func inAKRegion(addr uint64) bool {
	return addr >= AKMemBase && addr < AKMemBase+AKMemSize
}

// SetMemFaultHandler installs the runtime's handler for protection faults
// in the AK-managed region.
func (k *Kernel) SetMemFaultHandler(h MemFaultHandler) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.memFault = h
}

// MemMap allocates length bytes of kernel-managed memory for thread t:
// frames come eagerly from HRT-local memory and are mapped immediately,
// so the region never demand-faults. Returns the virtual address.
func (k *Kernel) MemMap(t *Thread, length uint64) (uint64, error) {
	if length == 0 {
		return 0, fmt.Errorf("aerokernel: zero-length MemMap")
	}
	length = (length + mem.PageSize - 1) &^ uint64(mem.PageSize-1)

	k.mu.Lock()
	space := k.space
	if k.memNext == 0 {
		k.memNext = AKMemBase
		// Claim the PML4 slot: it must not collide with a ROS mapping
		// copied in by the merger.
		if e := space.TopEntry(akMemSlot); e&paging.PtePresent != 0 {
			k.mu.Unlock()
			return 0, fmt.Errorf("aerokernel: PML4 slot %d already in use by the ROS", akMemSlot)
		}
	}
	addr := k.memNext
	if addr+length > AKMemBase+AKMemSize {
		k.mu.Unlock()
		return 0, fmt.Errorf("aerokernel: AK memory region exhausted")
	}
	k.memNext += length + mem.PageSize // guard gap
	k.mu.Unlock()

	region := &akRegion{start: addr, length: length, pages: make(map[uint64]mem.Frame)}
	zone := k.m.ZoneOfCore(t.Core)
	for off := uint64(0); off < length; off += mem.PageSize {
		f, err := k.m.Phys.Alloc(zone, "akmem")
		if err != nil {
			k.releaseRegion(region)
			return 0, fmt.Errorf("aerokernel: MemMap: %w", err)
		}
		if err := space.Map(addr+off, f, paging.PteWrite); err != nil {
			_ = k.m.Phys.Free(f)
			k.releaseRegion(region)
			return 0, fmt.Errorf("aerokernel: MemMap: %w", err)
		}
		region.pages[addr+off] = f
		t.Clock.Advance(k.cost.PTEWrite + k.cost.PageZero)
	}

	k.mu.Lock()
	if k.memRegions == nil {
		k.memRegions = make(map[uint64]*akRegion)
	}
	k.memRegions[region.start] = region
	// Remember the slot's top-level entry so re-merges can preserve it.
	k.memSlotEntry = space.TopEntry(akMemSlot)
	k.mu.Unlock()
	return addr, nil
}

// releaseRegion frees a partially built region.
func (k *Kernel) releaseRegion(r *akRegion) {
	for base, f := range r.pages {
		_ = k.space.Unmap(base)
		_ = k.m.Phys.Free(f)
	}
}

// MemProtect rewrites the protection of a kernel-managed range: direct
// PTE edits plus local invalidation, no crossings.
func (k *Kernel) MemProtect(t *Thread, addr, length uint64, writable bool) error {
	r := k.regionFor(addr)
	if r == nil {
		return fmt.Errorf("aerokernel: MemProtect outside AK region: %#x", addr)
	}
	flags := uint64(0)
	if writable {
		flags = paging.PteWrite
	}
	tlb := k.m.Core(t.Core).MMU.TLB()
	for base := paging.PageBase(addr); base < addr+length; base += mem.PageSize {
		if _, ok := r.pages[base]; !ok {
			return fmt.Errorf("aerokernel: MemProtect of unmapped page %#x", base)
		}
		if err := k.space.Protect(base, flags); err != nil {
			return err
		}
		tlb.FlushVA(base)
		t.Clock.Advance(k.cost.PTEWrite)
	}
	return nil
}

// MemUnmap releases a kernel-managed mapping.
func (k *Kernel) MemUnmap(t *Thread, addr, length uint64) error {
	k.mu.Lock()
	r := k.memRegions[addr]
	if r != nil {
		delete(k.memRegions, addr)
	}
	k.mu.Unlock()
	if r == nil {
		return fmt.Errorf("aerokernel: MemUnmap of unknown region %#x", addr)
	}
	for base, f := range r.pages {
		if err := k.space.Unmap(base); err != nil {
			return err
		}
		_ = k.m.Phys.Free(f)
		t.Clock.Advance(k.cost.PTEWrite)
	}
	k.m.Core(t.Core).MMU.TLB().FlushAll()
	t.Clock.Advance(k.cost.TLBFlushLocal)
	return nil
}

// regionFor locates the region containing addr.
func (k *Kernel) regionFor(addr uint64) *akRegion {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, r := range k.memRegions {
		if addr >= r.start && addr < r.start+r.length {
			return r
		}
	}
	return nil
}

// AKMemStats reports kernel-managed memory usage.
func (k *Kernel) AKMemStats() (regions int, pages int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, r := range k.memRegions {
		regions++
		pages += len(r.pages)
	}
	return regions, pages
}
