// Package mem models the physical memory of the simulated machine.
//
// Physical memory is a set of 4 KiB frames grouped into NUMA zones. The HVM
// partitions frames between the ROS and the HRT (the HRT additionally sees
// all ROS frames, per the paper's HVM design), and the paging package builds
// page tables out of frames allocated here.
//
// Frame contents are materialized lazily: most frames in the simulation only
// need identity and accounting, not bytes. Frames that back page tables or
// shared protocol pages allocate real storage on first touch. A frame may
// instead share a read-only template page (Share): reads see the template
// in place and the first write copies it.
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// PageSize is the only page size the simulation uses (4 KiB), matching the
// paging structures the paper manipulates (PML4 entries cover 512 GiB each;
// leaf mappings are 4 KiB).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Frame is a physical frame number. The physical address of a frame is
// Frame << PageShift.
type Frame uint64

// Addr returns the base physical address of the frame.
func (f Frame) Addr() uint64 { return uint64(f) << PageShift }

// FrameOf returns the frame containing the physical address.
func FrameOf(pa uint64) Frame { return Frame(pa >> PageShift) }

// NUMAZone identifies a NUMA zone (one per socket on the simulated
// machine).
type NUMAZone int

// Zone describes one contiguous physical memory region belonging to a NUMA
// zone.
type Zone struct {
	ID    NUMAZone
	Start Frame // first frame
	Count uint64
}

// End returns one past the last frame of the zone.
func (z Zone) End() Frame { return z.Start + Frame(z.Count) }

// PhysMem is the machine's physical memory: a frame allocator over a set of
// NUMA zones plus lazily materialized frame contents. Per-frame state lives
// in chunks of chunkFrames frames, allocated at the first Alloc of a frame
// in the chunk, so host memory follows the frames the simulation uses
// rather than the machine's size. Page-table walks and protocol pages read
// and write words through here, so the per-access cost is two slice loads
// rather than a map probe.
type PhysMem struct {
	mu     sync.Mutex
	zones  []Zone
	free   map[NUMAZone]*freeList
	limit  Frame // one past the highest frame of any zone
	chunks []*[chunkFrames]frameState
	nUsed  int
}

// chunkFrames is how many frames' state one chunk holds.
const chunkFrames = 256

// frameState is one frame's state; the zero value is a free frame.
type frameState struct {
	page   *[PageSize]byte // materialized contents (page tables, shared pages)
	inUse  bool
	shared bool // page is a template other frames read too; copy before a write
}

// state returns frame f's state if f is allocated, nil otherwise.
func (pm *PhysMem) state(f Frame) *frameState {
	if f >= pm.limit {
		return nil
	}
	c := pm.chunks[f/chunkFrames]
	if c == nil || !c[f%chunkFrames].inUse {
		return nil
	}
	return &c[f%chunkFrames]
}

// freeList is one zone's free frames without a table of them: the frames
// in [start, next) have never been handed out, and freed holds returned
// frames, most recent last. Alloc reuses a freed frame first and otherwise
// bumps next down, so a fresh zone hands out End-1, End-2, ... — the same
// order as a LIFO stack of every frame, built for nothing at boot.
type freeList struct {
	start, next Frame
	freed       []Frame
}

func (l *freeList) count() int { return len(l.freed) + int(l.next-l.start) }

// New builds physical memory with the given zones. Zones must not overlap;
// New panics on malformed configuration since it reflects a programming
// error in machine construction, not a runtime condition.
func New(zones ...Zone) *PhysMem {
	pm := &PhysMem{
		free: make(map[NUMAZone]*freeList),
	}
	for _, z := range zones {
		if z.Count == 0 {
			panic(fmt.Sprintf("mem: zone %d has zero frames", z.ID))
		}
		for _, prev := range pm.zones {
			if z.Start < prev.End() && prev.Start < z.End() {
				panic(fmt.Sprintf("mem: zones %d and %d overlap", prev.ID, z.ID))
			}
		}
		pm.zones = append(pm.zones, z)
		pm.free[z.ID] = &freeList{start: z.Start, next: z.End()}
		if end := z.End(); end > pm.limit {
			pm.limit = end
		}
	}
	pm.chunks = make([]*[chunkFrames]frameState, (pm.limit+chunkFrames-1)/chunkFrames)
	return pm
}

// NewFlat builds a single-zone physical memory of n frames starting at
// frame 0, for tests and small fixtures.
func NewFlat(n uint64) *PhysMem {
	return New(Zone{ID: 0, Start: 0, Count: n})
}

// Zones returns a copy of the zone table.
func (pm *PhysMem) Zones() []Zone {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	out := make([]Zone, len(pm.zones))
	copy(out, pm.zones)
	return out
}

// Alloc takes one free frame from the given zone.
func (pm *PhysMem) Alloc(zone NUMAZone) (Frame, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	l := pm.free[zone]
	if l == nil || l.count() == 0 {
		return 0, fmt.Errorf("mem: zone %d exhausted", zone)
	}
	var f Frame
	if n := len(l.freed); n > 0 {
		f = l.freed[n-1]
		l.freed = l.freed[:n-1]
	} else {
		l.next--
		f = l.next
	}
	c := pm.chunks[f/chunkFrames]
	if c == nil {
		c = new([chunkFrames]frameState)
		pm.chunks[f/chunkFrames] = c
	}
	c[f%chunkFrames] = frameState{inUse: true}
	pm.nUsed++
	return f, nil
}

// AllocN allocates n frames from the zone. On failure nothing is leaked.
func (pm *PhysMem) AllocN(zone NUMAZone, n int) ([]Frame, error) {
	out := make([]Frame, 0, n)
	for i := 0; i < n; i++ {
		f, err := pm.Alloc(zone)
		if err != nil {
			pm.FreeAll(out)
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// Free returns a frame to its zone's free list and drops its contents.
func (pm *PhysMem) Free(f Frame) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	st := pm.state(f)
	if st == nil {
		return fmt.Errorf("mem: double free of frame %#x", uint64(f))
	}
	*st = frameState{}
	pm.nUsed--
	z, ok := pm.zoneOf(f)
	if !ok {
		return fmt.Errorf("mem: frame %#x outside all zones", uint64(f))
	}
	l := pm.free[z.ID]
	l.freed = append(l.freed, f)
	return nil
}

// FreeAll frees every frame in the slice, ignoring individual errors; used
// for cleanup paths.
func (pm *PhysMem) FreeAll(frames []Frame) {
	for _, f := range frames {
		_ = pm.Free(f)
	}
}

// InUse returns the number of allocated frames.
func (pm *PhysMem) InUse() int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.nUsed
}

// FreeCount returns the number of free frames in the zone.
func (pm *PhysMem) FreeCount(zone NUMAZone) int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if l := pm.free[zone]; l != nil {
		return l.count()
	}
	return 0
}

// Share makes template the contents of the allocated frame f without
// copying it. Any number of frames, on any number of machines, may share one
// template: reads see it in place, and the first WriteU64 to f copies it
// into storage of f's own, so a write never reaches another frame. Nobody
// may write template after the first Share of it.
func (pm *PhysMem) Share(f Frame, template *[PageSize]byte) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	st := pm.state(f)
	if st == nil {
		return fmt.Errorf("mem: access to unallocated frame %#x", uint64(f))
	}
	st.page, st.shared = template, true
	return nil
}

// pageLocked returns frame f's contents, allocating zeroed storage on
// first touch. For a write it first gives a shared frame a private copy.
func (pm *PhysMem) pageLocked(f Frame, write bool) ([]byte, error) {
	st := pm.state(f)
	if st == nil {
		return nil, fmt.Errorf("mem: access to unallocated frame %#x", uint64(f))
	}
	switch {
	case st.page == nil:
		st.page = new([PageSize]byte)
	case write && st.shared:
		p := new([PageSize]byte)
		*p = *st.page
		st.page, st.shared = p, false
	}
	return st.page[:], nil
}

// ReadU64 reads a 64-bit little-endian word at a physical address. The
// address must lie within an allocated frame.
func (pm *PhysMem) ReadU64(pa uint64) (uint64, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	p, off, err := pm.pageAtLocked(pa, 8, false)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p[off:]), nil
}

// WriteU64 writes a 64-bit little-endian word at a physical address.
func (pm *PhysMem) WriteU64(pa uint64, v uint64) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	p, off, err := pm.pageAtLocked(pa, 8, true)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(p[off:], v)
	return nil
}

func (pm *PhysMem) pageAtLocked(pa uint64, size int, write bool) ([]byte, int, error) {
	off := int(pa & (PageSize - 1))
	if off+size > PageSize {
		return nil, 0, fmt.Errorf("mem: %d-byte access at %#x crosses a page boundary", size, pa)
	}
	p, err := pm.pageLocked(FrameOf(pa), write)
	if err != nil {
		return nil, 0, err
	}
	return p, off, nil
}

func (pm *PhysMem) zoneOf(f Frame) (Zone, bool) {
	for _, z := range pm.zones {
		if f >= z.Start && f < z.End() {
			return z, true
		}
	}
	return Zone{}, false
}

// ZoneOf reports which zone a frame belongs to.
func (pm *PhysMem) ZoneOf(f Frame) (Zone, bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.zoneOf(f)
}
