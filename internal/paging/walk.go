package paging

import (
	"fmt"
	"sync"

	"multiverse/internal/cycles"
	"multiverse/internal/mem"
)

// Access describes one memory access for translation purposes.
type Access struct {
	Write bool // write access (vs read)
	User  bool // CPL 3 access (vs supervisor / ring 0)
}

// Fault is a page fault, carrying the x86 error-code information the
// handlers need.
type Fault struct {
	Addr    uint64 // faulting virtual address (CR2)
	Write   bool   // access was a write
	User    bool   // access originated at CPL 3
	Present bool   // fault was a protection violation on a present page
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "not-present"
	if f.Present {
		kind = "protection"
	}
	mode := "supervisor"
	if f.User {
		mode = "user"
	}
	rw := "read"
	if f.Write {
		rw = "write"
	}
	return fmt.Sprintf("page fault at %#x (%s %s, %s)", f.Addr, mode, rw, kind)
}

// tlbWays is the associativity of the fixed-array TLB.
const tlbWays = 8

// tlbEntry is one way of one set. An entry is live iff gen equals the
// TLB's current generation — FlushAll is a generation bump, never a
// reallocation or a sweep.
type tlbEntry struct {
	base uint64 // page base of the cached translation
	pte  uint64
	gen  uint64
}

// TLB is a per-core translation lookaside buffer: a fixed set-associative
// array (tlbWays ways, capacity/tlbWays sets rounded down to a power of
// two), indexed by the page number's low bits as hardware TLBs are.
// Eviction is FIFO per set via a round-robin cursor, which keeps the
// simulation deterministic. Entries are untagged, so a CR3 reload flushes.
// The entry array is allocated whole at the first fill, so a core that
// never translates costs no storage; after that, lookups, fills, and
// flushes never allocate. An unfilled TLB is an empty one: every lookup
// misses, FlushVA finds nothing, and FlushAll still counts.
type TLB struct {
	mu      sync.Mutex
	cap     int
	sets    int
	mask    uint64     // sets - 1
	gen     uint64     // current generation; entries from older gens are dead
	entries []tlbEntry // sets × tlbWays, set-major; nil until the first fill
	next    []uint8    // per-set round-robin eviction cursor; nil until the first fill
	live    int
	hits    uint64
	misses  uint64
	flushes uint64
}

// NewTLB returns a TLB holding up to capacity translations.
func NewTLB(capacity int) *TLB {
	if capacity < 1 {
		capacity = 1
	}
	ways := tlbWays
	if capacity < ways {
		ways = capacity
	}
	sets := 1
	for sets*2*ways <= capacity {
		sets *= 2
	}
	return &TLB{cap: sets * ways, sets: sets, mask: uint64(sets - 1), gen: 1}
}

// Filled reports whether the TLB has allocated its entry array, which
// its first fill does.
func (t *TLB) Filled() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries != nil
}

// ways is the associativity actually in use (cap/sets; differs from
// tlbWays only for tiny capacities).
func (t *TLB) ways() int { return t.cap / t.sets }

// setFor indexes a set by the page number's low bits.
func (t *TLB) setFor(base uint64) int {
	return int((base >> 12) & t.mask)
}

// lookup scans base's set; an unfilled TLB holds nothing and misses.
func (t *TLB) lookup(base uint64) (uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries != nil {
		w := t.ways()
		set := t.setFor(base) * w
		for i := set; i < set+w; i++ {
			if e := &t.entries[i]; e.gen == t.gen && e.base == base {
				t.hits++
				return e.pte, true
			}
		}
	}
	t.misses++
	return 0, false
}

func (t *TLB) insert(base, pte uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries == nil {
		// First fill. Zeroed entries carry gen 0, which no live
		// generation (1 and up) matches, so they all read as free.
		t.entries = make([]tlbEntry, t.cap)
		t.next = make([]uint8, t.sets)
	}
	w := t.ways()
	si := t.setFor(base)
	set := si * w
	freeSlot := -1
	for i := set; i < set+w; i++ {
		e := &t.entries[i]
		if e.gen != t.gen {
			if freeSlot < 0 {
				freeSlot = i
			}
			continue
		}
		if e.base == base {
			e.pte = pte
			return
		}
	}
	if freeSlot < 0 {
		// Set full: FIFO eviction at the set's round-robin cursor.
		freeSlot = set + int(t.next[si])
		t.next[si] = uint8((int(t.next[si]) + 1) % w)
		t.live--
	}
	t.entries[freeSlot] = tlbEntry{base: base, pte: pte, gen: t.gen}
	t.live++
}

// FlushAll empties the TLB (full invalidation: a CR3 reload or a
// broadcast shootdown). It is a generation bump: O(1), no sweep, no
// reallocation.
func (t *TLB) FlushAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen++
	t.live = 0
	t.flushes++
}

// FlushVA invalidates the translation for one page (invlpg).
func (t *TLB) FlushVA(va uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries == nil {
		return
	}
	base := PageBase(va)
	w := t.ways()
	set := t.setFor(base) * w
	for i := set; i < set+w; i++ {
		if e := &t.entries[i]; e.gen == t.gen && e.base == base {
			e.gen = 0
			t.live--
			return
		}
	}
}

// Stats returns hit/miss/flush counters.
func (t *TLB) Stats() (hits, misses, flushes uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, t.misses, t.flushes
}

// Len returns the number of resident translations.
func (t *TLB) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.live
}

// MMU bundles the translation state of one core: the active address space,
// its TLB, and the CR0.WP setting that governs supervisor writes to
// read-only pages.
type MMU struct {
	mu    sync.Mutex
	space *AddressSpace
	tlb   *TLB
	wp    bool // CR0.WP: supervisor writes honor the R/W bit
}

// NewMMU creates an MMU with the given TLB capacity.
func NewMMU(tlbCapacity int) *MMU {
	return &MMU{tlb: NewTLB(tlbCapacity)}
}

// LoadCR3 activates an address space and flushes the TLB, as hardware
// does on an untagged reload.
func (m *MMU) LoadCR3(as *AddressSpace) {
	m.mu.Lock()
	m.space = as
	m.mu.Unlock()
	m.tlb.FlushAll()
}

// Space returns the active address space (nil before LoadCR3).
func (m *MMU) Space() *AddressSpace {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.space
}

// SetWP sets CR0.WP. The paper (section 4.4) enables it in the HRT so that
// ring-0 writes to read-only pages fault like user-mode writes would,
// keeping copy-on-write and GC-barrier semantics intact in kernel mode.
func (m *MMU) SetWP(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wp = on
}

// WP reports the CR0.WP setting.
func (m *MMU) WP() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wp
}

// TLB exposes the core's TLB (for shootdowns and stats).
func (m *MMU) TLB() *TLB { return m.tlb }

// Translate resolves one access at va, charging translation costs to clock
// (if non-nil). On success it returns the backing frame. On failure it
// returns a *Fault carrying the x86 error-code information.
func (m *MMU) Translate(va uint64, acc Access, clock *cycles.Clock, cost *cycles.CostModel) (mem.Frame, *Fault) {
	m.mu.Lock()
	space := m.space
	wp := m.wp
	m.mu.Unlock()
	if space == nil {
		panic("paging: Translate before LoadCR3")
	}
	if cost == nil {
		cost = &zeroCost // uncharged translation (tests, probes)
	}
	if !IsCanonical(va) {
		// Non-canonical accesses raise #GP on real hardware; the
		// simulation folds them into a not-present fault, which no
		// correct workload triggers.
		return 0, &Fault{Addr: va, Write: acc.Write, User: acc.User}
	}

	base := PageBase(va)
	pte, cached := m.tlb.lookup(base)
	if cached {
		charge(clock, cost, cost.TLBHit)
	} else {
		var levels int
		pte, levels = space.Lookup(va)
		charge(clock, cost, cycles.Cycles(levels)*cost.TLBMissPerLevel)
		if pte&PtePresent == 0 {
			charge(clock, cost, cost.PageFaultHW)
			return 0, &Fault{Addr: va, Write: acc.Write, User: acc.User}
		}
		m.tlb.insert(base, pte)
	}

	if fault := checkRights(pte, va, acc, wp); fault != nil {
		charge(clock, cost, cost.PageFaultHW)
		// Hardware would not have cached a translation it faulted on;
		// drop any stale entry so a later retry re-walks the tables.
		m.tlb.FlushVA(va)
		return 0, fault
	}
	return mem.FrameOf(pte & pteAddrMask), nil
}

// checkRights applies the x86 access rules: user accesses need PteUser;
// writes need PteWrite unless the access is supervisor and CR0.WP is clear
// (the exact loophole the paper closes by setting WP in the HRT).
func checkRights(pte uint64, va uint64, acc Access, wp bool) *Fault {
	if acc.User && pte&PteUser == 0 {
		return &Fault{Addr: va, Write: acc.Write, User: true, Present: true}
	}
	if acc.Write && pte&PteWrite == 0 {
		if acc.User || wp {
			return &Fault{Addr: va, Write: true, User: acc.User, Present: true}
		}
	}
	return nil
}

// zeroCost charges nothing; used when the caller passes a nil model.
var zeroCost cycles.CostModel

func charge(clock *cycles.Clock, cost *cycles.CostModel, c cycles.Cycles) {
	if clock != nil && c > 0 {
		clock.Advance(c)
	}
	_ = cost
}
