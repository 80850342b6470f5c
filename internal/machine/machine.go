// Package machine models the hardware platform: cores grouped into
// sockets, per-core MMU/TLB, descriptor-table state, the
// interrupt-vector table with IST support, and inter-processor interrupts.
// Cores keep no clock: every cost lands on the clock of the context that
// pays it, which the caller passes in.
//
// The default topology mirrors the paper's evaluation machine — a Dell
// PowerEdge R415 with one 8-core AMD Opteron 4122 package exposing two
// 4-core sockets (dies) and 8 GiB of RAM split into one NUMA zone per
// socket.
package machine

import (
	"fmt"
	"sync"

	"multiverse/internal/cycles"
	"multiverse/internal/mem"
	"multiverse/internal/paging"
)

// CoreID identifies one core.
type CoreID int

// Vector is an interrupt/exception vector number.
type Vector uint8

// Well-known vectors.
const (
	VecDivide    Vector = 0
	VecPageFault Vector = 14
	// VecHVMEvent is the vector the HVM uses to inject ROS->HRT requests
	// (address-space mergers, function-call requests) as "special
	// exceptions or interrupts" (section 4.3).
	VecHVMEvent Vector = 0xE0
	// VecHRTSignal is the vector used for ROS-application-to-HRT signals,
	// which take highest precedence in the HRT (section 2).
	VecHRTSignal Vector = 0xE1
	// VecTLBShootdown carries remote TLB-invalidation requests.
	VecTLBShootdown Vector = 0xE2
	// VecSchedKick is the scheduler's wakeup IPI: it knocks a halted core
	// out of hlt so a newly enqueued thread or stolen task can run.
	VecSchedKick Vector = 0xE3
)

// Context is the execution context an interrupt interrupts. Delivery
// charges its Clock, and a vector without an IST pushes its frame onto its
// Stack (nil: no stack to clobber). Owner is opaque to the machine: it is
// how a handler finds the interrupted thread, so delivery needs no
// per-core record of who is running.
type Context struct {
	Clock *cycles.Clock
	Stack *Stack
	Owner any
}

// InterruptFrame is the state pushed on interrupt entry.
type InterruptFrame struct {
	Vector    Vector
	ErrorCode uint64
	RIP       uint64
	RSP       uint64
	CR2       uint64  // faulting address, for page faults
	Ctx       Context // the interrupted context, filled in by Raise
}

// Handler services one interrupt vector on a core. It runs with the
// interrupted context's clock already synchronized to the interrupt
// arrival time.
type Handler func(c *Core, f *InterruptFrame)

// SegmentDescriptor is one GDT entry (the fields the superposition
// machinery mirrors).
type SegmentDescriptor struct {
	Base  uint64
	Limit uint32
	DPL   uint8
	Code  bool
}

// GDT is a global descriptor table. The ROS GDT is mirrored into HRT cores
// during thread-creation superpositions so that segment-relative accesses
// (notably TLS through %fs) resolve identically in both worlds.
type GDT struct {
	Entries []SegmentDescriptor
}

// Clone returns a deep copy, used when superimposing the ROS GDT onto an
// HRT core.
func (g GDT) Clone() GDT {
	out := GDT{Entries: make([]SegmentDescriptor, len(g.Entries))}
	copy(out.Entries, g.Entries)
	return out
}

// idtEntry pairs a handler with its IST selection.
type idtEntry struct {
	handler Handler
	ist     int // 0 = no stack switch; 1..7 = IST stack index
}

// Core is one simulated CPU core.
type Core struct {
	ID     CoreID
	Socket int

	MMU *paging.MMU

	mu     sync.Mutex
	gdt    GDT
	fsBase uint64 // FS.base MSR: thread-local storage pointer
	idt    map[Vector]idtEntry
	ist    [8]*Stack // IST stacks (index 0 unused, as on hardware)

	// Scheduler-maintained occupancy: the thread id currently charged to
	// this core (0 = idle), and whether the core has fallen past its spin
	// window into hlt.
	occupant int
	halted   bool

	machine *Machine
}

// Machine is the full platform.
type Machine struct {
	Cost  *cycles.CostModel
	Phys  *mem.PhysMem
	cores []*Core
}

// Spec configures a machine.
type Spec struct {
	Sockets        int
	CoresPerSocket int
	FramesPerZone  uint64 // physical frames per NUMA zone
	TLBCapacity    int
	Cost           *cycles.CostModel
}

// DefaultSpec mirrors the paper's testbed: 2 sockets x 4 cores. The frame
// count is scaled down from 8 GiB to keep fixture setup fast; nothing in
// the protocols depends on the absolute size.
func DefaultSpec() Spec {
	return Spec{
		Sockets:        2,
		CoresPerSocket: 4,
		FramesPerZone:  16384, // 64 MiB per zone
		TLBCapacity:    512,
		Cost:           cycles.DefaultCostModel(),
	}
}

// New builds a machine from the spec.
func New(spec Spec) (*Machine, error) {
	if spec.Sockets <= 0 || spec.CoresPerSocket <= 0 {
		return nil, fmt.Errorf("machine: need at least one core, got %dx%d", spec.Sockets, spec.CoresPerSocket)
	}
	if spec.Cost == nil {
		spec.Cost = cycles.DefaultCostModel()
	}
	if spec.TLBCapacity <= 0 {
		spec.TLBCapacity = 512
	}
	zones := make([]mem.Zone, spec.Sockets)
	for s := 0; s < spec.Sockets; s++ {
		zones[s] = mem.Zone{
			ID:    mem.NUMAZone(s),
			Start: mem.Frame(uint64(s) * spec.FramesPerZone),
			Count: spec.FramesPerZone,
		}
	}
	m := &Machine{
		Cost: spec.Cost,
		Phys: mem.New(zones...),
	}
	for s := 0; s < spec.Sockets; s++ {
		for c := 0; c < spec.CoresPerSocket; c++ {
			core := &Core{
				ID:      CoreID(s*spec.CoresPerSocket + c),
				Socket:  s,
				MMU:     paging.NewMMU(spec.TLBCapacity),
				idt:     make(map[Vector]idtEntry),
				machine: m,
			}
			m.cores = append(m.cores, core)
		}
	}
	return m, nil
}

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// Core returns core id; it panics on out-of-range ids (construction bug).
func (m *Machine) Core(id CoreID) *Core {
	if int(id) < 0 || int(id) >= len(m.cores) {
		panic(fmt.Sprintf("machine: no core %d", id))
	}
	return m.cores[id]
}

// Cores returns all cores in id order.
func (m *Machine) Cores() []*Core {
	out := make([]*Core, len(m.cores))
	copy(out, m.cores)
	return out
}

// SameSocket reports whether two cores share a socket — the property that
// determines synchronous-channel cacheline latency (Figure 2).
func (m *Machine) SameSocket(a, b CoreID) bool {
	return m.Core(a).Socket == m.Core(b).Socket
}

// ZoneOfCore returns the NUMA zone local to a core's socket.
func (m *Machine) ZoneOfCore(id CoreID) mem.NUMAZone {
	return mem.NUMAZone(m.Core(id).Socket)
}

// SetGDT installs a descriptor table on the core.
func (c *Core) SetGDT(g GDT) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gdt = g.Clone()
}

// GDT returns a copy of the core's descriptor table.
func (c *Core) GDT() GDT {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gdt.Clone()
}

// SetFSBase writes the FS.base MSR (thread-local storage pointer).
func (c *Core) SetFSBase(v uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fsBase = v
}

// FSBase reads the FS.base MSR.
func (c *Core) FSBase() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fsBase
}

// SetHandler installs an interrupt handler. ist selects an IST stack
// (1..7) for the hardware stack switch, or 0 for none — the mechanism
// Nautilus uses to keep interrupt frames off red-zone-bearing user stacks
// (section 4.4).
func (c *Core) SetHandler(v Vector, ist int, h Handler) error {
	if ist < 0 || ist > 7 {
		return fmt.Errorf("machine: IST index %d out of range", ist)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idt[v] = idtEntry{handler: h, ist: ist}
	return nil
}

// SetISTStack assigns a stack to IST slot i (1..7).
func (c *Core) SetISTStack(i int, s *Stack) error {
	if i < 1 || i > 7 {
		return fmt.Errorf("machine: IST slot %d out of range", i)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ist[i] = s
	return nil
}

// Machine returns the owning machine.
func (c *Core) Machine() *Machine { return c.machine }

// Raise delivers an interrupt or exception to ctx, running on this core,
// at time `at` (already including delivery latency). The hardware pushes
// the frame onto the IST stack if one is configured for the vector,
// otherwise onto ctx's stack at its current RSP — destroying any red zone
// there, exactly the hazard the paper describes. Everything it charges
// goes to ctx's clock, so concurrent deliveries on one core need no lock:
// an IST stack's push and pop lock internally and stay balanced.
func (c *Core) Raise(v Vector, ctx Context, frame *InterruptFrame, at cycles.Cycles) error {
	c.mu.Lock()
	entry, ok := c.idt[v]
	target := ctx.Stack
	istSwitch := false
	if ok && entry.ist != 0 && c.ist[entry.ist] != nil {
		target = c.ist[entry.ist]
		istSwitch = true
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("machine: core %d has no handler for vector %#x", c.ID, v)
	}
	ctx.Clock.SyncTo(at)
	if istSwitch {
		ctx.Clock.Advance(c.machine.Cost.AKIstSwitch)
	}
	frame.Vector = v
	frame.Ctx = ctx
	if target != nil {
		target.PushFrame(frame)
	}
	entry.handler(c, frame)
	if target != nil {
		target.PopFrame()
	}
	return nil
}

// SetOccupant records the thread id the scheduler considers to be running
// on this core (0 = idle). Purely bookkeeping: it carries no cost.
func (c *Core) SetOccupant(tid int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.occupant = tid
}

// Occupant returns the thread id the scheduler last charged to this core,
// or 0 if the core is idle.
func (c *Core) Occupant() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.occupant
}

// SetHalted records whether the core has executed hlt after exhausting its
// spin window.
func (c *Core) SetHalted(h bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.halted = h
}

// Halted reports whether the core is modeled as sitting in hlt.
func (c *Core) Halted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.halted
}

// KickCore models the scheduler's VecSchedKick wakeup IPI to core `to`.
// Like ShootdownTLB it charges only the clock passed in — here the *woken*
// context, which in virtual time is the one that observes the delivery
// latency before it can start — so host goroutine interleaving can never
// leak into another context's clock. The target core merely has its halted
// flag cleared; no handler runs.
func (m *Machine) KickCore(clk *cycles.Clock, to CoreID) {
	clk.Advance(m.Cost.IPIKick)
	m.Core(to).SetHalted(false)
}

// ShootdownTLB broadcasts a TLB invalidation from core `from` to every core
// in targets (flushing `from`'s own TLB locally if listed). The sender, the
// context owning clk, pays one IPI per remote target plus its local flush
// — the cost structure of the merger's "broadcast a TLB shootdown to all
// HRT cores".
func (m *Machine) ShootdownTLB(clk *cycles.Clock, from CoreID, targets []CoreID) {
	src := m.Core(from)
	for _, t := range targets {
		if t == from {
			src.MMU.TLB().FlushAll()
			clk.Advance(m.Cost.TLBFlushLocal)
			continue
		}
		m.Core(t).MMU.TLB().FlushAll()
		clk.Advance(m.Cost.TLBShootdownIPI + m.Cost.TLBFlushLocal)
	}
}
