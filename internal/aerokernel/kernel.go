// Package aerokernel models Nautilus: the lightweight kernel framework an
// HRT runs inside. Everything here executes (in the model) in ring 0 on
// the HRT partition of the HVM.
//
// The package implements the Nautilus pieces the paper built or extended
// for Multiverse (section 4.4): fast kernel threads and events, the system
// call stub that forwards to the ROS (with SYSRET emulated because a
// ring0->ring0 return is architecturally disallowed), the page-fault
// handler that forwards lower-half faults over an event channel and
// re-merges the PML4 on duplicate faults, CR0.WP enforcement so kernel-
// mode writes honor read-only pages, IST-based interrupt stacks that keep
// red zones intact, and the symbol table behind AeroKernel function
// overrides.
package aerokernel

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/hvm"
	"multiverse/internal/image"
	"multiverse/internal/machine"
	"multiverse/internal/paging"
	"multiverse/internal/telemetry"
)

// AKFunc is an AeroKernel function callable by address or by name (the
// target of overrides and async call requests). It runs on an AK thread.
type AKFunc func(t *Thread, args []uint64) uint64

// funcBase is where synthetic AK function symbols live: in the higher
// half, like all AeroKernel text.
const funcBase = paging.HigherHalfMin + 0x40_0000

// Kernel is one booted AeroKernel instance.
type Kernel struct {
	m     *machine.Machine
	cost  *cycles.CostModel
	cores []machine.CoreID
	img   *image.Image

	// threads and nextTid are off the kernel mutex: thread creation and
	// retirement are per-spawn hot-path operations at density scale, and
	// neither needs to see the rest of the kernel state. k.mu still
	// guards current (bounded by core count) and the cold boot/merge
	// state below.
	nextTid atomic.Int64
	threads sync.Map // int tid -> *Thread

	mu       sync.Mutex
	space    *paging.AddressSpace
	current  map[machine.CoreID]*Thread
	symbols  []image.Symbol
	funcs    map[uint64]AKFunc // by symbol address
	nextFunc uint64
	merged   bool
	rosCR3   uint64

	// Incremental-merger state: the ROS-published generation source, the
	// snapshot the last merge consumed, and the cached ros-merge-view
	// (rebuilt only when the ROS CR3 changes).
	genSource    func() []uint64
	lastGen      []uint64
	mergeView    *paging.AddressSpace
	mergeViewCR3 uint64

	// lastFault implements the duplicate-page-fault heuristic: Nautilus
	// keeps a per-core record of the most recent forwarded fault address;
	// a repeat means the ROS changed a top-level mapping and the PML4
	// must be re-merged (section 4.4).
	lastFault map[machine.CoreID]uint64
	// eagerRemerge re-merges on *every* forwarded fault — the naive
	// alternative policy the re-merge ablation compares against.
	eagerRemerge bool

	sigHandler func(sig int)

	// Kernel-managed memory (mm.go): regions, bump pointer, the
	// preserved PML4 entry for the AK slot, and the runtime's fault
	// handler for protection faults it arranged on purpose.
	memRegions   map[uint64]*akRegion
	memNext      uint64
	memSlotEntry uint64
	memFault     MemFaultHandler

	// sched is the per-core run-queue scheduler (core.Options.Scheduler);
	// nil when the option is off. faultMu serializes fault delivery and
	// occupancy installation per core so a fault can never vector into the
	// wrong thread when two threads share a core.
	sched   *Scheduler
	faultMu map[machine.CoreID]*sync.Mutex

	events chan *hvm.HRTRequest
	halted atomic.Bool

	// Telemetry handed over by the HVM at boot (hvm.BootInfo). tracer may
	// be nil (tracing off); metrics is never nil after Boot; recorder is
	// the always-on flight recorder (nil-safe when absent).
	tracer   *telemetry.Tracer
	metrics  *telemetry.Registry
	recorder *telemetry.Recorder

	// The evaluation's boundary counts live only in the registry; Boot
	// resolves their handles once so the syscall and fault paths pay one
	// atomic add, not a registry lookup.
	fwdSysCtr   *telemetry.Counter
	fwdFaultCtr *telemetry.Counter
	mergeCtr    *telemetry.Counter
	remergeCtr  *telemetry.Counter

	// faults is the armed fault-injection plane (nil = off), delivered
	// through the boot protocol for HRT-panic injection.
	faults *faults.Injector
}

// Boot brings up the AeroKernel on the HRT partition described by info:
// it builds the HRT address space (higher-half identity map over all of
// physical memory), enables CR0.WP on every HRT core, installs IST-backed
// fault vectors, loads the image's symbol table, and starts the event loop
// that waits for injected requests. It is the hvm.BootHandler the
// Multiverse runtime registers.
func Boot(m *machine.Machine, info hvm.BootInfo) (*Kernel, error) {
	k := &Kernel{
		m:         m,
		cost:      m.Cost,
		cores:     append([]machine.CoreID(nil), info.HRTCores...),
		img:       info.Image,
		current:   make(map[machine.CoreID]*Thread),
		funcs:     make(map[uint64]AKFunc),
		nextFunc:  funcBase,
		lastFault: make(map[machine.CoreID]uint64),
		faultMu:   make(map[machine.CoreID]*sync.Mutex),
		events:    make(chan *hvm.HRTRequest, 4),
		tracer:    info.Tracer,
		metrics:   info.Metrics,
		recorder:  info.Recorder,
		faults:    info.Faults,
	}
	if k.metrics == nil {
		k.metrics = telemetry.NewRegistry()
	}
	k.fwdSysCtr = k.metrics.Counter("ak.forwarded_syscalls")
	k.fwdFaultCtr = k.metrics.Counter("ak.forwarded_faults")
	k.mergeCtr = k.metrics.Counter("ak.merges")
	k.remergeCtr = k.metrics.Counter("ak.remerges")
	zone := m.ZoneOfCore(info.Core)
	space, err := paging.NewAddressSpace(m.Phys, zone, "hrt")
	if err != nil {
		return nil, fmt.Errorf("aerokernel: boot: %w", err)
	}
	// The HVM arranges the identity map of the whole physical address
	// space into the higher half; the HRT has "full access to all the
	// memory ... of the entire VM" (section 2).
	var total uint64
	for _, z := range m.Phys.Zones() {
		if end := uint64(z.End()); end > total {
			total = end
		}
	}
	if err := space.IdentityMapHigherHalf(total); err != nil {
		return nil, fmt.Errorf("aerokernel: higher-half identity map: %w", err)
	}
	k.space = space
	space.SetTelemetry(k.metrics)

	for _, c := range k.cores {
		core := m.Core(c)
		core.MMU.LoadCR3(space)
		// Enforce write faults in ring 0 (CR0.WP), restoring user-mode
		// copy-on-write/GC-barrier semantics in kernel mode.
		core.MMU.SetWP(true)
		ist := machine.NewStack(16 * 1024)
		if err := core.SetISTStack(1, ist); err != nil {
			return nil, err
		}
		if err := core.SetHandler(machine.VecPageFault, 1, k.pageFaultVector); err != nil {
			return nil, err
		}
		if err := core.SetHandler(machine.VecHVMEvent, 1, func(*machine.Core, *machine.InterruptFrame) {}); err != nil {
			return nil, err
		}
	}

	if info.Image != nil {
		k.symbols = append([]image.Symbol(nil), info.Image.Symbols...)
		sort.Slice(k.symbols, func(i, j int) bool { return k.symbols[i].Name < k.symbols[j].Name })
	}

	go k.eventLoop(info.Core)
	return k, nil
}

// Inject implements hvm.HRTSink: requests enter the AeroKernel event
// loop. A request injected into a halted kernel completes with an error
// code instead of wedging the requester (the VMM's view of a dead guest).
func (k *Kernel) Inject(req *hvm.HRTRequest) {
	defer func() {
		if recover() != nil { // event loop gone: channel closed
			req.Complete(cycles.NewClock(req.Arrival), ^uint64(0))
		}
	}()
	k.events <- req
}

// Halt stops the event loop (HRT shutdown/reboot path).
func (k *Kernel) Halt() {
	if k.halted.CompareAndSwap(false, true) {
		close(k.events)
	}
}

// Halted reports whether the kernel has been halted. The warm-pool claim
// path checks it so a recycled context is never attached to a dead kernel.
func (k *Kernel) Halted() bool { return k.halted.Load() }

// SeedThreadIDs advances the thread-id counter to at least base. A grid
// seeds each node's kernel into a disjoint range so a thread re-homed by
// migration keeps a unique id on the target kernel. Advance-only; a
// no-op if the counter is already past base.
func (k *Kernel) SeedThreadIDs(base int64) {
	for {
		cur := k.nextTid.Load()
		if cur >= base || k.nextTid.CompareAndSwap(cur, base) {
			return
		}
	}
}

// eventLoop is the boot-core idle loop: "the boot process brings the
// AeroKernel up into an event loop that waits for HRT thread creation
// requests" (section 3.5).
func (k *Kernel) eventLoop(bootCore machine.CoreID) {
	clk := cycles.NewClock(0)
	k.m.Core(bootCore).SetClock(clk)
	for req := range k.events {
		clk.SyncTo(req.Arrival)
		switch req.Op {
		case hvm.OpMerge:
			err := k.Merge(clk, bootCore, req.CR3)
			ret := uint64(0)
			if err != nil {
				ret = ^uint64(0)
			}
			req.Complete(clk, ret)
		case hvm.OpCall:
			fn := k.funcByAddr(req.Fn)
			if fn == nil {
				req.Complete(clk, ^uint64(0))
				continue
			}
			t := k.newThread(bootCore, nil, nil)
			t.Clock.SyncTo(clk.Now())
			ret := fn(t, req.Args)
			clk.SyncTo(t.Clock.Now())
			k.retire(t)
			req.Complete(clk, ret)
		case hvm.OpSignal:
			k.mu.Lock()
			h := k.sigHandler
			k.mu.Unlock()
			if h != nil {
				h(req.Signal)
			}
			req.Complete(clk, 0)
		default:
			req.Complete(clk, ^uint64(0))
		}
	}
}

// SetSignalHandler installs the handler for injected ROS->HRT signals.
func (k *Kernel) SetSignalHandler(h func(sig int)) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.sigHandler = h
}

// Space returns the HRT address space.
func (k *Kernel) Space() *paging.AddressSpace {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.space
}

// Cores returns the HRT partition.
func (k *Kernel) Cores() []machine.CoreID {
	return append([]machine.CoreID(nil), k.cores...)
}

// Merged reports whether a lower-half merger is in effect.
func (k *Kernel) Merged() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.merged
}

// MergeCount returns how many mergers (initial + re-merges) have run:
// the registry's ak.merges counter. Like every count below it is
// registry-wide — grid nodes share one registry, and an HRT reboot does
// not reset it.
func (k *Kernel) MergeCount() int { return int(k.mergeCtr.Value()) }

// EnableIncrementalMerger installs the ROS generation source: subsequent
// re-merges against the same CR3 copy only the PML4 slots whose generation
// moved since the previous merge, and shoot down only those slots when the
// delta is small. The first merge (and any merge against a new CR3) stays
// a full copy.
func (k *Kernel) EnableIncrementalMerger(gens func() []uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.genSource = gens
}

// EnableScheduler turns on the per-core run-queue scheduler over the HRT
// partition (core.Options.Scheduler). Idempotent: a second call returns
// the same scheduler.
func (k *Kernel) EnableScheduler() *Scheduler {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.sched == nil {
		k.sched = newScheduler(k)
	}
	return k.sched
}

// Scheduler returns the run-queue scheduler, or nil when the option is off.
func (k *Kernel) Scheduler() *Scheduler {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.sched
}

// faultLock returns the per-core mutex serializing occupancy installation
// and fault delivery on a core.
func (k *Kernel) faultLock(c machine.CoreID) *sync.Mutex {
	k.mu.Lock()
	defer k.mu.Unlock()
	m := k.faultMu[c]
	if m == nil {
		m = &sync.Mutex{}
		k.faultMu[c] = m
	}
	return m
}

// SetEagerRemerge switches the re-merge policy (ablation): when set, the
// fault handler re-merges the PML4 before forwarding every fault, instead
// of only on duplicate faults.
func (k *Kernel) SetEagerRemerge(on bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.eagerRemerge = on
}

// RemergeCount returns how many re-merges the fault handler has run (the
// registry's ak.remerges counter; registry-wide, see MergeCount).
func (k *Kernel) RemergeCount() int { return int(k.remergeCtr.Value()) }

// ForwardedFaults returns the number of page faults forwarded to the ROS
// (the registry's ak.forwarded_faults counter; registry-wide, see
// MergeCount). Thread.ForwardedFaults is one thread's share.
func (k *Kernel) ForwardedFaults() uint64 { return k.fwdFaultCtr.Value() }

// ForwardedSyscalls returns the number of system calls forwarded (the
// registry's ak.forwarded_syscalls counter; registry-wide, see
// MergeCount).
func (k *Kernel) ForwardedSyscalls() uint64 { return k.fwdSysCtr.Value() }

// Merge copies the lower half of the ROS process's PML4 (found through
// cr3) into the HRT's PML4 and shoots down the HRT cores' TLBs — the
// address-space merger superposition. With the incremental merger enabled,
// a re-merge against the same CR3 copies only the slots whose ROS
// generation stamp moved; every merge ends in the same broadcast shootdown.
func (k *Kernel) Merge(clk *cycles.Clock, onCore machine.CoreID, cr3 uint64) error {
	track := telemetry.Track{Core: int(onCore), Name: "ak"}
	sp := k.tracer.Begin(track, "merger", "merger", clk.Now(),
		telemetry.Attr{Key: "cr3", Val: cr3})
	defer func() { sp.EndAt(clk.Now()) }()
	start := clk.Now()

	k.mu.Lock()
	space := k.space
	rosSpace := k.mergeView
	if rosSpace == nil || k.mergeViewCR3 != cr3 {
		rosSpace = paging.FromCR3(k.m.Phys, k.m.ZoneOfCore(onCore), cr3, "ros-merge-view")
		k.mergeView = rosSpace
		k.mergeViewCR3 = cr3
	}
	genSource := k.genSource
	lastGen := k.lastGen
	delta := genSource != nil && k.merged && k.rosCR3 == cr3
	k.mu.Unlock()

	// Snapshot the generations before touching the tables: a ROS mutation
	// racing the copy re-bumps its slot relative to this snapshot and gets
	// re-copied by the next merge.
	var gens []uint64
	if genSource != nil {
		gens = genSource()
	}
	var changed []int
	if delta {
		for i, g := range gens {
			if i >= len(lastGen) || g != lastGen[i] {
				changed = append(changed, i)
			}
		}
	}

	cp := k.tracer.Begin(track, "merger", "pml4-copy", clk.Now())
	var n int
	var err error
	if delta {
		n, err = space.CopyTopEntriesFrom(rosSpace, changed)
		k.metrics.Counter("merger.delta.entries").Add(uint64(n))
		cp.SetAttr("delta", 1)
	} else {
		n, err = space.CopyLowerHalfFrom(rosSpace)
	}
	clk.Advance(cycles.Cycles(n) * k.cost.PML4EntryCopy)
	cp.SetAttr("entries", uint64(n))
	cp.EndAt(clk.Now())
	if err != nil {
		return fmt.Errorf("aerokernel: merger: %w", err)
	}
	// A full copy takes every lower-half entry from the ROS, which would
	// wipe the AeroKernel's own memory-management slot; restore it. A delta
	// copy can only touch the slot if the ROS claimed it, which MemMap
	// forbids.
	k.mu.Lock()
	slotEntry := k.memSlotEntry
	k.mu.Unlock()
	if slotEntry != 0 && (!delta || containsSlot(changed, akMemSlot)) {
		if err := space.SetTopEntry(akMemSlot, slotEntry); err != nil {
			return fmt.Errorf("aerokernel: restoring AK memory slot: %w", err)
		}
	}
	sd := k.tracer.Begin(track, "merger", "tlb-shootdown", clk.Now())
	k.m.ShootdownTLB(onCore, k.cores)
	k.metrics.Counter("merger.shootdown.broadcast").Inc()
	sd.EndAt(clk.Now())
	k.mu.Lock()
	k.merged = true
	k.rosCR3 = cr3
	if gens != nil {
		k.lastGen = gens
	}
	k.mu.Unlock()
	k.mergeCtr.Inc()
	k.metrics.LatencyHistogram("ak.merge.latency").Observe(clk.Now() - start)
	k.recorder.Record(clk.Now(), telemetry.RecMergeDelta, uint64(onCore), 0, uint64(n), boolU64(delta))
	return nil
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// containsSlot reports whether slot is in slots.
func containsSlot(slots []int, slot int) bool {
	for _, s := range slots {
		if s == slot {
			return true
		}
	}
	return false
}

// funcByAddr resolves a registered AK function address.
func (k *Kernel) funcByAddr(addr uint64) AKFunc {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.funcs[addr]
}

// RegisterFunc publishes an AeroKernel function under a symbol name,
// returning its address. If the booted image's symbol table already
// exports the name, the implementation binds to that address (the code
// lives where the linker put it); otherwise a synthetic symbol is added.
// Override wrappers and async-call requesters resolve it by symbol lookup.
func (k *Kernel) RegisterFunc(name string, fn AKFunc) uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, s := range k.symbols {
		if s.Name == name {
			k.funcs[s.Addr] = fn
			return s.Addr
		}
	}
	addr := k.nextFunc
	k.nextFunc += 64
	k.funcs[addr] = fn
	k.symbols = append(k.symbols, image.Symbol{Name: name, Addr: addr, Size: 64})
	sort.Slice(k.symbols, func(i, j int) bool { return k.symbols[i].Name < k.symbols[j].Name })
	return addr
}

// LookupSymbol performs the uncached symbol lookup the override wrappers
// do on *every* invocation in the current design — a linear scan whose
// per-entry compare cost is charged to the caller, "so incurs a
// non-trivial overhead" (section 4.2). The symbol-cache ablation measures
// the alternative.
func (k *Kernel) LookupSymbol(clk *cycles.Clock, name string) (uint64, bool) {
	k.mu.Lock()
	syms := k.symbols
	k.mu.Unlock()
	const perEntry = 18 // strcmp + table walk per entry
	for i, s := range syms {
		if clk != nil {
			clk.Advance(perEntry)
		}
		if s.Name == name {
			_ = i
			return s.Addr, true
		}
	}
	return 0, false
}

// SymbolCount returns the symbol-table size (lookup cost scales with it).
func (k *Kernel) SymbolCount() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.symbols)
}

// CallByAddr invokes a registered AK function directly on thread t (the
// tail of an override wrapper: "the wrapper then invokes the function
// directly since it is already executing in the HRT context").
func (k *Kernel) CallByAddr(t *Thread, addr uint64, args ...uint64) (uint64, error) {
	fn := k.funcByAddr(addr)
	if fn == nil {
		return 0, fmt.Errorf("aerokernel: no function at %#x", addr)
	}
	return fn(t, args), nil
}

// pageFaultVector is the IDT entry for #PF on HRT cores. It runs on the
// IST stack (so red zones survive) and delegates to the handler with the
// interrupted thread's context.
func (k *Kernel) pageFaultVector(c *machine.Core, f *machine.InterruptFrame) {
	k.mu.Lock()
	t := k.current[c.ID]
	k.mu.Unlock()
	if t == nil {
		panic(fmt.Sprintf("aerokernel: page fault on core %d with no thread (addr %#x)", c.ID, f.CR2))
	}
	t.faultStatus = k.handleFault(t, f)
}

// handleFault implements the Nautilus addition: "a check in the page fault
// handler to look for ROS virtual addresses and forward them appropriately
// over an event channel", plus the duplicate-fault re-merge.
func (k *Kernel) handleFault(t *Thread, f *machine.InterruptFrame) error {
	addr := f.CR2
	if !paging.IsLowerHalf(addr) {
		// A higher-half fault is an AeroKernel bug (the identity map
		// covers all physical memory).
		return fmt.Errorf("aerokernel: unexpected higher-half fault at %#x", addr)
	}
	if inAKRegion(addr) {
		// Kernel-managed memory: this fault is the runtime's own doing
		// (a write barrier it arranged with MemProtect). Resolve it at
		// kernel speed — no forwarding.
		k.mu.Lock()
		h := k.memFault
		k.mu.Unlock()
		if h != nil && h(addr, f.ErrorCode&0x2 != 0) {
			k.m.Core(t.Core).MMU.TLB().FlushVA(addr)
			return nil
		}
		return fmt.Errorf("aerokernel: unhandled fault in AK memory at %#x", addr)
	}
	if !k.Merged() {
		return fmt.Errorf("aerokernel: lower-half access at %#x before merger", addr)
	}

	// Faults that may cross the boundary (re-merge or forward) are tracked
	// requests like syscalls: allocate the causal id here so the merger
	// delta work and the forwarded envelope carry the same one.
	reqID := t.nextReqID()

	k.mu.Lock()
	dup := k.lastFault[t.Core] == addr
	k.lastFault[t.Core] = addr
	cr3 := k.rosCR3
	eager := k.eagerRemerge
	k.mu.Unlock()

	if eager {
		if err := k.Merge(t.Clock, t.Core, cr3); err != nil {
			return err
		}
		k.remergeCtr.Inc()
		k.recorder.Record(t.Clock.Now(), telemetry.RecRemerge, uint64(t.ID), reqID, addr, 0)
	} else if dup {
		// Same address faulted twice in a row: the ROS must have
		// changed a top-level mapping after our merger. Re-merge.
		if err := k.Merge(t.Clock, t.Core, cr3); err != nil {
			return err
		}
		k.mu.Lock()
		delete(k.lastFault, t.Core)
		k.mu.Unlock()
		k.remergeCtr.Inc()
		k.recorder.Record(t.Clock.Now(), telemetry.RecRemerge, uint64(t.ID), reqID, addr, 0)
		return nil
	}

	// Degraded ROS-only mode: the group's channel is beyond its recovery
	// budget, so the access is replicated by a direct ROS entry instead.
	if fb := t.fallbackSvc(); fb != nil && fb.Fault != nil {
		if fb.Fault(t, addr, f.ErrorCode&0x2 != 0) {
			k.m.Core(t.Core).MMU.TLB().FlushVA(addr)
			return nil
		}
		return fmt.Errorf("aerokernel: degraded ROS service could not resolve fault at %#x", addr)
	}

	// Forward the fault to the ROS: through the group's router when it
	// has one, which takes a promoted polled rung if there is one, else
	// over the execution group's event channel. Either way the ROS side
	// replicates the access and handles it as it would natively.
	ch := t.channel()
	router := t.syscallRouter()
	if ch == nil && router == nil {
		return fmt.Errorf("aerokernel: fault at %#x with no event channel", addr)
	}
	t.fwdFaults++
	k.fwdFaultCtr.Inc()
	write := f.ErrorCode&0x2 != 0
	var ok bool
	if router != nil {
		var err error
		if ok, err = router.ForwardFault(t.Clock, ch, addr, write, reqID); err != nil {
			return err
		}
	} else {
		reply, err := ch.ForwardFault(t.Clock, addr, write, reqID)
		if err != nil {
			return err
		}
		ok = reply.FaultOK
	}
	if !ok {
		return fmt.Errorf("aerokernel: ROS could not resolve fault at %#x", addr)
	}
	// The ROS fixed the shared lower-level tables; drop our stale TLB
	// entry and let the instruction retry.
	k.m.Core(t.Core).MMU.TLB().FlushVA(addr)
	return nil
}
