package ros

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
	"multiverse/internal/mem"
	"multiverse/internal/paging"
	"multiverse/internal/vfs"
)

// vma is one virtual memory area created by mmap/brk. Pages inside it are
// demand-mapped on first touch (minor faults).
type vma struct {
	start  uint64
	length uint64
	prot   int
	pages  map[uint64]mem.Frame // page base -> backing frame
}

func (v *vma) end() uint64 { return v.start + v.length }

func (v *vma) contains(addr uint64) bool {
	return addr >= v.start && addr < v.end()
}

// allows reports whether the VMA's protections permit the access.
func (v *vma) allows(write bool) bool {
	if write {
		return v.prot&linuxabi.ProtWrite != 0
	}
	return v.prot&linuxabi.ProtRead != 0
}

// sigaction is one registered disposition.
type sigaction struct {
	handlerAddr uint64
	flags       uint64
}

// SignalContext is what a delivered signal handler sees (a trimmed
// siginfo/ucontext). Clock is the virtual clock of the context the handler
// runs on — a ROS thread natively, an HRT thread under Multiverse. For
// fault-path deliveries, Sys issues system calls in the delivering
// thread's kernel context: under Multiverse the handler runs on the ROS
// side of the execution group (the partner replicated the access), so its
// own system calls execute natively there rather than re-crossing the
// event channel the group is already converged on.
type SignalContext struct {
	Sig       linuxabi.Signal
	FaultAddr uint64 // SIGSEGV: faulting address
	Write     bool   // SIGSEGV: access was a write
	Clock     *cycles.Clock
	Sys       func(call linuxabi.Call) linuxabi.Result
}

// SignalHandlerFunc is the Go closure standing in for the handler code at
// a registered handler address.
type SignalHandlerFunc func(*SignalContext)

// Stats is the per-process accounting Figure 10 reports.
type Stats struct {
	Syscalls      map[linuxabi.Sysno]uint64
	UserCycles    cycles.Cycles
	SysCycles     cycles.Cycles
	MinorFaults   uint64
	MajorFaults   uint64
	MaxRSSPages   uint64
	VoluntaryCS   uint64
	InvoluntaryCS uint64
	SignalsSent   uint64
}

// TotalSyscalls sums the per-call counters.
func (s *Stats) TotalSyscalls() uint64 {
	var n uint64
	for _, c := range s.Syscalls {
		n += c
	}
	return n
}

// MaxRSSKb converts the peak resident set to KiB.
func (s *Stats) MaxRSSKb() uint64 { return s.MaxRSSPages * mem.PageSize / 1024 }

// Process is one ROS process.
type Process struct {
	kern *Kernel
	pid  int
	name string

	mu        sync.Mutex
	space     *paging.AddressSpace
	vmas      []*vma // sorted by start
	residency uint64 // currently mapped pages
	fds       map[int]fdEntry
	nextFd    int
	cwd       string
	threadFns map[uint64]func(*Thread)
	nextTid   int
	exited    bool
	exitCode  uint64
	stdout    []byte
	stdin     []byte

	// shared is the process-wide break, mmap pointer, itimer and signal
	// dispositions every thread acts on while arenas are off.
	shared threadArena

	// Optional fault trace, for the paper's fidelity criterion: "if we
	// collect a trace of page faults in the application running native
	// and under Multiverse, the traces should look identical"
	// (section 4.4). Under Multiverse the partner thread replicates each
	// forwarded access, so the trace records here either way.
	faultTrace    []FaultRecord
	faultTraceCap int

	// Deterministic per-thread arenas (scheduler mode): anonymous mmap and
	// brk placement derive from the calling thread's TID alone, so the
	// addresses concurrent threads get — and the page-table work those
	// addresses imply — no longer depend on goroutine scheduling order.
	detArenas bool
	arenas    map[int]*threadArena

	// brkStamp is the generation stamp of the program break (see
	// BrkStamp).
	brkStamp uint64

	// pml4Gen is the per-slot generation stamp of the lower-half PML4: any
	// operation that can change a top-level entry (or what it governs)
	// bumps the covering slots, so an incremental merger can copy only the
	// slots that moved since its last merge.
	pml4Gen [paging.LowerHalfEntries]uint64

	stats Stats

	// Hot accounting counters: the runtime under test bumps these on
	// every compute charge and context switch, so they live off p.mu as
	// atomics; Stats and getrusage fold them into the snapshot.
	userCycles  atomic.Uint64
	sysCycles   atomic.Uint64
	voluntaryCS atomic.Uint64
	involCS     atomic.Uint64
}

// fdEntry is one fd-table slot: the open file and the generation stamp
// of what the fd addresses (see FDStamp).
type fdEntry struct {
	file  *vfs.File
	stamp uint64
}

// FaultRecord is one entry of the page-fault trace.
type FaultRecord struct {
	Addr  uint64
	Write bool
}

// EnableFaultTrace starts recording up to max kernel-handled user page
// faults.
func (p *Process) EnableFaultTrace(max int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faultTraceCap = max
	p.faultTrace = make([]FaultRecord, 0, max)
}

// FaultTrace returns a copy of the recorded trace.
func (p *Process) FaultTrace() []FaultRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]FaultRecord(nil), p.faultTrace...)
}

// Fixed layout constants for the simulated process image.
const (
	brkBase  uint64 = 0x0000_0000_0120_0000 // heap starts above a nominal image
	mmapBase uint64 = 0x0000_7f00_0000_0000 // mmap region, grows upward

	// Deterministic-arena layout: each thread owns a 1 GiB slice of the
	// mmap region keyed by its TID — anonymous mappings bump through the
	// first 768 MiB, the thread's private program break through the rest.
	arenaStride uint64 = 1 << 30
	arenaBrkOff uint64 = 3 << 28
)

// threadArena is the state a thread's identity keys: a bump pointer for
// anonymous mmap, a program break, an interval timer and signal
// dispositions. Under deterministic arenas each TID owns one (so
// concurrent engines arming their cooperative tick cannot clobber each
// other in arrival order); otherwise every thread shares the process's.
type threadArena struct {
	mmapNext uint64
	brkBase  uint64
	brk      uint64

	timerDeadline cycles.Cycles
	timerInterval cycles.Cycles
	timerSig      linuxabi.Signal
	sigactions    map[linuxabi.Signal]sigaction
	handlers      map[uint64]SignalHandlerFunc
}

// EnableDeterministicArenas switches anonymous-mmap and brk placement to
// per-thread arenas derived from the calling thread's TID alone. The
// AeroKernel scheduler turns this on: with threads placed across cores and
// genuinely overlapping, address assignment must be a function of program
// structure, not of which thread's syscall won the race, or end-to-end
// virtual time stops being reproducible.
func (p *Process) EnableDeterministicArenas() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.detArenas = true
	if p.arenas == nil {
		p.arenas = make(map[int]*threadArena)
	}
}

// arenaFor returns (creating on first use) tid's arena, or the shared
// process state when arenas are off. Caller holds p.mu.
func (p *Process) arenaFor(tid int) *threadArena {
	if !p.detArenas {
		return &p.shared
	}
	a := p.arenas[tid]
	if a == nil {
		base := mmapBase + uint64(tid)*arenaStride
		a = &threadArena{
			mmapNext:   base,
			brkBase:    base + arenaBrkOff,
			brk:        base + arenaBrkOff,
			sigactions: make(map[linuxabi.Signal]sigaction),
			handlers:   make(map[uint64]SignalHandlerFunc),
		}
		p.arenas[tid] = a
	}
	return a
}

func newProcess(k *Kernel, pid int, name string) (*Process, error) {
	space, err := paging.NewAddressSpace(k.machine.Phys, k.Zone(), fmt.Sprintf("%s.%d", name, pid))
	if err != nil {
		return nil, fmt.Errorf("ros: creating address space: %w", err)
	}
	p := &Process{
		kern:    k,
		pid:     pid,
		name:    name,
		space:   space,
		fds:     make(map[int]fdEntry),
		nextFd:  3, // 0,1,2 reserved for stdio
		cwd:     "/",
		nextTid: 1,
		stats:   Stats{Syscalls: make(map[linuxabi.Sysno]uint64)},
		shared: threadArena{
			mmapNext:   mmapBase,
			brkBase:    brkBase,
			brk:        brkBase,
			sigactions: make(map[linuxabi.Signal]sigaction),
			handlers:   make(map[uint64]SignalHandlerFunc),
		},
	}
	return p, nil
}

// Pid returns the process id.
func (p *Process) Pid() int { return p.pid }

// Name returns the executable name.
func (p *Process) Name() string { return p.name }

// Cwd returns the working directory (mirrored into the HRT at router
// creation).
func (p *Process) Cwd() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cwd
}

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.kern }

// Space returns the process page tables (the merger reads its CR3).
func (p *Process) Space() *paging.AddressSpace {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.space
}

// CR3 returns the process's page-table root physical address.
func (p *Process) CR3() uint64 { return p.Space().CR3() }

// PML4Generations snapshots the lower-half PML4 generation stamps — the
// publication side of the incremental-merger protocol.
func (p *Process) PML4Generations() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]uint64, paging.LowerHalfEntries)
	copy(out, p.pml4Gen[:])
	return out
}

// Generation stamps of the state the HRT-side router caches results
// about. Each successful mutating system call gives the state it changed a
// fresh stamp (vfs.NewStamp), so a cached result is current exactly while
// the stamp it was filled under still reads the same:
//
//	fd:    write, read, a seek other than the lseek(fd, 0, SEEK_CUR)
//	       position query, and close (the fd then reads 0);
//	path:  open, and write through an fd on the file;
//	break: brk with a nonzero argument.
//
// A closed fd and a missing path read 0, which no entry holds.

// FDStamp returns the generation stamp of fd, or 0 when fd is not open.
func (p *Process) FDStamp(fd int) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fds[fd].stamp
}

// PathStamp returns the generation stamp of the file at an absolute path,
// or 0 when no file is there.
func (p *Process) PathStamp(path string) uint64 { return p.kern.fs.Stamp(path) }

// BrkStamp returns the generation stamp of the program break.
func (p *Process) BrkStamp() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.brkStamp
}

// restampFD gives fd's entry a fresh stamp.
func (p *Process) restampFD(fd int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.fds[fd]; ok {
		e.stamp = vfs.NewStamp()
		p.fds[fd] = e
	}
}

// bumpGen bumps the generation of every lower-half PML4 slot covering
// [addr, addr+length). Callers hold p.mu.
func (p *Process) bumpGen(addr, length uint64) {
	if length == 0 || !paging.IsLowerHalf(addr) {
		return
	}
	lo := paging.PML4Index(addr)
	hi := paging.PML4Index(addr + length - 1)
	for i := lo; i <= hi && i < paging.LowerHalfEntries; i++ {
		p.pml4Gen[i]++
	}
}

// Stats returns a snapshot of the accounting counters.
func (p *Process) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.stats
	out.Syscalls = make(map[linuxabi.Sysno]uint64, len(p.stats.Syscalls))
	for k, v := range p.stats.Syscalls {
		out.Syscalls[k] = v
	}
	p.foldHotStats(&out)
	return out
}

// ChargeUser adds user-mode compute time to the accounting; the runtime
// under test calls this as it works.
func (p *Process) ChargeUser(c cycles.Cycles) {
	p.userCycles.Add(uint64(c))
}

func (p *Process) chargeSys(c cycles.Cycles) {
	p.sysCycles.Add(uint64(c))
}

// CountVoluntaryCS records a voluntary context switch (blocking).
func (p *Process) CountVoluntaryCS() {
	p.voluntaryCS.Add(1)
}

// countInvoluntaryCS records a preemption (timer-driven).
func (p *Process) countInvoluntaryCS() {
	p.involCS.Add(1)
}

// foldHotStats merges the atomic accounting counters into a stats
// snapshot.
func (p *Process) foldHotStats(st *Stats) {
	st.UserCycles += cycles.Cycles(p.userCycles.Load())
	st.SysCycles += cycles.Cycles(p.sysCycles.Load())
	st.VoluntaryCS += p.voluntaryCS.Load()
	st.InvoluntaryCS += p.involCS.Load()
}

// RegisterHandler associates handler code (a Go closure) with a handler
// address in the process image, so rt_sigaction can refer to it the way
// real code refers to a function pointer. The registration is scoped to
// ROS thread tid: engines place their handlers at fixed image addresses,
// so under deterministic arenas — where several engines run at once — the
// address→closure table must be per-thread or concurrent engines would
// clobber each other's registrations in arrival order. With arenas off
// every thread uses the shared process table.
func (p *Process) RegisterHandler(tid int, addr uint64, fn SignalHandlerFunc) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.arenaFor(tid).handlers[addr] = fn
}

// Exited reports whether the process has exited and with what code.
func (p *Process) Exited() (bool, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exited, p.exitCode
}

// ---- VMA management -------------------------------------------------

// findVMA returns the VMA containing addr.
func (p *Process) findVMA(addr uint64) *vma {
	for _, v := range p.vmas {
		if v.contains(addr) {
			return v
		}
	}
	return nil
}

// insertVMA adds a VMA keeping the list sorted; overlap is a caller bug.
func (p *Process) insertVMA(v *vma) linuxabi.Errno {
	for _, ex := range p.vmas {
		if v.start < ex.end() && ex.start < v.end() {
			return linuxabi.EEXIST
		}
	}
	p.vmas = append(p.vmas, v)
	sort.Slice(p.vmas, func(i, j int) bool { return p.vmas[i].start < p.vmas[j].start })
	return linuxabi.OK
}

// mapPage demand-maps one page of a VMA, charging frame zeroing and PTE
// installation to clk and counting a minor fault.
func (p *Process) mapPage(v *vma, base uint64, clk *cycles.Clock) linuxabi.Errno {
	f, err := p.kern.machine.Phys.Alloc(p.kern.Zone())
	if err != nil {
		return linuxabi.ENOMEM
	}
	flags := uint64(paging.PteUser)
	if v.prot&linuxabi.ProtWrite != 0 {
		flags |= paging.PteWrite
	}
	// Demand-mapping the first page under an empty PML4 slot allocates the
	// PDPT, which rewrites the top-level entry — a change only visible to a
	// merged HRT after a re-merge, so it must bump the slot's generation.
	slot := paging.PML4Index(base)
	before := p.space.TopEntry(slot)
	if err := p.space.Map(base, f, flags); err != nil {
		_ = p.kern.machine.Phys.Free(f)
		return linuxabi.ENOMEM
	}
	if slot < paging.LowerHalfEntries && p.space.TopEntry(slot) != before {
		p.pml4Gen[slot]++
	}
	v.pages[base] = f
	p.residency++
	if p.residency > p.stats.MaxRSSPages {
		p.stats.MaxRSSPages = p.residency
	}
	p.stats.MinorFaults++
	clk.Advance(p.kern.cost.PageZero + p.kern.cost.PTEWrite)
	return linuxabi.OK
}

// protFlags converts mmap PROT_* bits to PTE flags.
func protFlags(prot int) uint64 {
	flags := uint64(paging.PteUser)
	if prot&linuxabi.ProtWrite != 0 {
		flags |= paging.PteWrite
	}
	return flags
}

// ResidentPages returns the current resident set in pages.
func (p *Process) ResidentPages() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.residency
}

// ---- Fault handling --------------------------------------------------

// maxFaultRetries bounds the access-retry loop; a handler that cannot make
// progress in this many rounds is broken.
const maxFaultRetries = 8

// Touch performs one user memory access at addr on behalf of thread t,
// demand-paging and delivering SIGSEGV exactly as the kernel fault path
// would. This is also the entry point for *replicated* accesses: when the
// HRT forwards a fault, the partner thread replays the access here and
// "the ROS will then handle it as it would normally" (section 3.2).
func (p *Process) Touch(t *Thread, addr uint64, write bool) linuxabi.Errno {
	core := p.kern.machine.Core(t.Core)
	for try := 0; try < maxFaultRetries; try++ {
		_, fault := core.MMU.Translate(addr, paging.Access{Write: write, User: true}, t.Clock, p.kern.cost)
		if fault == nil {
			return linuxabi.OK
		}
		if errno := p.handleFault(t, fault); errno != linuxabi.OK {
			return errno
		}
	}
	return linuxabi.EFAULT
}

// handleFault is the kernel page-fault handler: demand-map, fix
// protections changed under the VMA, or deliver SIGSEGV with the
// dispositions of thread t.
func (p *Process) handleFault(t *Thread, fault *paging.Fault) linuxabi.Errno {
	start := t.Clock.Now()
	if p.kern.world == Virtual {
		t.Clock.Advance(p.kern.cost.VirtFaultExtra)
	}
	p.mu.Lock()
	if p.faultTraceCap > 0 && len(p.faultTrace) < p.faultTraceCap {
		p.faultTrace = append(p.faultTrace, FaultRecord{Addr: paging.PageBase(fault.Addr), Write: fault.Write})
	}
	v := p.findVMA(fault.Addr)
	if v == nil || !v.allows(fault.Write) {
		// Genuine access violation: deliver SIGSEGV if a handler is
		// registered; otherwise the access fails. Under deterministic
		// arenas dispositions live with the thread that registered them.
		a := p.arenaFor(t.TID)
		sa, ok := a.sigactions[linuxabi.SIGSEGV]
		fn := a.handlers[sa.handlerAddr]
		p.mu.Unlock()
		if !ok || fn == nil {
			p.chargeSys(t.Clock.Now() - start)
			return linuxabi.EFAULT
		}
		p.deliverSignal(t.Clock, fn, &SignalContext{
			Sig:       linuxabi.SIGSEGV,
			FaultAddr: fault.Addr,
			Write:     fault.Write,
			Sys:       func(call linuxabi.Call) linuxabi.Result { return p.Syscall(t, call) },
		})
		p.chargeSys(t.Clock.Now() - start)
		return linuxabi.OK // handler ran; caller retries the access
	}

	base := paging.PageBase(fault.Addr)
	if _, mapped := v.pages[base]; !mapped {
		errno := p.mapPage(v, base, t.Clock)
		p.mu.Unlock()
		p.chargeSys(t.Clock.Now() - start)
		return errno
	}
	// Page is mapped and the VMA permits the access, but the PTE
	// disagrees (a stale protection after mprotect widened the VMA).
	// Refresh the PTE.
	if err := p.space.Protect(base, protFlags(v.prot)); err != nil {
		p.mu.Unlock()
		p.chargeSys(t.Clock.Now() - start)
		return linuxabi.EFAULT
	}
	t.Clock.Advance(p.kern.cost.PTEWrite)
	p.kern.machine.Core(t.Core).MMU.TLB().FlushVA(base)
	p.mu.Unlock()
	p.chargeSys(t.Clock.Now() - start)
	return linuxabi.OK
}

// deliverSignal runs a user signal handler on the context owning clk,
// charging delivery and the implicit rt_sigreturn on the way out (both of
// which show up in the Figure 11/12 syscall profiles).
func (p *Process) deliverSignal(clk *cycles.Clock, fn SignalHandlerFunc, ctx *SignalContext) {
	clk.Advance(p.kern.cost.ROSSignalDeliver)
	ctx.Clock = clk
	fn(ctx)
	p.mu.Lock()
	p.stats.Syscalls[linuxabi.SysRtSigreturn]++
	p.stats.SignalsSent++
	p.mu.Unlock()
	clk.Advance(p.kern.cost.ROSSignalReturn)
}

// SendSignal delivers sig to ROS thread tid on the context owning clk
// (e.g. the itimer expiry path), under tid's dispositions: its own arena's
// under deterministic arenas, the shared process state otherwise.
// Unhandled signals are ignored except SIGKILL/SIGSEGV, which fail the
// caller.
func (p *Process) SendSignal(tid int, clk *cycles.Clock, sig linuxabi.Signal) linuxabi.Errno {
	p.mu.Lock()
	a := p.arenaFor(tid)
	sa, ok := a.sigactions[sig]
	fn := a.handlers[sa.handlerAddr]
	p.mu.Unlock()
	if !ok || fn == nil {
		if sig == linuxabi.SIGKILL || sig == linuxabi.SIGSEGV {
			return linuxabi.EFAULT
		}
		return linuxabi.OK
	}
	p.deliverSignal(clk, fn, &SignalContext{Sig: sig})
	return linuxabi.OK
}

// CheckTimer fires the interval timer of ROS thread tid if the context's
// virtual time (clk) passed the deadline, delivering the timer signal (the
// cooperative-threading tick Racket's runtime relies on). Returns true if
// it fired. Under deterministic arenas each thread owns a private itimer
// and private dispositions, so the check names whose timer it polls; with
// arenas off every thread polls the shared process timer.
func (p *Process) CheckTimer(tid int, clk *cycles.Clock) bool {
	p.mu.Lock()
	a := p.arenaFor(tid)
	if a.timerDeadline == 0 || clk.Now() < a.timerDeadline {
		p.mu.Unlock()
		return false
	}
	sig := a.timerSig
	if a.timerInterval > 0 {
		a.timerDeadline = clk.Now() + a.timerInterval
	} else {
		a.timerDeadline = 0
	}
	sa, ok := a.sigactions[sig]
	fn := a.handlers[sa.handlerAddr]
	p.mu.Unlock()
	p.countInvoluntaryCS()
	if ok && fn != nil {
		p.deliverSignal(clk, fn, &SignalContext{Sig: sig})
	}
	return true
}
