package aerokernel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/hvm"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/paging"
	"multiverse/internal/telemetry"
)

// Superposition is the ROS state mirrored onto an HRT core when a
// top-level thread is created: the ROS GDT and the architectural
// thread-local-storage state (primarily %fs) of the originating ROS
// thread (section 4.2).
type Superposition struct {
	GDT    machine.GDT
	FSBase uint64
}

// Thread is one AeroKernel thread. Top-level threads are created on
// behalf of the ROS and carry an event channel to their partner; nested
// threads are created by HRT threads and share the top-level ancestor's
// channel ("with the top-level HRT thread's corresponding partner acting
// as the communication end-point").
type Thread struct {
	ID     int
	Core   machine.CoreID
	Clock  *cycles.Clock
	Stack  *machine.Stack
	FSBase uint64
	Nested bool
	Parent *Thread

	// kernv is the owning kernel. It is atomic because grid migration
	// re-homes a live thread onto the target node's kernel (Rehome) while
	// joiners on other goroutines read it for the join cost.
	kernv atomic.Pointer[Kernel]

	mu         sync.Mutex
	ch         *hvm.EventChannel
	router     *hvm.SyscallRouter
	fallback   *Fallback
	schedEntry *QueueEntry // run-queue slot, when scheduler-placed
	done       chan struct{}
	exitCode   uint64
	// panicStatus is the error of a real panic Run recovered (nil if
	// the body returned).
	panicStatus error

	// faultStatus is the page-fault handler's verdict on the access
	// Touch is retrying. The handler runs synchronously inside Touch, so
	// only the owning goroutine touches it.
	faultStatus error

	// lastFault is the duplicate-page-fault record: the most recent
	// lower-half fault address this thread raised, where a repeat means
	// the ROS changed a top-level mapping after the merger and the PML4
	// must be re-merged (section 4.4). Nautilus keeps it per core because
	// a core runs one thread at a time; per thread it is the same record
	// when threads share a core, and one thread's faults cannot decide
	// another's re-merge. hasLastFault says whether lastFault holds a
	// record, so a first fault at address 0 is not taken for a repeat.
	// Only the owning goroutine touches them.
	lastFault    uint64
	hasLastFault bool

	// sysCount numbers this thread's system calls for deterministic
	// fault-injection keys; only the owning goroutine touches it.
	sysCount uint64

	// reqCount numbers this thread's tracked requests (syscalls and
	// forwarded faults) for causal request ids. It is deliberately
	// separate from sysCount: sysCount keys the HRTPanic injection hash,
	// whose sequence must not shift when fault forwards also start
	// allocating ids. Only the owning goroutine touches it.
	reqCount uint64

	// fwdFaults and remerges count the page faults this thread's
	// accesses forwarded to the ROS and the re-merges they ran. The fault
	// handler runs synchronously inside Touch, so only the owning
	// goroutine touches them.
	fwdFaults uint64
	remerges  uint64
}

// ForwardedFaults returns how many page faults this thread's accesses
// have forwarded to the ROS: the per-thread attribution a caller of Touch
// reads, unperturbed by faults other threads forward meanwhile.
func (t *Thread) ForwardedFaults() uint64 { return t.fwdFaults }

// Remerges returns how many re-merges this thread's faults ran (its share
// of Kernel.RemergeCount).
func (t *Thread) Remerges() uint64 { return t.remerges }

// nextReqID allocates the causal request id for one boundary request:
// the thread id in the high word, a per-thread ordinal in the low. The
// id depends only on program order, so it is identical across runs and
// across observability configurations.
func (t *Thread) nextReqID() uint64 {
	t.reqCount++
	return uint64(t.ID)<<32 | t.reqCount
}

// Fallback is the degraded ROS-only service an execution group installs
// when its recovery budget is spent: system calls and forwarded faults
// are answered by a direct call into the ROS kernel instead of a channel
// that keeps failing. Fault returns whether the access was resolved.
type Fallback struct {
	Syscall func(t *Thread, call linuxabi.Call) linuxabi.Result
	Fault   func(t *Thread, addr uint64, write bool) bool
}

// AttachQueueEntry binds the scheduler run-queue slot this thread was
// placed into. Must happen before Start.
func (t *Thread) AttachQueueEntry(e *QueueEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.schedEntry = e
}

func (t *Thread) queueEntry() *QueueEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.schedEntry
}

// SetRouter binds the thread's system calls to the execution group's
// adaptive boundary router: it decides per call whether to answer
// locally, from cache, or to forward (and over which channel).
func (t *Thread) SetRouter(r *hvm.SyscallRouter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.router = r
}

// SetFallback installs the degraded ROS-only service on a top-level
// thread; nested threads inherit it through the parent chain.
func (t *Thread) SetFallback(f *Fallback) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fallback = f
}

// fallbackSvc returns the degraded service, walking up to the top-level
// ancestor for nested threads, like channel().
func (t *Thread) fallbackSvc() *Fallback {
	cur := t
	for cur != nil {
		cur.mu.Lock()
		f := cur.fallback
		cur.mu.Unlock()
		if f != nil {
			return f
		}
		cur = cur.Parent
	}
	return nil
}

// syscallRouter returns the group's router, walking up to the top-level
// ancestor for nested threads, like channel().
func (t *Thread) syscallRouter() *hvm.SyscallRouter {
	cur := t
	for cur != nil {
		cur.mu.Lock()
		r := cur.router
		cur.mu.Unlock()
		if r != nil {
			return r
		}
		cur = cur.Parent
	}
	return nil
}

// newThread makes a thread on core running on stack; a nil stack gets a
// fresh 64 KiB one.
func (k *Kernel) newThread(core machine.CoreID, parent *Thread, stack *machine.Stack) *Thread {
	if stack == nil {
		stack = machine.NewStack(64 * 1024)
	}
	// Off the kernel mutex: at density scale every spawn creates a
	// thread, and ID allocation plus registry insert need none of the
	// state k.mu guards.
	t := &Thread{
		ID:     int(k.nextTid.Add(1)),
		Core:   core,
		Clock:  cycles.NewClock(0),
		Stack:  stack,
		Nested: parent != nil,
		Parent: parent,
		done:   make(chan struct{}),
	}
	t.kernv.Store(k)
	k.threads.Store(t.ID, t)
	return t
}

// kern returns the thread's current kernel binding.
func (t *Thread) kern() *Kernel { return t.kernv.Load() }

// Rehome moves a live top-level thread onto dst: the thread-table entry
// moves between kernels with its ID unchanged (request ids, fault-roll
// sites, and trace flow ids must match an unmigrated run). Its faults
// then vector on dst's machine, since Touch reads the machine through
// the thread's kernel. Grid nodes have identical topologies, so t.Core
// names the same partition slot on both machines. Must be called from
// the thread's own goroutine at a syscall boundary (the quiesce-point
// invariant): no fault or syscall of this thread can be in flight on
// either kernel.
func (t *Thread) Rehome(dst *Kernel) {
	src := t.kern()
	if dst == nil || src == dst {
		return
	}
	src.threads.Delete(t.ID)
	t.kernv.Store(dst)
	dst.threads.Store(t.ID, t)
}

func (k *Kernel) retire(t *Thread) { k.threads.Delete(t.ID) }

// CreateThread makes a top-level HRT thread on core, applying the state
// superposition and attaching the execution group's event channel. stack,
// if non-nil, is the ROS-side stack the partner thread allocated for this
// HRT thread (section 4.2). The creator's clock pays the (fast) AeroKernel
// creation cost; the new thread's clock starts at the creation time.
func (k *Kernel) CreateThread(creator *cycles.Clock, core machine.CoreID, super Superposition, ch *hvm.EventChannel, stack *machine.Stack) *Thread {
	t := k.newThread(core, nil, stack)
	t.ch = ch
	t.FSBase = super.FSBase

	// Apply the superposition to the core: mirrored GDT and %fs.
	c := k.m.Core(core)
	c.SetGDT(super.GDT)
	c.SetFSBase(super.FSBase)

	creator.Advance(k.cost.AKThreadCreate)
	t.Clock.SyncTo(creator.Now())
	return t
}

// CreateNested makes a nested HRT thread: a pure AeroKernel thread whose
// execution can nonetheless proceed in the ROS user address space. It
// inherits the parent's event-channel endpoint.
func (t *Thread) CreateNested() *Thread {
	core := t.Core
	if s := t.kern().Scheduler(); s != nil {
		core = s.PlaceNested(t.Clock)
	}
	nt := t.kern().newThread(core, t, nil)
	nt.FSBase = t.FSBase
	t.Clock.Advance(t.kern().cost.AKThreadCreate)
	nt.Clock.SyncTo(t.Clock.Now())
	return nt
}

// Release retires a thread that was created but never Run — legion's
// persistent scheduler-mode workers borrow nested threads purely as
// placement and accounting contexts — dropping any scheduler load its
// placement charged.
func (t *Thread) Release() {
	if s := t.kern().Scheduler(); s != nil && t.Nested {
		s.ReleaseNested(t.Core)
	}
	t.kern().retire(t)
}

// channel returns the event-channel endpoint for this thread, walking up
// to the top-level ancestor for nested threads.
func (t *Thread) channel() *hvm.EventChannel {
	cur := t
	for cur != nil {
		cur.mu.Lock()
		ch := cur.ch
		cur.mu.Unlock()
		if ch != nil {
			return ch
		}
		cur = cur.Parent
	}
	return nil
}

// Run executes fn as this thread on the caller's goroutine and marks
// completion on return. A scheduler-placed thread first waits for its
// run-queue turn: same-core threads serialize in virtual time. Nothing is
// installed on the core: a fault carries its thread in the frame.
func (t *Thread) Run(fn func(*Thread) uint64) {
	k := t.kern()
	if s := k.Scheduler(); s != nil {
		s.waitTurn(t)
	}

	// A panic in HRT code (real, not injected) must still retire the
	// thread and close done — otherwise every joiner blocks forever and
	// the whole simulation wedges silently. Its status is kept for
	// PanicStatus, which the group's WaitExit/Join report.
	code := ^uint64(0)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.mu.Lock()
				t.panicStatus = fmt.Errorf("aerokernel: thread %d panicked: %v", t.ID, r)
				t.mu.Unlock()
				k.metrics.Counter("ak.thread.panics").Inc()
				k.recorder.Record(t.Clock.Now(), telemetry.RecThreadPanic, uint64(t.ID), 0, 0, 0)
				k.recorder.AutoDump(fmt.Sprintf("unrecovered panic in HRT thread %d", t.ID))
			}
		}()
		code = fn(t)
	}()

	t.mu.Lock()
	t.exitCode = code
	t.mu.Unlock()
	// Re-read the kernel: a grid migration may have re-homed this thread
	// onto another node's kernel while fn ran, and the retire bookkeeping
	// must land on the kernel that currently owns the thread.
	k = t.kern()
	if s := k.Scheduler(); s != nil {
		s.threadRetired(t)
	}
	k.retire(t)
	close(t.done)
}

// Start runs fn on a new goroutine.
func (t *Thread) Start(fn func(*Thread) uint64) {
	go t.Run(fn)
}

// Join waits for t to finish, charging the AeroKernel join cost to the
// joiner and synchronizing its clock.
func (t *Thread) Join(joiner *cycles.Clock) uint64 {
	joiner.Advance(t.kern().cost.AKThreadJoin)
	<-t.done
	joiner.SyncTo(t.Clock.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exitCode
}

// Done exposes completion.
func (t *Thread) Done() <-chan struct{} { return t.done }

// ExitCode returns the recorded exit code after completion.
func (t *Thread) ExitCode() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exitCode
}

// PanicStatus returns the error of a real panic that ended the thread,
// or nil if its body returned. It is final once Done is closed.
func (t *Thread) PanicStatus() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.panicStatus
}

// Kernel returns the owning AeroKernel.
func (t *Thread) Kernel() *Kernel { return t.kern() }

// maxFaultRetries bounds the fault-retry loop (first fault forwards, a
// duplicate re-merges; anything needing more rounds is broken).
const maxFaultRetries = 8

// Touch performs one ring-0 memory access at addr from this HRT thread.
// Faults vector through the IDT (on the IST stack) into the Nautilus
// handler, which forwards or re-merges; the access then retries, as the
// hardware would re-execute the instruction. Delivery is thread-scoped:
// the frame carries this thread, its clock and its stack, so threads
// sharing a core fault concurrently and no host lock is held across a
// forwarded fault.
func (t *Thread) Touch(addr uint64, write bool) error {
	k := t.kern()
	core := k.m.Core(t.Core)
	ctx := machine.Context{Clock: t.Clock, Stack: t.Stack, Owner: t}
	for try := 0; try < maxFaultRetries; try++ {
		_, fault := core.MMU.Translate(addr, paging.Access{Write: write, User: false}, t.Clock, k.cost)
		if fault == nil {
			return nil
		}
		var errCode uint64
		if fault.Present {
			errCode |= 0x1
		}
		if fault.Write {
			errCode |= 0x2
		}
		frame := &machine.InterruptFrame{CR2: fault.Addr, ErrorCode: errCode}
		t.faultStatus = nil
		if err := core.Raise(machine.VecPageFault, ctx, frame, t.Clock.Now()); err != nil {
			return err
		}
		if t.faultStatus != nil {
			return t.faultStatus
		}
	}
	return fmt.Errorf("aerokernel: access at %#x did not resolve after %d faults", addr, maxFaultRetries)
}

// disallowed is the functionality the current AeroKernel prohibits ROS
// code in HRT context from using: "calls that create new execution
// contexts or rely on the Linux execution model such as execve, clone,
// and futex" (section 4.2).
var disallowed = map[linuxabi.Sysno]bool{
	linuxabi.SysExecve: true,
	linuxabi.SysClone:  true,
	linuxabi.SysFork:   true,
	linuxabi.SysFutex:  true,
}

// Syscall is the Nautilus system call stub: code running in the HRT
// issues SYSCALL (a ring0->ring0 trap), the stub pulls the stack pointer
// down past the red zone (no IST is possible on the SYSCALL path),
// forwards the call over the event channel, and returns via an emulated
// SYSRET — the real instruction unconditionally returns to ring 3, so
// Nautilus jumps directly to the saved RIP instead (section 4.4).
func (t *Thread) Syscall(call linuxabi.Call) linuxabi.Result {
	k := t.kern()
	if disallowed[call.Num] {
		return linuxabi.Result{Ret: ^uint64(0), Err: linuxabi.ENOSYS}
	}
	t.Clock.Advance(k.cost.AKSyscallStub)
	if _, err := t.Stack.PullDown(machine.RedZoneSize); err != nil {
		return linuxabi.Result{Ret: ^uint64(0), Err: linuxabi.EFAULT}
	}
	defer func() { _ = t.Stack.Release(machine.RedZoneSize) }()

	// Causal request id: allocated here, at the AeroKernel syscall entry,
	// and carried through every tier, hop, retry, and replay below.
	reqID := t.nextReqID()

	t.sysCount++
	if k.faults.Roll(faults.HRTPanic, uint64(t.ID), t.sysCount, 0, t.Clock.Now()) {
		t.containInjectedPanic(reqID)
	}

	var res linuxabi.Result
	if fb := t.fallbackSvc(); fb != nil && fb.Syscall != nil {
		// Degraded ROS-only mode: the group's recovery budget is spent, so
		// the call is served by a direct ROS entry instead of a channel.
		res = fb.Syscall(t, call)
	} else if router := t.syscallRouter(); router != nil {
		// Routed path: only calls that actually cross the boundary count
		// as forwards; tier-0/tier-1 hits never leave the HRT.
		r, crossed, err := router.Dispatch(t.Clock, t.channel(), call, reqID)
		if err != nil {
			return linuxabi.Result{Ret: ^uint64(0), Err: linuxabi.EINTR}
		}
		if crossed {
			k.fwdSysCtr.Inc()
		}
		res = r
	} else {
		k.fwdSysCtr.Inc()
		ch := t.channel()
		if ch == nil {
			return linuxabi.Result{Ret: ^uint64(0), Err: linuxabi.ENOSYS}
		}
		env := ch.NewEnvelope()
		env.Kind = hvm.EvSyscall
		env.Call = call
		env.ReqID = reqID
		reply, err := ch.Forward(t.Clock, env)
		if err != nil {
			return linuxabi.Result{Ret: ^uint64(0), Err: linuxabi.EINTR}
		}
		res = reply.Res
	}
	// A memory-management call may have tightened mappings the ROS
	// kernel's own TLB shootdown cannot reach: Linux does not know the
	// HRT core exists. Nautilus invalidates locally so protection changes
	// (the GC's mprotect write barriers, munmap) take effect in the HRT
	// too, whichever source served the call.
	switch call.Num {
	case linuxabi.SysMprotect, linuxabi.SysMunmap, linuxabi.SysMmap, linuxabi.SysBrk:
		k.m.Core(t.Core).MMU.TLB().FlushAll()
		t.Clock.Advance(k.cost.TLBFlushLocal)
	}
	t.Clock.Advance(k.cost.AKSysretEmul)
	return res
}

// containInjectedPanic exercises panic containment on the syscall path:
// the injected panic unwinds onto the IST stack, the kernel's handler
// recovers, and the syscall restarts from the stub. Output-preserving by
// construction — only latency is added.
func (t *Thread) containInjectedPanic(reqID uint64) {
	k := t.kern()
	defer func() {
		_ = recover()
		t.Clock.Advance(k.cost.AKIstSwitch + k.cost.PageFaultHW)
		k.metrics.Counter("ak.panic.contained").Inc()
		k.recorder.Record(t.Clock.Now(), telemetry.RecPanic, uint64(t.ID), reqID, t.sysCount, 0)
		// A contained panic is a post-mortem trigger: dump the flight
		// recorder once so the lead-up is preserved even if the run
		// subsequently completes.
		k.recorder.AutoDump(fmt.Sprintf("contained HRT panic on thread %d", t.ID))
	}()
	panic("injected: hrt-panic mid-syscall")
}

// Event is the Nautilus event primitive: a kernel-mode wakeup designed to
// outperform the Linux futex/condvar path by orders of magnitude
// (section 2).
type Event struct {
	mu      sync.Mutex
	kern    *Kernel
	waiters []chan cycles.Cycles
}

// NewEvent creates an event on the kernel.
func (k *Kernel) NewEvent() *Event { return &Event{kern: k} }

// Wait blocks t until the event is signaled.
func (e *Event) Wait(t *Thread) {
	t.Clock.Advance(e.kern.cost.AKEventWait)
	ch := make(chan cycles.Cycles, 1)
	e.mu.Lock()
	e.waiters = append(e.waiters, ch)
	e.mu.Unlock()
	t.Clock.SyncTo(<-ch)
}

// Signal wakes all current waiters.
func (e *Event) Signal(t *Thread) {
	at := t.Clock.Advance(e.kern.cost.AKEventSignal)
	e.mu.Lock()
	ws := e.waiters
	e.waiters = nil
	e.mu.Unlock()
	for _, ch := range ws {
		ch <- at
	}
}
