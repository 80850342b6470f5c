package cycles

// CostModel holds every latency constant the simulation charges, in cycles
// at ClockHz. The default values are calibrated against the paper's
// measurements; the benchmark harness and tests may build variant models to
// explore sensitivity.
type CostModel struct {
	// Virtualization (Palacios/HVM) costs.
	VMExit            Cycles // guest -> VMM world switch
	VMEntry           Cycles // VMM -> guest world switch
	HypercallDispatch Cycles // VMM-side decode + handler dispatch
	InterruptInject   Cycles // VMM builds an interrupt/exception frame and re-enters the guest
	SignalInjectROS   Cycles // HVM "interrupt to user": frame build on the registered stack + guest re-entry
	EventChannelPost  Cycles // write request/response to the shared data page + store fence
	VMMRecord         Cycles // VMM-side bookkeeping of a pending signal/event raise
	InjectWindowROS   Cycles // mean wait until the guest offers a safe user-mode injection point
	HRTBoot           Cycles // full AeroKernel (re)boot — "milliseconds, on par with fork()+exec()"

	// Synchronous (memory-polling) channel costs, per one-way transfer of
	// the protocol cacheline between two cores.
	CachelineSameSocket  Cycles
	CachelineCrossSocket Cycles
	SyncProtocolOverhead Cycles // fixed request encode + poll-detect + decode cost per round trip

	// Boundary-router costs: the adaptive fast path that services system
	// calls in the HRT instead of forwarding them (zero crossings).
	HRTLocalSyscall   Cycles // tier-0: pure call answered from mirrored HRT-local state, vDSO-style
	SyscallCacheProbe Cycles // tier-1: result-cache tag check on a cacheable call (hit or miss)
	SyscallCacheHit   Cycles // tier-1: copying a cached result back to the caller on a hit

	// Paging and memory system.
	TLBHit          Cycles // address translation hitting the TLB
	TLBMissPerLevel Cycles // one page-table level fetch during a walk
	TLBShootdownIPI Cycles // IPI delivery to one remote core
	TLBFlushLocal   Cycles // local TLB invalidation
	PageFaultHW     Cycles // hardware fault raise: save state + vector through IDT
	PTEWrite        Cycles // writing one page-table entry
	PML4EntryCopy   Cycles // copying one top-level entry during an address-space merger
	PageZero        Cycles // zeroing a fresh 4 KiB frame
	MemCopyPerPage  Cycles // copying 4 KiB between buffers

	// Legacy OS (ROS / Linux model) costs.
	SyscallEntry     Cycles // SYSCALL instruction + kernel entry bookkeeping
	SyscallExit      Cycles // SYSRET path back to user
	VDSOCall         Cycles // user-mode fast path (no kernel entry)
	ContextSwitch    Cycles // ROS scheduler switch between threads
	ROSThreadCreate  Cycles // clone() + runqueue insertion
	ROSThreadJoin    Cycles // futex-based join
	WarmPoolReuse    Cycles // claiming a parked warm context: runqueue relink + stack rebase, no clone()
	ROSSignalDeliver Cycles // kernel builds a user signal frame
	ROSSignalReturn  Cycles // rt_sigreturn path

	// AeroKernel (Nautilus model) costs. Designed to be orders of magnitude
	// cheaper than the ROS equivalents (paper section 2).
	AKThreadCreate Cycles // kernel-mode thread creation, no protection crossing
	AKThreadJoin   Cycles
	AKEventSignal  Cycles // event wakeup between AK threads
	AKEventWait    Cycles
	AKSyscallStub  Cycles // Nautilus syscall stub entry: stack pull-down (red zone) + dispatch
	AKSysretEmul   Cycles // emulated SYSRET: restore + direct jmp to saved rip
	AKIstSwitch    Cycles // hardware IST stack switch on interrupt entry

	// Grid checkpoint/restore costs (live migration of one execution
	// group between machines). A checkpoint is a delta, not a full
	// address-space copy: the PR-3 per-PML4-slot generation stamps bound
	// the serialized state to the slots the group actually touched.
	CheckpointBase      Cycles // quiesce bookkeeping + HRT/router/window context serialization
	CheckpointPerSlot   Cycles // serializing one touched PML4 slot descriptor (PML4EntryCopy-class)
	GridTransferBase    Cycles // per-migration fixed cost of moving the image between nodes
	GridTransferPerPage Cycles // per-4KiB transfer cost of the checkpoint image (MemCopyPerPage-class)
	RestoreBase         Cycles // target-side rebuild: thread tables, channel window, router rebind

	// AeroKernel scheduler costs (per-core run queues, Chase–Lev-style
	// work stealing, spin-then-halt idle policy).
	SchedEnqueue Cycles // pushing one task/thread onto a per-core queue or deque
	SchedSteal   Cycles // one steal from the top of a victim's deque (CAS + fence)
	IPIKick      Cycles // kicking a remote core out of its idle loop (IPI-class)
	IdleHaltWake Cycles // waking a core that had fallen past spinning into hlt

	// Virtualization overheads the ROS pays when it runs as a guest (the
	// paper's "Virtual" configuration): amortized extra exit cost per
	// system call and extra nested-paging cost per page fault.
	VirtSyscallExtra Cycles
	VirtFaultExtra   Cycles

	// TLB residency penalty added to vdso-style user fast calls, per core
	// class. The ROS core runs a full Linux stack and suffers pollution;
	// the HRT core's TLB is sparsely populated (paper section 5,
	// microbenchmarks), so vdso calls run slightly faster there.
	VDSOPollutionROS Cycles
	VDSOPollutionHRT Cycles
}

// DefaultCostModel returns the calibrated model. Composed protocol costs:
//
//	hypercall round trip  = VMExit + HypercallDispatch + VMEntry                       = 4000
//	async call round trip = post + hypercall + inject(ROS) + partner work + hypercall
//	                        + inject(HRT) + resume                                     ≈ 25000
//	sync call round trip  = 2×cacheline + SyncProtocolOverhead                          = 790 / 1060
//	address-space merger  = hypercall + exception inject + 256×PML4EntryCopy
//	                        + shootdown + completion hypercall                          ≈ 33000
func DefaultCostModel() *CostModel {
	return &CostModel{
		VMExit:            1600,
		VMEntry:           1200,
		HypercallDispatch: 1200,
		InterruptInject:   3200,
		SignalInjectROS:   3200,
		EventChannelPost:  400,
		VMMRecord:         800,
		InjectWindowROS:   5500,
		HRTBoot:           2_200_000, // 1 ms at 2.2 GHz

		CachelineSameSocket:  200,
		CachelineCrossSocket: 335,
		SyncProtocolOverhead: 390,

		HRTLocalSyscall:   70, // comparable to a vdso call on the sparse HRT TLB
		SyscallCacheProbe: 40,
		SyscallCacheHit:   110,

		TLBHit:          4,
		TLBMissPerLevel: 60,
		TLBShootdownIPI: 1500,
		TLBFlushLocal:   400,
		PageFaultHW:     800,
		PTEWrite:        25,
		PML4EntryCopy:   80,
		PageZero:        600,
		MemCopyPerPage:  700,

		SyscallEntry:     150,
		SyscallExit:      120,
		VDSOCall:         60,
		ContextSwitch:    2600,
		ROSThreadCreate:  35000,
		ROSThreadJoin:    9000,
		WarmPoolReuse:    2600, // ContextSwitch-class: no clone(), just relink + rebase
		ROSSignalDeliver: 3000,
		ROSSignalReturn:  2200,

		AKThreadCreate: 450,
		AKThreadJoin:   180,
		AKEventSignal:  90,
		AKEventWait:    120,
		AKSyscallStub:  160,
		AKSysretEmul:   90,
		AKIstSwitch:    70,

		CheckpointBase:      12_000,
		CheckpointPerSlot:   80, // PML4EntryCopy-class
		GridTransferBase:    20_000,
		GridTransferPerPage: 700, // MemCopyPerPage-class
		RestoreBase:         9_000,

		SchedEnqueue: 45,
		SchedSteal:   350,
		IPIKick:      1500, // TLBShootdownIPI-class delivery
		IdleHaltWake: 2400,

		VirtSyscallExtra: 250,
		VirtFaultExtra:   1200,

		VDSOPollutionROS: 35,
		VDSOPollutionHRT: 10,
	}
}

// HypercallRoundTrip is the guest->VMM->guest cost for one hypercall.
func (m *CostModel) HypercallRoundTrip() Cycles {
	return m.VMExit + m.HypercallDispatch + m.VMEntry
}

// SyncRoundTrip is the memory-polling channel round trip between two cores;
// sameSocket selects the cacheline transfer cost.
func (m *CostModel) SyncRoundTrip(sameSocket bool) Cycles {
	line := m.CachelineCrossSocket
	if sameSocket {
		line = m.CachelineSameSocket
	}
	return 2*line + m.SyncProtocolOverhead
}
