// Package hvm models the Hybrid Virtual Machine: the Palacios VMM
// extension that partitions one virtual machine's cores, memory, and
// interrupt logic between a Regular OS (ROS) and a Hybrid Runtime (HRT).
//
// The HVM provides exactly the three facilities the paper says Multiverse
// needs from it (section 3.3): a resource partitioning, the ability to boot
// multiple kernels on distinct partitions, and shared memory plus
// communication between them — hypercalls, a shared data page, interrupt
// injection, and the asynchronous/synchronous channel protocols of
// section 4.3.
package hvm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/image"
	"multiverse/internal/machine"
	"multiverse/internal/mem"
	"multiverse/internal/telemetry"
)

// HRTOp is the operation code of a ROS->HRT request delivered by the VMM
// through exception injection.
type HRTOp uint32

const (
	// OpMerge asks the HRT to merge the ROS process's lower-half address
	// space (the shared page carries the ROS CR3).
	OpMerge HRTOp = iota + 1
	// OpCall asks the HRT to run a function (the shared page carries a
	// pointer to the function and its arguments).
	OpCall
	// OpSignal delivers a ROS-application signal to the HRT; these take
	// highest precedence within the HRT (section 2).
	OpSignal
)

// Shared-page layout offsets (section 4.3: "they share a data page in
// memory. For a function call request, the page contains a pointer to the
// function and its arguments at the start and the return code at
// completion. For an address space merger, the page contains the CR3 of
// the calling process.")
const (
	sharedOffOp     = 0x00
	sharedOffCR3    = 0x08
	sharedOffFn     = 0x10
	sharedOffArg0   = 0x18
	sharedOffRet    = 0x100
	sharedMaxArgs   = 6
	sharedOffStatus = 0x140
)

// HRTRequest is one injected ROS->HRT request as seen by the AeroKernel's
// event loop.
type HRTRequest struct {
	Op      HRTOp
	CR3     uint64   // OpMerge
	Fn      uint64   // OpCall: function pointer
	Args    []uint64 // OpCall
	Signal  int      // OpSignal
	Arrival cycles.Cycles

	hvm  *HVM
	done chan cycles.Cycles
}

// Complete is the HRT's completion hypercall for this request ("The HRT
// indicates to the VMM when it is finished with the current request via a
// hypercall"). clk is the HRT-side clock; ret is stored in the shared
// page's return slot.
func (r *HRTRequest) Complete(clk *cycles.Clock, ret uint64) {
	h := r.hvm
	_ = h.machine.Phys.WriteU64(h.sharedPage.Addr()+sharedOffRet, ret)
	at := clk.Advance(h.cost.HypercallRoundTrip())
	r.done <- at
}

// HRTSink receives injected requests; the AeroKernel registers one at
// boot. Inject must hand the request to the HRT event loop and return.
type HRTSink interface {
	Inject(req *HRTRequest)
}

// BootInfo is what the VMM passes to the AeroKernel entry point, modelled
// on the paper's multiboot2-extension protocol.
type BootInfo struct {
	Image    *image.Image
	Tags     []image.MultibootTag
	Core     machine.CoreID // boot core within the HRT partition
	HRTCores []machine.CoreID
	// SharedPage is the VMM<->HRT data page frame.
	SharedPage mem.Frame
	// Tracer/Metrics propagate the system's telemetry layer across the
	// boot protocol so HRT-side instrumentation lands in the same trace
	// as the ROS side. Tracer may be nil (tracing off); Metrics is
	// always usable.
	Tracer  *telemetry.Tracer
	Metrics *telemetry.Registry
	// Recorder is the always-on flight recorder (nil-safe when absent).
	Recorder *telemetry.Recorder
	// Faults is the armed fault-injection plane (nil = disabled); the
	// AeroKernel uses it for HRT-panic injection.
	Faults *faults.Injector
}

// BootHandler is the AeroKernel's entry point: it brings the kernel up and
// returns the sink for injected requests. Registered before BootHRT runs.
type BootHandler func(info BootInfo) (HRTSink, error)

// ROSSignalHandler is the handler a ROS application registers for
// asynchronous HRT->ROS signals (the HVM "interrupt to user" construct).
type ROSSignalHandler func(sig int)

// HVM is the VMM-side state for one hybrid virtual machine.
type HVM struct {
	machine  *machine.Machine
	cost     *cycles.CostModel
	rosCores []machine.CoreID
	hrtCores []machine.CoreID

	mu          sync.Mutex
	installed   *image.Image
	imagePages  int
	sharedPage  mem.Frame
	sink        HRTSink
	bootHandler BootHandler
	booted      bool
	bootCount   int

	rosSignal      ROSSignalHandler
	rosSignalStack *machine.Stack
	rosSignalClock *cycles.Clock

	// Exit counts per kind, for the "thinner virtualization layer"
	// analysis. Every VM exit from every group lands here, so at density
	// scale the lookup is lock-free: a sync.Map caching each kind's
	// "exits.<kind>" metric handle, resolved once, at the first exit of
	// that kind.
	exits sync.Map // string kind -> *telemetry.Counter

	// Telemetry: tracer may be nil (tracing off); metrics is always
	// non-nil. Channel ids make flow links deterministic.
	tracer     *telemetry.Tracer
	metrics    *telemetry.Registry
	recorder   *telemetry.Recorder
	channelSeq uint64

	// faults is the armed fault-injection plane. nil is the no-op
	// injector: every protocol makes one clean attempt per request.
	faults *faults.Injector
}

// Config partitions the machine.
type Config struct {
	ROSCores []machine.CoreID
	HRTCores []machine.CoreID
	// Tracer records spans for this HVM's protocols (nil = off).
	Tracer *telemetry.Tracer
	// Metrics receives the HVM's counters and histograms; nil allocates
	// a private registry.
	Metrics *telemetry.Registry
	// Recorder receives flight-recorder events from the HVM's channels
	// and protocols (nil = off; every Record call is nil-safe).
	Recorder *telemetry.Recorder
	// Faults arms deterministic fault injection on the HVM's channels
	// (nil = off).
	Faults *faults.Injector
}

// New creates an HVM over the machine with the given core partitioning.
// Core sets must be disjoint and non-empty.
func New(m *machine.Machine, cfg Config) (*HVM, error) {
	if len(cfg.ROSCores) == 0 || len(cfg.HRTCores) == 0 {
		return nil, fmt.Errorf("hvm: both partitions need at least one core")
	}
	seen := make(map[machine.CoreID]bool)
	for _, c := range append(append([]machine.CoreID(nil), cfg.ROSCores...), cfg.HRTCores...) {
		if int(c) < 0 || int(c) >= m.NumCores() {
			return nil, fmt.Errorf("hvm: core %d out of range", c)
		}
		if seen[c] {
			return nil, fmt.Errorf("hvm: core %d assigned to both partitions", c)
		}
		seen[c] = true
	}
	h := &HVM{
		machine:  m,
		cost:     m.Cost,
		rosCores: append([]machine.CoreID(nil), cfg.ROSCores...),
		hrtCores: append([]machine.CoreID(nil), cfg.HRTCores...),
		tracer:   cfg.Tracer,
		metrics:  cfg.Metrics,
		recorder: cfg.Recorder,
		faults:   cfg.Faults,
	}
	if h.metrics == nil {
		h.metrics = telemetry.NewRegistry()
	}
	// The VMM<->HRT shared data page lives in HRT-local memory.
	f, err := m.Phys.Alloc(m.ZoneOfCore(h.hrtCores[0]), "hvm:shared-page")
	if err != nil {
		return nil, fmt.Errorf("hvm: allocating shared data page: %w", err)
	}
	h.sharedPage = f
	return h, nil
}

// HRTCores returns the HRT partition.
func (h *HVM) HRTCores() []machine.CoreID {
	return append([]machine.CoreID(nil), h.hrtCores...)
}

// SharedPage returns the VMM<->HRT data page frame.
func (h *HVM) SharedPage() mem.Frame { return h.sharedPage }

// Metrics returns the HVM's metrics registry (never nil).
func (h *HVM) Metrics() *telemetry.Registry { return h.metrics }

// SeedChannelIDs advances the channel-id counter to at least base. A
// grid seeds each node into a disjoint range so channel ids — which key
// fault-injection sites and trace flow ids — stay unique across nodes.
// Must be called before the node creates channels; a no-op if the
// counter is already past base.
func (h *HVM) SeedChannelIDs(base uint64) {
	for {
		cur := atomic.LoadUint64(&h.channelSeq)
		if cur >= base || atomic.CompareAndSwapUint64(&h.channelSeq, cur, base) {
			return
		}
	}
}

// rosMainTrack is the trace track of the ROS-side thread driving the
// HVM protocol calls (merger, async call, channel setup): the ROS boot
// core's main context.
func (h *HVM) rosMainTrack() telemetry.Track {
	return telemetry.Track{Core: int(h.rosCores[0]), Name: "ros:main"}
}

// RegisterBootHandler installs the AeroKernel entry point. The Multiverse
// runtime does this once before requesting the first boot.
func (h *HVM) RegisterBootHandler(bh BootHandler) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.bootHandler = bh
}

// countExit records one VM exit as an "exits.<kind>" metrics counter so
// a run's exposition plane can prove transport-level claims — in
// particular that the tier-3 exitless steady state really takes zero
// exits (exits.ring stays 0). The path is lock-free after a kind's first
// exit: it used to take the HVM mutex per exit, which serialized every
// group in the system.
func (h *HVM) countExit(kind string) {
	v, ok := h.exits.Load(kind)
	if !ok {
		v, _ = h.exits.LoadOrStore(kind, h.metrics.Counter("exits."+kind))
	}
	v.(*telemetry.Counter).Inc()
}

// hypercall charges one guest->VMM->guest transition to the calling
// context and records the exit.
func (h *HVM) hypercall(clk *cycles.Clock, kind string) {
	clk.Advance(h.cost.HypercallRoundTrip())
	h.countExit("hypercall:" + kind)
}

// InstallImage is the hypercall through which the ROS application supplies
// the HRT image, "much like an exec()" (section 2). The VMM copies it into
// HRT physical memory.
func (h *HVM) InstallImage(clk *cycles.Clock, img *image.Image) error {
	if img == nil {
		return fmt.Errorf("hvm: nil HRT image")
	}
	h.hypercall(clk, "install")
	pages := (img.Size() + mem.PageSize - 1) / mem.PageSize
	if pages == 0 {
		pages = 1
	}
	clk.Advance(cycles.Cycles(pages) * h.cost.MemCopyPerPage)
	h.mu.Lock()
	h.installed = img
	h.imagePages = pages
	h.mu.Unlock()
	return nil
}

// InstalledImage returns the currently installed HRT image.
func (h *HVM) InstalledImage() *image.Image {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.installed
}

// BootHRT boots (or, if already booted, reboots) the HRT on its partition,
// invoking the registered boot handler with multiboot-style tags. The
// caller's clock pays the millisecond-scale boot cost the paper reports.
func (h *HVM) BootHRT(clk *cycles.Clock) error {
	h.mu.Lock()
	bh := h.bootHandler
	img := h.installed
	h.mu.Unlock()
	if bh == nil {
		return fmt.Errorf("hvm: no boot handler registered")
	}
	if img == nil {
		return fmt.Errorf("hvm: no HRT image installed")
	}
	h.hypercall(clk, "boot")
	clk.Advance(h.cost.HRTBoot)
	info := BootInfo{
		Image:      img,
		Core:       h.hrtCores[0],
		HRTCores:   h.HRTCores(),
		SharedPage: h.sharedPage,
		Tracer:     h.tracer,
		Metrics:    h.metrics,
		Recorder:   h.recorder,
		Faults:     h.faults,
		Tags: []image.MultibootTag{
			{Type: image.TagHRTFlags, Data: image.HRTFlagMergeCapable | image.HRTFlagIdentityHigh},
			{Type: image.TagCommChan, Data: h.sharedPage.Addr()},
			{Type: image.TagAPICCount, Data: uint64(len(h.hrtCores))},
		},
	}
	sink, err := bh(info)
	if err != nil {
		return fmt.Errorf("hvm: HRT boot failed: %w", err)
	}
	h.mu.Lock()
	h.sink = sink
	h.booted = true
	h.bootCount++
	h.mu.Unlock()
	return nil
}

// Booted reports whether the HRT is up.
func (h *HVM) Booted() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.booted
}

// BootCount returns the number of boots/reboots performed.
func (h *HVM) BootCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bootCount
}

// inject delivers a request to the HRT event loop, charging VMM record +
// injection costs to the requester and stamping the arrival time.
func (h *HVM) inject(clk *cycles.Clock, req *HRTRequest) (chan cycles.Cycles, error) {
	h.mu.Lock()
	sink := h.sink
	h.mu.Unlock()
	if sink == nil {
		return nil, fmt.Errorf("hvm: HRT not booted")
	}
	clk.Advance(h.cost.VMMRecord)
	req.Arrival = clk.Advance(h.cost.InterruptInject)
	req.hvm = h
	req.done = make(chan cycles.Cycles, 1)
	h.countExit("inject")
	sink.Inject(req)
	return req.done, nil
}

// MergeAddressSpace is the hypercall sequence for a state-superposition
// merger: the ROS-side library passes the calling process's CR3; the VMM
// stores it in the shared page and injects an OpMerge request; the HRT
// copies the lower-half PML4 entries and completes with a hypercall. The
// caller blocks until completion (the measured Figure 2 row).
func (h *HVM) MergeAddressSpace(clk *cycles.Clock, rosCR3 uint64) error {
	sp := h.tracer.Begin(h.rosMainTrack(), "hvm", "merge-request", clk.Now(),
		telemetry.Attr{Key: "cr3", Val: rosCR3})
	defer func() { sp.EndAt(clk.Now()) }()
	start := clk.Now()
	h.hypercall(clk, "merge")
	if err := h.machine.Phys.WriteU64(h.sharedPage.Addr()+sharedOffCR3, rosCR3); err != nil {
		return err
	}
	if err := h.machine.Phys.WriteU64(h.sharedPage.Addr()+sharedOffOp, uint64(OpMerge)); err != nil {
		return err
	}
	done, err := h.inject(clk, &HRTRequest{Op: OpMerge, CR3: rosCR3})
	if err != nil {
		return err
	}
	clk.SyncTo(<-done)
	h.metrics.Counter("hvm.merge_requests").Inc()
	h.metrics.LatencyHistogram("hvm.merge_request.latency").Observe(clk.Now() - start)
	return nil
}

// AsyncCall is the hypercall sequence for an asynchronous function
// invocation in the HRT (hrt_invoke_func's transport, and the Figure 2
// "Asynchronous Call" row). fn is the function pointer the HRT resolves;
// the call returns when the HRT signals completion, yielding the value the
// HRT stored in the shared page's return slot.
func (h *HVM) AsyncCall(clk *cycles.Clock, fn uint64, args ...uint64) (uint64, error) {
	if len(args) > sharedMaxArgs {
		return 0, fmt.Errorf("hvm: async call with %d args (max %d)", len(args), sharedMaxArgs)
	}
	sp := h.tracer.Begin(h.rosMainTrack(), "hvm", "async-call", clk.Now(),
		telemetry.Attr{Key: "fn", Val: fn})
	defer func() { sp.EndAt(clk.Now()) }()
	start := clk.Now()
	h.hypercall(clk, "asynccall")
	pa := h.sharedPage.Addr()
	if err := h.machine.Phys.WriteU64(pa+sharedOffFn, fn); err != nil {
		return 0, err
	}
	for i, a := range args {
		if err := h.machine.Phys.WriteU64(pa+sharedOffArg0+uint64(i)*8, a); err != nil {
			return 0, err
		}
	}
	if err := h.machine.Phys.WriteU64(pa+sharedOffOp, uint64(OpCall)); err != nil {
		return 0, err
	}
	done, err := h.inject(clk, &HRTRequest{Op: OpCall, Fn: fn, Args: append([]uint64(nil), args...)})
	if err != nil {
		return 0, err
	}
	clk.SyncTo(<-done)
	// Completion reaches the ROS caller the way all HRT->ROS signaling
	// does: the VMM records the completion and waits for a user-mode
	// window to inject the wakeup into the calling thread.
	clk.Advance(h.cost.VMMRecord + h.cost.InjectWindowROS + h.cost.SignalInjectROS + h.cost.VMEntry)
	ret, err := h.machine.Phys.ReadU64(pa + sharedOffRet)
	if err != nil {
		return 0, err
	}
	h.metrics.Counter("hvm.async_calls").Inc()
	h.metrics.LatencyHistogram("hvm.async_call.latency").Observe(clk.Now() - start)
	return ret, nil
}

// SignalHRT injects a ROS-application signal into the HRT via exception
// injection; it "takes highest precedence within the HRT" (section 2).
// It does not wait for completion.
func (h *HVM) SignalHRT(clk *cycles.Clock, sig int) error {
	h.hypercall(clk, "signal-hrt")
	_, err := h.inject(clk, &HRTRequest{Op: OpSignal, Signal: sig})
	return err
}

// RegisterROSSignal is the hypercall by which the ROS application
// registers a signal handler function and stack for asynchronous
// HRT->ROS signaling, "similar to how the canonical signal() library
// function is used" (section 2). clk identifies the registering thread;
// deliveries synchronize against it.
func (h *HVM) RegisterROSSignal(clk *cycles.Clock, handler ROSSignalHandler, stack *machine.Stack) {
	h.hypercall(clk, "signal-register")
	h.mu.Lock()
	h.rosSignal = handler
	h.rosSignalStack = stack
	h.rosSignalClock = clk
	h.mu.Unlock()
}

// RaiseROSSignal is the HRT->ROS signal path: the HVM records the raise,
// waits for a user-mode injection window, builds an interrupt-like frame
// on the registered stack, and runs the handler. The raising HRT context
// does not block beyond the hypercall.
func (h *HVM) RaiseROSSignal(hrtClk *cycles.Clock, sig int) error {
	h.mu.Lock()
	handler := h.rosSignal
	stack := h.rosSignalStack
	rosClk := h.rosSignalClock
	h.mu.Unlock()
	if handler == nil {
		return fmt.Errorf("hvm: no ROS signal handler registered")
	}
	h.hypercall(hrtClk, "signal-ros")
	hrtClk.Advance(h.cost.VMMRecord)
	arrival := hrtClk.Now() + h.cost.InjectWindowROS + h.cost.SignalInjectROS
	if rosClk != nil {
		rosClk.SyncTo(arrival)
	}
	if stack != nil {
		frame := &machine.InterruptFrame{Vector: machine.VecHRTSignal}
		stack.PushFrame(frame)
		defer stack.PopFrame()
	}
	h.countExit("signal-ros")
	handler(sig)
	return nil
}
