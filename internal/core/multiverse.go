package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"multiverse/internal/aerokernel"
	"multiverse/internal/faults"
	"multiverse/internal/hvm"
	"multiverse/internal/image"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/ros"
	"multiverse/internal/telemetry"
	"multiverse/internal/vfs"
)

// Options configures a System.
type Options struct {
	// Hybrid selects the full HVM/HRT configuration. When false, the
	// system is a plain ROS machine (the Native/Virtual baselines).
	Hybrid bool
	// Virtual hosts the ROS as an HVM guest (ignored when Hybrid, which
	// is always virtualized).
	Virtual bool
	// MachineSpec overrides the default 2x4-core machine and is used
	// exactly as given. When nil under Hybrid, the default machine grows
	// its sockets evenly until every HRTCores entry exists.
	MachineSpec *machine.Spec
	// ROSCores / HRTCores partition the machine under Hybrid. Defaults:
	// ROS on core 0, HRT on core 1 (one core each, like the paper's
	// two-core guest); HRTCoreRange(n) lists the HRT cores 1..n.
	ROSCores []machine.CoreID
	HRTCores []machine.CoreID
	// Router enables the adaptive boundary-crossing fast path: HRT-local
	// service for process-invariant calls, a result cache for idempotent
	// calls, and dynamic promotion of hot groups to the synchronous
	// memory-polling channel of section 4.3 (the only route to it). Off
	// (the default) preserves the fixed forwarding paths byte for byte.
	Router bool
	// RouterPolicy tunes promotion/demotion; zero fields take the
	// defaults (hvm.DefaultRouterPolicy).
	RouterPolicy hvm.RouterPolicy
	// Exitless implies Router (NewSystem sets it) and does nothing else.
	//
	// Deprecated: set Router. Exitless will be deleted in ROADMAP item
	// 7b, once the benchmark stops setting it.
	Exitless bool
	// Merger enables the incremental (delta) merger: a re-merge copies
	// only the PML4 slots whose ROS-side generation stamp changed since
	// the last merge, then broadcasts the same TLB shootdown the full
	// merge does. Off (the default) preserves the full-copy merge path
	// byte for byte.
	Merger bool
	// Scheduler enables the AeroKernel's per-core run-queue scheduler:
	// least-loaded placement for top-level and nested threads over the
	// whole HRT partition, Chase–Lev-style work stealing for legion index
	// tasks, a spin-then-halt idle policy, and deterministic virtual-time
	// serialization of same-core threads. Off (the default) preserves the
	// boot-core pinning paths byte for byte.
	Scheduler bool
	// FS preloads a filesystem.
	FS *vfs.FS
	// AppName names the spawned process.
	AppName string
	// Faults arms the deterministic fault-injection plane: notification
	// drops/duplications, delayed injection windows, corrupted request
	// frames, partner-thread deaths, and HRT panics, all rolled from a
	// seeded virtual-time PRNG so a given seed replays exactly. nil (the
	// default) leaves every fixed path byte-identical to the unfaulted
	// build.
	Faults *faults.Plan
	// WedgeTimeout bounds WaitExit/Join in host real time: a group that
	// produces no exit notification within the deadline surfaces
	// ErrGroupWedged instead of hanging the joiner forever. Zero takes
	// the default (10 minutes); negative disables the deadline.
	WedgeTimeout time.Duration
	// Tracer records virtual-time spans for the run; nil (the default)
	// disables tracing at near-zero cost.
	Tracer *telemetry.Tracer
	// Metrics is the run's metrics registry; one is created when nil.
	Metrics *telemetry.Registry
	// Recorder is the always-on flight recorder. When nil one is created
	// with the default ring size, so every run retains its last window of
	// structured events for post-mortem dumps; set NoRecorder to run dark.
	Recorder *telemetry.Recorder
	// NoRecorder disables the flight recorder entirely (the observability
	// bench's dark baseline; also useful to measure the ring's wall cost).
	NoRecorder bool
	// MaxGroups caps the number of concurrently live execution groups; a
	// spawn past the cap fails with ErrAdmissionRejected. 0 (the default)
	// means unlimited.
	MaxGroups int
	// WarmPool bounds the pool of pre-booted AeroKernel contexts that
	// SpawnGroup draws from and group exit returns to: warm spawns skip
	// the partner clone() and the async creation round trip, paying
	// WarmPoolReuse + AKThreadCreate instead. 0 (the default) disables
	// the pool and preserves the cold-boot spawn path byte for byte.
	WarmPool int
	// TenantBudget arms per-group admission budgets enforced at the
	// forwarding boundary; nil (the default) disables them.
	TenantBudget *TenantBudget
}

func (o *Options) fill() {
	if o.AppName == "" {
		o.AppName = "app"
	}
	if len(o.ROSCores) == 0 {
		o.ROSCores = []machine.CoreID{0}
	}
	if len(o.HRTCores) == 0 {
		o.HRTCores = []machine.CoreID{1}
	}
	if o.MachineSpec == nil {
		spec := machine.DefaultSpec()
		if o.Hybrid {
			// Grow the sockets evenly until every HRT core exists.
			for _, c := range o.HRTCores {
				for spec.Sockets*spec.CoresPerSocket <= int(c) {
					spec.CoresPerSocket++
				}
			}
		}
		o.MachineSpec = &spec
	}
	if o.Exitless {
		o.Router = true
	}
	if o.WedgeTimeout == 0 {
		o.WedgeTimeout = 10 * time.Minute
	}
}

// HRTCoreRange lists cores 1..n, an n-core HRT partition beside the ROS
// on core 0; n <= 0 yields nil (the default single HRT core).
func HRTCoreRange(n int) []machine.CoreID {
	var cores []machine.CoreID
	for i := 1; i <= n; i++ {
		cores = append(cores, machine.CoreID(i))
	}
	return cores
}

// System is one assembled Multiverse machine: hardware, VMM, ROS, the
// hybridized process, and (after InitRuntime) the booted AeroKernel.
type System struct {
	Opts Options

	Machine *machine.Machine
	HVM     *hvm.HVM // nil unless Hybrid
	Kernel  *ros.Kernel
	Proc    *ros.Process
	Main    *ros.Thread
	AK      *aerokernel.Kernel // nil until InitRuntime under Hybrid

	Fat       *image.Image
	Overrides *OverrideSet

	// The hot registries are sharded (shard.go): group registration,
	// spawn handoff, and join lookup from a thousand concurrent tenants
	// must not serialize on one lock. The ID counters are atomics for the
	// same reason. s.mu now guards only the cold paths (exit hooks, the
	// hotspot profile).
	fnRegistry    shardedMap[func(Env) uint64]
	nextFnID      atomic.Uint64
	pendingSpawns shardedMap[*spawnSpec]
	nextSpawnID   atomic.Uint64
	groups        shardedMap[*ExecutionGroup]
	nextGroupID   atomic.Uint64

	mu        sync.Mutex
	exitHooks []func()

	// Multi-tenancy state (tenancy.go): the live-group count admission
	// control checks, the warm spawn pool, and the density instruments.
	liveGroups atomic.Int64
	pool       *warmPool
	density    *densityStats

	// Grid membership (grid.go): set by NewGrid before any spawn. grid is
	// nil for a standalone System, which keeps every non-grid path — the
	// spawn shape, the channel's delivery, the syscall path — byte for
	// byte what it was.
	grid     *Grid
	gridNode int

	tracer   *telemetry.Tracer
	metrics  *telemetry.Registry
	recorder *telemetry.Recorder // nil only under Options.NoRecorder
	faults   *faults.Injector    // nil unless Options.Faults

	createThreadAddr uint64
}

// NewSystem builds the machine, VMM partitioning (when hybrid), ROS
// kernel, and the application process. fat is the toolchain's output; it
// may be nil for non-hybrid baselines.
func NewSystem(fat *image.Image, opts Options) (*System, error) {
	opts.fill()
	m, err := machine.New(*opts.MachineSpec)
	if err != nil {
		return nil, err
	}

	s := &System{
		Opts:     opts,
		Machine:  m,
		Fat:      fat,
		tracer:   opts.Tracer,
		metrics:  opts.Metrics,
		recorder: opts.Recorder,
	}
	// Fabricated function pointers start in the canonical text-ish range;
	// group ids start at 1 (0 is "no group"). The counters are atomics:
	// registerFn/spawn allocate with a fetch-add, no lock.
	s.nextFnID.Store(0x7000_0000_0000)
	if s.metrics == nil {
		s.metrics = telemetry.NewRegistry()
	}
	s.density = newDensityStats(s.metrics)
	if opts.WarmPool > 0 {
		s.pool = newWarmPool(opts.WarmPool)
	}
	if s.recorder == nil && !opts.NoRecorder {
		s.recorder = telemetry.NewRecorder(telemetry.DefaultRecorderSize)
	}
	if opts.NoRecorder {
		s.recorder = nil
	}
	if opts.Faults != nil {
		fi, err := faults.New(*opts.Faults, s.metrics)
		if err != nil {
			return nil, err
		}
		fi.SetRecorder(s.recorder)
		s.faults = fi
	}

	world := ros.Native
	rosCores := m.Cores()
	var coreIDs []machine.CoreID
	if opts.Hybrid {
		world = ros.Virtual // the ROS inside an HVM is a guest
		h, err := hvm.New(m, hvm.Config{
			ROSCores: opts.ROSCores,
			HRTCores: opts.HRTCores,
			Tracer:   s.tracer,
			Metrics:  s.metrics,
			Recorder: s.recorder,
			Faults:   s.faults,
		})
		if err != nil {
			return nil, err
		}
		s.HVM = h
		coreIDs = opts.ROSCores
	} else {
		if opts.Virtual {
			world = ros.Virtual
		}
		for _, c := range rosCores {
			coreIDs = append(coreIDs, c.ID)
		}
	}

	kern, err := ros.NewKernel(m, world, coreIDs, opts.FS)
	if err != nil {
		return nil, err
	}
	s.Kernel = kern

	proc, err := kern.Spawn(opts.AppName)
	if err != nil {
		return nil, err
	}
	s.Proc = proc
	s.Main = proc.NewThread(kern.BootCore())
	return s, nil
}

// NativeEnv returns the environment of the process's main thread for
// user-level (Native/Virtual) execution.
func (s *System) NativeEnv() Env {
	e := NewNativeEnv(s.Proc, s.Main).(*nativeEnv)
	e.scope = telemetry.Scope{
		Tracer:  s.tracer,
		Metrics: s.metrics,
		Track:   telemetry.Track{Core: int(s.Main.Core), Name: "ros:main"},
	}
	return e
}

// Tracer returns the run's span tracer (nil when tracing is off).
func (s *System) Tracer() *telemetry.Tracer { return s.tracer }

// Metrics returns the run's metrics registry (never nil).
func (s *System) Metrics() *telemetry.Registry { return s.metrics }

// Recorder returns the run's flight recorder (nil under
// Options.NoRecorder).
func (s *System) Recorder() *telemetry.Recorder { return s.recorder }

// InitRuntime performs the initialization the toolchain's hooks run
// before main() (section 3.5): register ROS signal handlers, hook process
// exit, link AeroKernel functions, parse and install the embedded
// AeroKernel image, boot it, and merge the address spaces.
func (s *System) InitRuntime() error {
	if !s.Opts.Hybrid {
		return nil // nothing to do for the baselines
	}
	if s.Fat == nil {
		return fmt.Errorf("multiverse: no fat binary (run the toolchain first)")
	}

	// 1. Register ROS signal handlers: the HRT-exit notification path.
	// The handler has nothing to record — the partner cleans up on the
	// exit event the HRT thread forwards right after the raise — but the
	// registration and every raise still pay their hypercalls and
	// injection costs, as the paper's exit protocol does.
	s.HVM.RegisterROSSignal(s.Main.Clock, func(int) {}, s.Main.Stack)

	// 2. Hook process exit so HRT shutdown accompanies it.
	s.AddExitHook(func() {
		if s.AK != nil {
			s.AK.Halt()
		}
	})

	// 3. Parse the embedded AeroKernel binary out of our own executable.
	akImage, err := image.ExtractAeroKernel(s.Fat)
	if err != nil {
		return fmt.Errorf("multiverse: %w", err)
	}

	// 4. Install the image in HRT physical memory and boot it.
	if err := s.HVM.InstallImage(s.Main.Clock, akImage); err != nil {
		return err
	}
	s.HVM.RegisterBootHandler(func(info hvm.BootInfo) (hvm.HRTSink, error) {
		k, err := aerokernel.Boot(s.Machine, info)
		if err != nil {
			return nil, err
		}
		s.AK = k
		return k, nil
	})
	if err := s.HVM.BootHRT(s.Main.Clock); err != nil {
		return err
	}

	// 5. AeroKernel function linkage: bind the Multiverse support
	// functions and the override targets to their symbols.
	s.linkAKFunctions()

	// 6. Build the override wrapper table from the embedded config. The
	// wrappers look their symbol up on every invocation, as the paper's
	// implementation does.
	specs, err := ParseOverrides(image.ExtractOverrides(s.Fat))
	if err != nil {
		return err
	}
	s.Overrides = NewOverrideSet(specs, false)
	s.Overrides.SetTelemetry(s.tracer, s.metrics)

	// 7. Merge the ROS process's lower half into the HRT address space,
	// optionally with the incremental merger armed so later re-merges
	// copy deltas instead of the whole lower half.
	s.enableMerger()
	s.enableScheduler()
	if err := s.HVM.MergeAddressSpace(s.Main.Clock, s.Proc.CR3()); err != nil {
		return err
	}
	return nil
}

// enableScheduler arms the per-core run-queue scheduler on the booted
// AeroKernel (Options.Scheduler).
func (s *System) enableScheduler() {
	if !s.Opts.Scheduler || s.AK == nil {
		return
	}
	s.AK.EnableScheduler()
	// With threads genuinely overlapping across cores, address assignment
	// must not depend on which thread's mmap/brk won the race — switch the
	// ROS process to TID-keyed deterministic arenas.
	if s.Proc != nil {
		s.Proc.EnableDeterministicArenas()
	}
}

// enableMerger arms the delta merger on the booted AeroKernel: the ROS
// process publishes per-PML4-slot generation stamps for delta merges.
func (s *System) enableMerger() {
	if !s.Opts.Merger || s.AK == nil {
		return
	}
	s.AK.EnableIncrementalMerger(s.Proc.PML4Generations)
}

// AddExitHook registers a function run when the hybridized process exits.
func (s *System) AddExitHook(fn func()) {
	s.mu.Lock()
	s.exitHooks = append(s.exitHooks, fn)
	s.mu.Unlock()
}

// runExitHooks fires the exit hooks once (process teardown).
func (s *System) runExitHooks() {
	s.mu.Lock()
	hooks := s.exitHooks
	s.exitHooks = nil
	s.mu.Unlock()
	for i := len(hooks) - 1; i >= 0; i-- {
		hooks[i]()
	}
}

// registerFn stores an application closure under a fabricated function
// pointer (the address the runtime would pass to pthread_create), for
// nk_thread_create to take exactly once.
func (s *System) registerFn(fn func(Env) uint64) uint64 {
	id := s.nextFnID.Add(16) - 16
	s.fnRegistry.store(id, fn)
	return id
}

// linkAKFunctions binds the AeroKernel-side implementations Multiverse
// relies on: thread creation/join (the override targets) and the internal
// spawn entry the HVM async-call requests resolve to.
func (s *System) linkAKFunctions() {
	ak := s.AK

	// mv_create_thread: runs in the AeroKernel event loop in response to
	// a thread-creation request from a partner thread. It creates the
	// top-level HRT thread with the requested superposition and starts
	// it; the request completes when creation succeeded, returning the
	// Nautilus thread id ("thread data sent from the remote core after
	// creation succeeds").
	s.createThreadAddr = ak.RegisterFunc("mv_create_thread", func(t *aerokernel.Thread, args []uint64) uint64 {
		if len(args) < 1 {
			return ^uint64(0)
		}
		spec, _ := s.pendingSpawns.loadAndDelete(args[0])
		if spec == nil {
			return ^uint64(0)
		}
		ht := spec.group.startHRT(t.Clock, spec.core, spec.super, spec.stack, spec.queue, spec.fn)
		return uint64(ht.ID)
	})

	// nk_thread_create: the override target for pthread_create. The
	// argument is a registered function id; a new execution group is
	// spawned for it, per Figure 7.
	ak.RegisterFunc("nk_thread_create", func(t *aerokernel.Thread, args []uint64) uint64 {
		if len(args) < 1 {
			return ^uint64(0)
		}
		fn, _ := s.fnRegistry.loadAndDelete(args[0])
		if fn == nil {
			return ^uint64(0)
		}
		g, err := s.spawnGroupFrom(t.Clock, t, fn)
		if err != nil {
			return ^uint64(0)
		}
		return g.id
	})

	// nk_thread_join: the override target for pthread_join; joins the
	// group's partner thread, which by construction does not exit before
	// the HRT thread does.
	ak.RegisterFunc("nk_thread_join", func(t *aerokernel.Thread, args []uint64) uint64 {
		if len(args) < 1 {
			return ^uint64(0)
		}
		g, ok := s.groups.load(args[0])
		if !ok {
			return ^uint64(0)
		}
		code, err := g.WaitExit(t.Clock)
		if err != nil {
			return ^uint64(0)
		}
		g.retire()
		return code
	})

	ak.RegisterFunc("nk_thread_exit", func(t *aerokernel.Thread, args []uint64) uint64 {
		return 0
	})

	// A couple of genuinely useful AeroKernel services for accelerator-
	// model code to call directly.
	ak.RegisterFunc("nk_sched_yield", func(t *aerokernel.Thread, args []uint64) uint64 {
		t.Clock.Advance(s.Machine.Cost.AKEventSignal)
		return 0
	})
	ak.RegisterFunc("nk_sysinfo", func(t *aerokernel.Thread, args []uint64) uint64 {
		return uint64(len(s.AK.Cores()))
	})

	// Kernel-mode memory management (section 5's "next steps"): the
	// mmap/mprotect/munmap shapes the garbage collector depends on,
	// implemented as direct page-table edits in the AeroKernel.
	ak.RegisterFunc("nk_mmap", func(t *aerokernel.Thread, args []uint64) uint64 {
		if len(args) < 1 {
			return ^uint64(0)
		}
		addr, err := ak.MemMap(t, args[0])
		if err != nil {
			return ^uint64(0)
		}
		return addr
	})
	ak.RegisterFunc("nk_mprotect", func(t *aerokernel.Thread, args []uint64) uint64 {
		if len(args) < 3 {
			return ^uint64(0)
		}
		if err := ak.MemProtect(t, args[0], args[1], args[2] != 0); err != nil {
			return ^uint64(0)
		}
		return 0
	})
	ak.RegisterFunc("nk_munmap", func(t *aerokernel.Thread, args []uint64) uint64 {
		if len(args) < 2 {
			return ^uint64(0)
		}
		if err := ak.MemUnmap(t, args[0], args[1]); err != nil {
			return ^uint64(0)
		}
		return 0
	})

	// Kernel-mode event primitives: the fast path parallel runtimes bind
	// their synchronization to under the accelerator model (no
	// kernel/user crossing, no forwarding — just the AeroKernel's
	// wakeup costs).
	ak.RegisterFunc("nk_event_create", func(t *aerokernel.Thread, args []uint64) uint64 {
		t.Clock.Advance(s.Machine.Cost.AKThreadCreate / 4)
		return 1
	})
	ak.RegisterFunc("nk_event_wait", func(t *aerokernel.Thread, args []uint64) uint64 {
		t.Clock.Advance(s.Machine.Cost.AKEventWait)
		return 0
	})
	ak.RegisterFunc("nk_event_signal", func(t *aerokernel.Thread, args []uint64) uint64 {
		t.Clock.Advance(s.Machine.Cost.AKEventSignal)
		return 0
	})
}

// RelinkAfterReboot re-binds the Multiverse support functions after an
// HRT reboot (a fresh AeroKernel has an empty function registry and, when
// the incremental merger is on, empty generation state). The caller
// re-merges separately, as the boot protocol does.
func (s *System) RelinkAfterReboot() {
	s.linkAKFunctions()
	s.enableMerger()
	s.enableScheduler()
}

// SeedGroupIDs advances the group-id counter to at least base. A grid
// seeds each node into a disjoint range so a group keeps a unique id
// when a migration moves it into another node's registry. Advance-only;
// a no-op if the counter is already past base (node 0 keeps the
// standalone numbering).
func (s *System) SeedGroupIDs(base uint64) {
	for {
		cur := s.nextGroupID.Load()
		if cur >= base || s.nextGroupID.CompareAndSwap(cur, base) {
			return
		}
	}
}

// Groups returns the live execution groups (diagnostics). Torn-down
// groups stay registered until joined (late joiners must still find
// them); they do not count as live.
func (s *System) Groups() int {
	n := 0
	s.groups.rangeAll(func(_ uint64, g *ExecutionGroup) {
		if !g.dead.Load() {
			n++
		}
	})
	return n
}

// allowFaultThread adds an HRT thread's panic-roll site to the scoped
// fault allowlist when the owning group is an injection target
// (faults.Plan.Groups).
func (s *System) allowFaultThread(g *ExecutionGroup, ht *aerokernel.Thread) {
	if s.faults.GroupInScope(g.id) {
		s.faults.AllowSite("thread", uint64(ht.ID))
	}
}

// ExitProcess runs the hooked process exit: the exit_group system call
// plus HRT shutdown.
func (s *System) ExitProcess(code uint64) {
	_ = s.Proc.Syscall(s.Main, linuxabi.Call{Num: linuxabi.SysExitGroup, Args: [6]uint64{code}})
	s.runExitHooks()
}
