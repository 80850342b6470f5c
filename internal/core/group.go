package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"multiverse/internal/aerokernel"
	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/hvm"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/ros"
	"multiverse/internal/telemetry"
)

// ErrGroupWedged reports that an execution group produced no exit
// notification within the wedge deadline: its HRT thread hung without
// signaling, a path that previously blocked WaitExit/Join forever. (A
// panicking HRT thread still signals its exit.)
var ErrGroupWedged = errors.New("multiverse: execution group wedged (no exit notification within deadline)")

// spawnSpec is the pending thread-creation request a partner thread hands
// to the AeroKernel through the HVM.
type spawnSpec struct {
	fn    func(Env) uint64
	core  machine.CoreID
	super aerokernel.Superposition
	stack *machine.Stack
	queue *aerokernel.QueueEntry // run-queue slot when scheduler-placed
	group *ExecutionGroup
}

// ExecutionGroup is the pair the paper's split execution revolves around:
// one ROS partner thread and one top-level HRT thread, joined by an event
// channel (section 3.2). The partner exists to preserve join semantics and
// to provide the ROS-side context that initiates the state superposition
// and services forwarded events. It is state — a TID, a clock, a stack
// and TLS — bound to the channel as a handler: each forwarded event is
// served where it is delivered, on the forwarding goroutine, against the
// partner's own clock. Only the HRT thread has a goroutine.
type ExecutionGroup struct {
	id uint64
	// sysv is the hosting System (node). It is atomic because a grid
	// migration re-points a live group at the target node while other
	// goroutines — joiners, the HRT thread, telemetry — read it.
	sysv    atomic.Pointer[System]
	hrt     *aerokernel.Thread
	channel *hvm.EventChannel
	rosCore machine.CoreID

	// pmu guards partner, which recovery and migration replace.
	pmu     sync.Mutex
	partner *ros.Thread

	// dead marks the group torn down. The group stays registered so a
	// joiner that arrives after cleanup still finds it and synchronizes
	// its clock against the partner's final time — whether the join lands
	// before or after cleanup is host-scheduling order, and it must not
	// change the joiner's virtual clock.
	dead atomic.Bool

	// router is the group's adaptive boundary-crossing fast path
	// (Options.Router).
	router *hvm.SyscallRouter

	// slo holds the group's per-syscall SLO histograms, resolved once
	// per system call number.
	slo telemetry.Handles[linuxabi.Sysno, *telemetry.Histogram]

	exitCode atomic.Uint64

	// finished closes when the partner has cleaned the group up;
	// finalTime is the partner clock at that moment — what joiners
	// synchronize to.
	finished  chan struct{}
	finalTime atomic.Uint64

	// Recovery state (fault plane only): gen counts partner generations
	// (salted into the kill roll so a respawned partner re-rolls the
	// redelivered seqno fresh); recoveries counts the deaths recovered on
	// the current node, against the plan's budget (guarded by the
	// channel's service lock); degraded marks ROS-only fallback mode;
	// fbMu serializes the degraded direct-service entries.
	gen        atomic.Uint64
	recoveries int
	degraded   atomic.Bool
	fbMu       sync.Mutex

	// akStack is the ROS-side stack backing the HRT thread — what the
	// warm pool recycles at exit (tenancy.go). Written once before the
	// partner starts serving.
	akStack *machine.Stack

	// retired marks the group removed from the System registry (first
	// successful join wins); boundarySpent/memReserved are the tenant-
	// budget accumulators, touched only when Options.TenantBudget is set.
	retired       atomic.Bool
	boundarySpent atomic.Uint64
	memReserved   atomic.Uint64

	// Grid state (grid.go / checkpoint.go), all zero outside a grid.
	// gridHosted marks the group migratable (set at spawn when the node
	// belongs to a Grid); gateCalls counts boundary crossings at the
	// syscall gate; gateReq holds an armed voluntary-migration request
	// the gate claims; rehomePending defers the AK-thread re-home of a
	// force-restored group to its next boundary crossing (the first
	// point the HRT goroutine is provably quiescent after a node kill).
	// A migration holds the channel's service lock, which also
	// serializes it against inline recovery.
	gridHosted    bool
	gateCalls     atomic.Uint64
	gateReq       atomic.Pointer[migrateRequest]
	rehomePending atomic.Bool
}

// sys returns the System currently hosting the group. Outside a grid it
// never changes; a migration restore re-points it at the target node.
func (g *ExecutionGroup) sys() *System { return g.sysv.Load() }

// retire removes a joined (or failed) group from the registry — the fix
// for the unbounded growth of System.groups: exited groups used to stay
// registered forever. The first retire wins; a lookup after that is a
// double join, which fails exactly as for pthreads.
func (g *ExecutionGroup) retire() {
	if g.retired.CompareAndSwap(false, true) {
		g.sys().groups.delete(g.id)
	}
}

// partnerRef returns the current partner thread (recovery or migration
// may have replaced it).
func (g *ExecutionGroup) partnerRef() *ros.Thread {
	g.pmu.Lock()
	defer g.pmu.Unlock()
	return g.partner
}

// bind makes pt the group's partner generation: every envelope the
// channel delivers runs serve on pt's clock, and a partner that dies
// mid-service recovers inline before the delivery loop drains the
// replay. The replaced generation, if any, is over. Callers bind before
// the HRT thread can forward, or while they hold the service.
func (g *ExecutionGroup) bind(pt *ros.Thread) {
	g.pmu.Lock()
	prev := g.partner
	g.partner = pt
	g.pmu.Unlock()
	if prev != nil {
		prev.Exit(0)
	}
	g.channel.Bind(pt.Clock, func(env *hvm.Envelope) {
		if !g.serve(pt, env) {
			g.recoverPartner(pt)
		}
	})
}

// PartnerTID is the TID of the current partner thread — the key the ROS
// kernel scopes per-thread state (timers, signal handlers) to.
func (g *ExecutionGroup) PartnerTID() int { return g.partnerRef().TID }

// SpawnGroup creates an execution group running fn as a top-level HRT
// thread, following Figure 7: create the partner thread in the ROS (2);
// the partner allocates a ROS-side stack and invokes the HVM to request
// thread creation in the HRT with the GDT/TLS superposition (3); the
// request completes when the AeroKernel thread exists. creator pays the
// partner-creation cost (it is an ordinary Linux thread).
func (s *System) SpawnGroup(creator *cycles.Clock, fn func(Env) uint64) (*ExecutionGroup, error) {
	return s.spawnGroupFrom(creator, nil, fn)
}

// spawnGroupFrom is SpawnGroup with the creating HRT thread made explicit
// (nil for spawns initiated from the ROS side): under Options.Scheduler the
// new top-level thread is placed least-loaded over the whole HRT partition
// and queued behind the chosen core's current occupant, with the creator's
// own run-queue entry recorded so descendants never wait on an ancestor
// that is blocked joining them.
func (s *System) spawnGroupFrom(creator *cycles.Clock, creatorT *aerokernel.Thread, fn func(Env) uint64) (*ExecutionGroup, error) {
	if s.AK == nil {
		return nil, fmt.Errorf("multiverse: runtime not initialized (no AeroKernel)")
	}
	if max := s.Opts.MaxGroups; max > 0 && int(s.liveGroups.Load()) >= max {
		s.density.admRejected.Inc()
		return nil, ErrAdmissionRejected
	}
	rosCore := s.Kernel.BootCore()
	hrtCore := s.Opts.HRTCores[0]
	var queue *aerokernel.QueueEntry
	sched := s.AK.Scheduler()
	if sched != nil {
		hrtCore, queue = sched.PlaceTopLevel(creator, creatorT)
	}

	g := &ExecutionGroup{
		channel:  s.HVM.NewEventChannel(hrtCore, rosCore),
		rosCore:  rosCore,
		finished: make(chan struct{}),
	}
	g.sysv.Store(s)
	g.id = s.nextGroupID.Add(1)
	// Grid-hosted: the group may be checkpointed at a quiesce point and
	// restored on another node.
	g.gridHosted = s.grid != nil
	s.groups.store(g.id, g)
	s.noteGroupLive()
	if s.faults.GroupInScope(g.id) {
		s.faults.AllowSite("chan", g.channel.ID())
	}

	// Adaptive boundary router: mirror the process-invariant state into
	// the HRT, point the result cache at the Proc's generation stamps,
	// and hand the router the hooks it needs to promote a hot group to a
	// synchronous channel mid-run.
	if s.Opts.Router {
		g.router = hvm.NewSyscallRouter(s.HVM, hrtCore, hvm.RouterLocalState{
			PID:   uint64(s.Proc.Pid()),
			Cwd:   s.Proc.Cwd(),
			Uname: ros.UnameString,
		}, s.Opts.RouterPolicy)
		g.bindRouterHooks(s, rosCore, hrtCore)
	}

	if slot := s.takeWarmSlot(); slot != nil {
		// Warm reuse (the paper's HRT-reboot fast path, per-group): the
		// parked context already paid its clone() and its async creation
		// round trip when it was first cold-booted, so a warm spawn only
		// pays the reuse switch plus the AeroKernel thread creation — the
		// recycled service context restarts without a fresh clone(). The
		// deterministic reset is explicit: the stack pointer rebases
		// (Reset), the clock rebases to the claimant (CreateThread syncs
		// it), and CreateThread re-applies the GDT/FSBase superposition —
		// the slot carries no address-space deltas because group-private
		// state died with the old group's channel/ring teardown. The
		// service is held until the partner clock has caught up, so the
		// new HRT thread's first forward waits for it.
		pt := s.Proc.NewThread(rosCore)
		creator.Advance(s.Machine.Cost.WarmPoolReuse)
		slot.stack.Reset()
		g.akStack = slot.stack
		g.channel.Hold(func() {
			g.bind(pt)
			g.startHRT(creator, hrtCore, aerokernel.Superposition{
				GDT:    s.Kernel.ProcessGDT(),
				FSBase: pt.FSBase,
			}, slot.stack, queue, fn)
			pt.Clock.SyncTo(creator.Now())
		})
	} else {
		// Cold boot: Figure 7's full protocol, run on the spawner's
		// goroutine against the partner's clock. The stack is allocated
		// here (host-side, no virtual cost) so the group can remember it
		// for warm-pool parking at exit. The partner owns the ROS-side
		// stack for the HRT thread and mirrors its own GDT/TLS state into
		// the superposition; the service is held across the creation
		// request, so the new HRT thread's first forward is served only
		// after the partner's clock has seen it complete.
		stack := machine.NewStack(256 * 1024)
		g.akStack = stack
		pt := s.Proc.NewThread(rosCore)
		pt.Create(creator)
		g.channel.Hold(func() {
			g.bind(pt)
			spec := &spawnSpec{
				fn:   fn,
				core: hrtCore,
				super: aerokernel.Superposition{
					GDT:    s.Kernel.ProcessGDT(),
					FSBase: pt.FSBase,
				},
				stack: stack,
				queue: queue,
				group: g,
			}
			id := s.nextSpawnID.Add(1) - 1
			s.pendingSpawns.store(id, spec)

			ret, err := s.HVM.AsyncCall(pt.Clock, s.createThreadAddr, id)
			if err != nil || ret == ^uint64(0) {
				// The AeroKernel may never have consumed the spec (halted
				// kernel, failed injection): drop it so failed spawns do
				// not leak pending entries.
				s.pendingSpawns.delete(id)
				g.channel.Close()
				pt.Exit(0)
			}
		})
	}

	if g.hrt == nil {
		// The HRT thread never started; release its run-queue slot so
		// threads queued behind it do not wait forever, and unregister
		// the stillborn group so failures do not grow the registry.
		if sched != nil {
			sched.CancelEntry(queue)
		}
		s.noteGroupDead()
		g.retire()
		return nil, fmt.Errorf("multiverse: HRT thread creation failed")
	}
	return g, nil
}

// startHRT creates the group's top-level HRT thread on clk's timeline,
// binds it to the group's router and run-queue slot, and starts fn on it.
// The warm path and the cold path (mv_create_thread) both bind through
// here.
func (g *ExecutionGroup) startHRT(clk *cycles.Clock, core machine.CoreID, super aerokernel.Superposition,
	stack *machine.Stack, queue *aerokernel.QueueEntry, fn func(Env) uint64) *aerokernel.Thread {
	s := g.sys()
	ht := s.AK.CreateThread(clk, core, super, g.channel, stack)
	if g.router != nil {
		ht.SetRouter(g.router)
	}
	if queue != nil {
		ht.AttachQueueEntry(queue)
	}
	g.hrt = ht
	s.allowFaultThread(g, ht)
	ht.Start(func(ht *aerokernel.Thread) uint64 {
		return g.runHRT(ht, fn)
	})
	return ht
}

// bindRouterHooks wires the group's router to a hosting System: the
// result cache checks the host Proc's generation stamps, and the
// polled-channel hooks capture the host's Proc and HVM. Called at spawn
// and again by a migration restore — after a move the hooks must create
// pollers and channels on the target node. The Proc keeps no reference
// to the router, so a retired or migrated group leaves nothing behind.
func (g *ExecutionGroup) bindRouterHooks(s *System, rosCore, hrtCore machine.CoreID) {
	r := g.router
	r.SetStamps(s.Proc)
	// Promotion sets up the channel with one hypercall and dedicates a
	// fresh ROS thread, created on the promoting HRT thread's clock, as
	// its poller; demotion (idle or a clean window after fault pressure)
	// closes it, which also releases the poller.
	r.SetPollHooks(
		func(clk *cycles.Clock) (*hvm.PolledChannel, error) {
			pt := s.Proc.NewThread(rosCore)
			ch, err := s.HVM.OpenPolled(clk, rosCore, hrtCore, hvm.Poller{
				Clock: pt.Clock,
				Serve: func(call linuxabi.Call) linuxabi.Result { return s.Proc.Syscall(pt, call) },
				Touch: func(addr uint64, write bool) bool {
					return s.Proc.TouchFor(pt, g.PartnerTID(), addr, write) == linuxabi.OK
				},
			})
			if err != nil {
				return nil, err
			}
			pt.Create(clk)
			return ch, nil
		},
		s.HVM.ClosePolled,
	)
}

// recoverPartner is partner-death recovery, run inline by the delivery that
// found the partner dead, at the dead partner's clock: respawn within
// the fault plan's budget, graceful ROS-only degradation beyond it.
// Either binds the next generation and requeues the in-flight
// envelopes, and the delivery loop drains the replay to it, so the
// blocked Forward returns the replayed reply.
func (g *ExecutionGroup) recoverPartner(dead *ros.Thread) {
	g.recoveries++
	if g.recoveries > g.sys().faults.RecoveryBudget() {
		g.degrade(dead)
		return
	}
	g.respawn(dead)
}

// respawn brings up a fresh partner thread after a death: create the
// thread at the dead partner's virtual time, replay the mirrored-state
// merge (the dead partner may have died mid-protocol; the PR-3 delta path
// makes the replay cheap), requeue every in-flight envelope, and resume
// serving from the retransmit queue.
func (g *ExecutionGroup) respawn(dead *ros.Thread) {
	s := g.sys()
	start := dead.Clock.Now()
	pt := s.Proc.NewThread(g.rosCore)
	pt.Clock.SyncTo(start)
	pt.Clock.Advance(s.Machine.Cost.ROSThreadCreate)
	// The merge replay is best-effort: the shared lower-level tables are
	// still intact, so serving can resume regardless.
	_ = s.HVM.MergeAddressSpace(pt.Clock, s.Proc.CR3())
	replayed := g.channel.Requeue(pt.Clock.Now())
	g.gen.Add(1) // kill rolls re-key: redelivered seqnos roll fresh
	g.bind(pt)
	s.metrics.Counter("faults.recovery").Inc()
	s.metrics.LatencyHistogram("faults.recovery.latency").Observe(pt.Clock.Now() - start)
	// Flow-link the respawn marker to the first replayed envelope's
	// forward span, so the trace draws the arrow from the stranded
	// request to the recovery that replayed it.
	var flowIn, firstReq uint64
	if len(replayed) > 0 {
		flowIn, firstReq = replayed[0].Flow, replayed[0].ReqID
	}
	s.tracer.InstantFlow(telemetry.Track{Core: int(g.rosCore), Name: "ros:watchdog"},
		"faults", "partner-respawn", pt.Clock.Now(), flowIn, 0,
		telemetry.Attr{Key: "generation", Val: g.gen.Load()},
		telemetry.Attr{Key: "replayed", Val: uint64(len(replayed))},
		telemetry.Attr{Key: "req", Val: firstReq})
	s.recorder.Record(pt.Clock.Now(), telemetry.RecRespawn, g.id, firstReq,
		g.gen.Load(), uint64(len(replayed)))
}

// degrade is the recovery-budget-exhausted path: instead of wedging (or
// burning respawns forever), the group falls back to ROS-only execution —
// the paper's Incremental model run in reverse. System calls and
// forwarded faults are served by direct ROS entries under a dedicated
// service context; the event channel goes force-reliable and a final
// partner generation handles the residual control traffic (thread exit,
// plus any requeued in-flight envelopes).
func (g *ExecutionGroup) degrade(dead *ros.Thread) {
	s := g.sys()
	cost := s.Machine.Cost
	g.degraded.Store(true)
	g.channel.ForceReliable()

	svc := s.Proc.NewThread(g.rosCore)
	svc.Clock.SyncTo(dead.Clock.Now())
	g.hrt.SetFallback(&aerokernel.Fallback{
		Syscall: func(t *aerokernel.Thread, call linuxabi.Call) linuxabi.Result {
			g.fbMu.Lock()
			defer g.fbMu.Unlock()
			svc.Clock.SyncTo(t.Clock.Now())
			svc.Clock.Advance(cost.SyscallEntry)
			res := s.Proc.Syscall(svc, call)
			svc.Clock.Advance(cost.SyscallExit)
			t.Clock.SyncTo(svc.Clock.Now())
			s.metrics.Counter("faults.degraded.served").Inc()
			return res
		},
		Fault: func(t *aerokernel.Thread, addr uint64, write bool) bool {
			g.fbMu.Lock()
			defer g.fbMu.Unlock()
			svc.Clock.SyncTo(t.Clock.Now())
			errno := s.Proc.Touch(svc, addr, write)
			t.Clock.SyncTo(svc.Clock.Now())
			s.metrics.Counter("faults.degraded.served").Inc()
			return errno == linuxabi.OK
		},
	})

	// Final partner generation for the residual channel traffic. The
	// degraded flag disarms the kill roll, so this one cannot die again.
	pt := s.Proc.NewThread(g.rosCore)
	pt.Clock.SyncTo(dead.Clock.Now())
	pt.Clock.Advance(cost.ROSThreadCreate)
	g.channel.Requeue(pt.Clock.Now())
	g.gen.Add(1)
	g.bind(pt)
	s.metrics.Counter("faults.degraded").Inc()
	s.tracer.Instant(telemetry.Track{Core: int(g.rosCore), Name: "ros:watchdog"},
		"faults", "degraded-ros-only", pt.Clock.Now(),
		telemetry.Attr{Key: "group", Val: g.id})
	s.recorder.Record(pt.Clock.Now(), telemetry.RecDegrade, g.id, 0, g.gen.Load(), 0)
	// Budget exhaustion is a post-mortem trigger: preserve the lead-up.
	s.recorder.AutoDump(fmt.Sprintf("recovery budget exhausted on group %d (degraded to ROS-only)", g.id))
}

// runHRT is the HRT thread's body: run the application function in the
// HRT environment, then execute the exit protocol — write the exit
// notification, raise the asynchronous HRT->ROS signal (which bypasses
// the ROS kernel), and send the partner the exit event through the event
// channel so it can clean up and exit.
func (g *ExecutionGroup) runHRT(t *aerokernel.Thread, fn func(Env) uint64) uint64 {
	env := &hrtEnv{t: t, group: g}
	// The exit protocol runs even when fn panics, with code ^0, so the
	// partner still tears the group down; the panic then unwinds on to
	// Thread.Run, which keeps its status for WaitExit and Join.
	code := ^uint64(0)
	defer func() {
		g.exitCode.Store(code)
		// A failed signal or a channel already down leaves nothing to
		// wake.
		_ = g.sys().HVM.RaiseROSSignal(t.Clock, int(linuxabi.SIGCHLD))
		_, _ = g.channel.Forward(t.Clock, &hvm.Envelope{Kind: hvm.EvThreadExit, ExitCode: code})
	}()
	code = fn(env)
	return code
}

// serve is the partner's per-envelope body: it converges on one event
// the HRT side raised — a forwarded system call is executed against the
// ROS kernel, a forwarded page fault is replicated so the ROS fault path
// runs, and the thread exit tears the group down. It returns false when
// an injected partner death interrupts the service: the envelope, still
// in the channel's in-flight set, is requeued for the next generation.
func (g *ExecutionGroup) serve(pt *ros.Thread, env *hvm.Envelope) bool {
	if !g.degraded.Load() &&
		g.sys().faults.Roll(faults.PartnerKill, g.channel.ID(), env.Seq, int(g.gen.Load()), pt.Clock.Now()) {
		return false
	}
	switch env.Kind {
	case hvm.EvSyscall:
		res := g.sys().Proc.Syscall(pt, env.Call)
		g.channel.Complete(pt.Clock, env, hvm.Reply{Res: res})
	case hvm.EvPageFault:
		// Replicate the access: the same exception occurs on the
		// ROS core and the ROS handles it as it would normally.
		errno := g.sys().Proc.Touch(pt, env.FaultAddr, env.FaultWrite)
		g.channel.Complete(pt.Clock, env, hvm.Reply{FaultOK: errno == linuxabi.OK})
	case hvm.EvThreadExit:
		g.channel.Complete(pt.Clock, env, hvm.Reply{})
		g.cleanup(pt)
	default:
		g.channel.Complete(pt.Clock, env, hvm.Reply{Res: linuxabi.Result{Err: linuxabi.ENOSYS}})
	}
	return true
}

// cleanup tears the group down on the partner side, ending the last
// partner generation.
func (g *ExecutionGroup) cleanup(pt *ros.Thread) {
	if g.router != nil {
		g.router.Shutdown() // closes a promoted channel and its poller
	}
	g.channel.Close()
	g.sys().noteGroupDead()
	// Park the context for warm reuse before finished closes, so a
	// spawn sequenced after this group's join deterministically sees the
	// slot. Parking charges no virtual cycles (tenancy.go).
	g.parkWarmSlot()
	g.finalTime.Store(uint64(pt.Clock.Now()))
	g.dead.Store(true)
	pt.Exit(0)
	close(g.finished)
}

// awaitDone blocks until the group has finished cleanly (cleanup ran,
// ending the last partner generation, and the HRT goroutine exited) or
// the wedge deadline expires. The deadline is host real time
// on purpose: a wedged group's virtual clocks stop advancing, so only wall
// time can flush the condition out.
func (g *ExecutionGroup) awaitDone() error {
	var deadline <-chan time.Time // nil: no deadline, wait forever
	if d := g.sys().Opts.WedgeTimeout; d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		deadline = timer.C
	}
	for _, done := range [...]<-chan struct{}{g.finished, g.hrt.Done()} {
		select {
		case <-done:
		case <-deadline:
			return g.wedged()
		}
	}
	return nil
}

// wedged records the wedge in the flight recorder and dumps it: a group
// that never signals exit is exactly the post-mortem the ring exists for.
func (g *ExecutionGroup) wedged() error {
	// The group's virtual clocks are stalled; stamp with the last time
	// the partner side reached, which is 0 if cleanup never ran.
	g.sys().recorder.Record(cycles.Cycles(g.finalTime.Load()), telemetry.RecWedge, g.id, 0, 0, 0)
	g.sys().recorder.AutoDump(fmt.Sprintf("group %d wedged: no exit notification within deadline", g.id))
	return ErrGroupWedged
}

// WaitExit blocks until the group has finished — cleanup ran on the
// partner side (the protocol guarantees that happens only after the HRT
// thread wrote its exit notification), the HRT goroutine itself exited
// (it may still be closing its half of the final round trip when the
// partner unblocks) and the partner thread returned — then synchronizes
// the waiter's clock to the partner's final time and returns the exit
// code. If the group wedges — no exit notification within
// Options.WedgeTimeout of host time — it returns ErrGroupWedged instead
// of blocking forever. If a real panic ended the HRT thread, the code is
// ^0 and the error carries the panic.
func (g *ExecutionGroup) WaitExit(clk *cycles.Clock) (uint64, error) {
	if err := g.awaitDone(); err != nil {
		return 0, err
	}
	return g.finish(clk)
}

// finish retires the finished group, synchronizes clk to the partner's
// final time, and returns the exit code with the HRT thread's panic
// status, if any.
func (g *ExecutionGroup) finish(clk *cycles.Clock) (uint64, error) {
	g.retire()
	clk.SyncTo(cycles.Cycles(g.finalTime.Load()))
	if err := g.hrt.PanicStatus(); err != nil {
		return g.exitCode.Load(), fmt.Errorf("multiverse: group %d: %w", g.id, err)
	}
	return g.exitCode.Load(), nil
}

// Join joins the partner thread from a ROS thread — the main thread's
// join() path in the Incremental model. It charges the same costs as a
// direct ros.Thread.Join (a voluntary context switch plus the join
// syscall) but waits group-wise, so a respawned partner does not
// strand the joiner on a dead thread handle, a wedged group surfaces
// ErrGroupWedged instead of hanging, and a real HRT panic surfaces as
// WaitExit reports it.
func (g *ExecutionGroup) Join(joiner *ros.Thread) (uint64, error) {
	joiner.Proc.CountVoluntaryCS()
	joiner.Clock.Advance(g.sys().Machine.Cost.ROSThreadJoin)
	if err := g.awaitDone(); err != nil {
		return 0, err
	}
	return g.finish(joiner.Clock)
}

// Channel exposes the group's event channel (stats).
func (g *ExecutionGroup) Channel() *hvm.EventChannel { return g.channel }

// HRTThread exposes the group's HRT thread.
func (g *ExecutionGroup) HRTThread() *aerokernel.Thread { return g.hrt }

// Partner exposes the group's current ROS partner thread (recovery or
// migration may have replaced the original).
func (g *ExecutionGroup) Partner() *ros.Thread { return g.partnerRef() }

// Router exposes the group's boundary router (nil unless Options.Router).
func (g *ExecutionGroup) Router() *hvm.SyscallRouter { return g.router }

// ---- The HRT execution environment -------------------------------------

// hrtEnv is the Env of code running inside the HRT: system calls go
// through the Nautilus stub and the event channel; memory accesses run in
// ring 0 against the merged address space; pthreads are interposed by the
// default overrides.
type hrtEnv struct {
	t     *aerokernel.Thread
	group *ExecutionGroup
}

// sys resolves the hosting System through the group, so a migrated
// group's environment follows it to the target node.
func (e *hrtEnv) sys() *System { return e.group.sys() }

func (e *hrtEnv) World() World          { return WorldHRT }
func (e *hrtEnv) Clock() *cycles.Clock  { return e.t.Clock }
func (e *hrtEnv) Process() *ros.Process { return e.sys().Proc }

// TelemetryScope exposes the run's instruments on the HRT thread's track;
// layers above (the scheme GC) discover it by interface assertion.
func (e *hrtEnv) TelemetryScope() telemetry.Scope {
	return telemetry.Scope{
		Tracer:  e.sys().tracer,
		Metrics: e.sys().metrics,
		Track:   telemetry.Track{Core: int(e.t.Core), Name: "hrt"},
	}
}

func (e *hrtEnv) Compute(c cycles.Cycles) {
	e.t.Clock.Advance(c)
	e.sys().Proc.ChargeUser(c)
}

func (e *hrtEnv) Syscall(call linuxabi.Call) linuxabi.Result {
	if e.group.gridHosted {
		// The quiesce-point gate: every boundary crossing of a
		// grid-hosted group passes here at zero virtual cost, and an
		// armed voluntary migration fires synchronously on this (the
		// HRT) goroutine — which is exactly what makes the group
		// quiescent: no forwarded call is in flight.
		e.group.syscallGate(e.t)
	}
	if b := e.sys().Opts.TenantBudget; b != nil {
		// Admission at the boundary: an over-budget tenant is turned away
		// before the call crosses, at zero virtual cost, with a
		// deterministic errno (tenancy.go).
		if rej, rejected := e.group.admitSyscall(b, call.Args[1], call.Num == linuxabi.SysMmap); rejected {
			return rej
		}
	}
	start := e.t.Clock.Now()
	res := e.t.Syscall(call)
	lat := e.t.Clock.Now() - start
	if e.sys().Opts.TenantBudget != nil {
		e.group.chargeBudget(lat)
	}
	// Per-group, per-syscall-kind SLO distribution, and the source of
	// the hotspot report's syscall entries. Wall-only cost: the histogram
	// observes the already-computed virtual latency and never advances a
	// clock.
	e.group.sloHist(call.Num).Observe(lat)
	return res
}

// sloHist returns the group's SLO histogram for num. Grid nodes share
// one registry, so a migrated group keeps its handles.
func (g *ExecutionGroup) sloHist(num linuxabi.Sysno) *telemetry.Histogram {
	return g.slo.Get(num, func() *telemetry.Histogram {
		return g.sys().metrics.LatencyHistogram(telemetry.SLOPrefix + "g" +
			strconv.FormatUint(g.id, 10) + "." + num.String())
	})
}

func (e *hrtEnv) VDSO(num linuxabi.Sysno) (uint64, linuxabi.Errno) {
	// vdso functions execute in the merged address space on the HRT
	// core — a state superposition, no forwarding.
	return e.sys().Proc.VDSOAt(e.t.Clock, e.t.Core, num)
}

func (e *hrtEnv) Touch(addr uint64, write bool) error {
	// This thread's own forwarded-fault count: another group forwarding
	// a fault meanwhile must not make this access a page-fault hotspot.
	before := e.t.ForwardedFaults()
	start := e.t.Clock.Now()
	err := e.t.Touch(addr, write)
	if e.t.ForwardedFaults() > before {
		e.sys().Hotspots().recordFault(e.t.Clock.Now() - start)
	}
	return err
}

func (e *hrtEnv) CheckTimer() bool {
	// The timer is keyed by the ROS thread that serviced the forwarded
	// setitimer — this group's partner.
	return e.sys().Proc.CheckTimerFor(e.group.PartnerTID(), e.t.Clock)
}

func (e *hrtEnv) RegisterSignalCode(addr uint64, fn func(*ros.SignalContext)) {
	// Scope the registration to this group's partner — the same ROS thread
	// that services the group's rt_sigaction — so concurrent engines using
	// the same fixed handler addresses cannot clobber each other.
	e.sys().Proc.RegisterHandlerFor(e.group.PartnerTID(), addr, fn)
}

// PthreadCreate goes through the generated wrapper for pthread_create,
// which resolves and calls nk_thread_create (Figure 5's flow).
func (e *hrtEnv) PthreadCreate(fn func(Env)) (PthreadJoin, error) {
	w, ok := e.sys().Overrides.Lookup("pthread_create")
	if !ok {
		return nil, fmt.Errorf("multiverse: pthread_create override missing")
	}
	fnID := e.sys().registerFn(func(env Env) uint64 { fn(env); return 0 })
	gid, err := w.Invoke(e.t, fnID)
	if err != nil {
		return nil, err
	}
	if gid == ^uint64(0) {
		return nil, fmt.Errorf("multiverse: nk_thread_create failed")
	}
	self := e.t
	return func() uint64 {
		jw, okj := e.sys().Overrides.Lookup("pthread_join")
		if !okj {
			return ^uint64(0)
		}
		ret, jerr := jw.Invoke(self, gid)
		if jerr != nil {
			return ^uint64(0)
		}
		return ret
	}, nil
}

// AKCall invokes an AeroKernel function directly by symbol — what
// accelerator-model code does (Figure 4's aerokernel_func()).
func (e *hrtEnv) AKCall(symbol string, args ...uint64) (uint64, error) {
	addr, ok := e.sys().AK.LookupSymbol(e.t.Clock, symbol)
	if !ok {
		return 0, fmt.Errorf("multiverse: AeroKernel symbol %q not found", symbol)
	}
	return e.sys().AK.CallByAddr(e.t, addr, args...)
}

// RegisterAKMemFaultHandler installs the runtime's handler for protection
// faults in the AeroKernel-managed memory region (the in-kernel GC
// write-barrier path).
func (e *hrtEnv) RegisterAKMemFaultHandler(h func(addr uint64, write bool) bool) {
	e.sys().AK.SetMemFaultHandler(aerokernel.MemFaultHandler(h))
}

// RegisterUserFaultHandler installs nothing and returns false, so
// write-barrier faults on merged user pages take the forwarded path.
//
// Deprecated: kept only because the benchmark's traced Env names the
// method; deleted in ROADMAP item 7b.
func (e *hrtEnv) RegisterUserFaultHandler(h func(addr uint64, write bool) bool) bool {
	return false
}

// UserProtect edits nothing and returns false; callers take the
// forwarded mprotect path.
//
// Deprecated: kept only because the benchmark's traced Env names the
// method; deleted in ROADMAP item 7b.
func (e *hrtEnv) UserProtect(addr, length uint64, writable bool) bool {
	return false
}

// OverrideInvoke calls a legacy function through its override wrapper.
func (e *hrtEnv) OverrideInvoke(legacy string, args ...uint64) (uint64, error) {
	w, ok := e.sys().Overrides.Lookup(legacy)
	if !ok {
		return 0, fmt.Errorf("multiverse: no override for %q", legacy)
	}
	return w.Invoke(e.t, args...)
}

// HRTThreadForBench exposes the backing AeroKernel thread; the benchmark
// harness measures primitives against it directly.
func (e *hrtEnv) HRTThreadForBench() *aerokernel.Thread { return e.t }

// Scheduler exposes the AeroKernel's run-queue scheduler; nil when
// Options.Scheduler is off.
func (e *hrtEnv) Scheduler() *aerokernel.Scheduler {
	if e.sys().AK == nil {
		return nil
	}
	return e.sys().AK.Scheduler()
}

// SpawnWorkerEnv creates a persistent scheduler-placed worker context: a
// nested AeroKernel thread (placed least-loaded over the HRT partition)
// wrapped in an Env that charges its clock. The worker never runs a
// goroutine of its own — legion's work-stealing executor drives it
// deterministically — so the release function just retires the thread and
// returns its placement load.
func (e *hrtEnv) SpawnWorkerEnv() (Env, machine.CoreID, func(), error) {
	if e.Scheduler() == nil {
		return nil, 0, nil, fmt.Errorf("multiverse: scheduler not enabled")
	}
	nt := e.t.CreateNested()
	wenv := &hrtEnv{t: nt, group: e.group}
	return wenv, nt.Core, nt.Release, nil
}

// SchedulerHost is the surface legion's work-stealing executor discovers by
// type assertion on an HRT Env. Scheduler returns nil when the option is
// off, in which case legion keeps its execution-group worker pool.
type SchedulerHost interface {
	Scheduler() *aerokernel.Scheduler
	SpawnWorkerEnv() (Env, machine.CoreID, func(), error)
}

var _ SchedulerHost = (*hrtEnv)(nil)

// HRTExtras is the additional surface hybrid (accelerator-model) code can
// reach: direct AeroKernel calls and override invocation. Obtain it by
// type-asserting an Env whose World is WorldHRT.
type HRTExtras interface {
	AKCall(symbol string, args ...uint64) (uint64, error)
	OverrideInvoke(legacy string, args ...uint64) (uint64, error)
}

var _ HRTExtras = (*hrtEnv)(nil)

// ---- Usage-model entry points ------------------------------------------

// RunMain executes app under the Incremental model: "Multiverse will
// create a new thread in the HRT corresponding to the program's main()
// routine", and the ROS main thread joins the partner. Returns the app's
// exit code.
func (s *System) RunMain(app func(Env) uint64) (uint64, error) {
	if !s.Opts.Hybrid {
		// Baseline worlds just run main() natively.
		env := s.NativeEnv()
		code := app(env)
		s.ExitProcess(code)
		return code, nil
	}
	g, err := s.SpawnGroup(s.Main.Clock, app)
	if err != nil {
		return 0, err
	}
	code, err := g.Join(s.Main)
	if err != nil {
		return 0, err
	}
	s.ExitProcess(code)
	return code, nil
}

// HRTInvokeFunc is the Accelerator model's hrt_invoke_func(): run routine
// in a new HRT thread and wait for it (Figure 4).
func (s *System) HRTInvokeFunc(routine func(Env) uint64) (uint64, error) {
	g, err := s.SpawnGroup(s.Main.Clock, routine)
	if err != nil {
		return 0, err
	}
	return g.Join(s.Main)
}
