// Package legion is a miniature task-parallel runtime in the mould of the
// Legion runtime the paper hand-ported to Nautilus (section 2): a master
// that launches data-parallel index tasks onto a pool of worker threads
// with barrier-style completion, whose synchronization primitives are the
// runtime's hot spot.
//
// The runtime is world-aware in exactly the way the HRT model encourages:
// on a legacy OS its synchronization costs futex system calls and context
// switches; inside an HRT the same operations bind to the AeroKernel's
// event primitives, which are orders of magnitude cheaper (the source of
// the paper's reported HPCG speedups — "up to 20% for the Intel Xeon Phi,
// and up to 40%" on x64).
package legion

import (
	"fmt"
	"sort"

	"multiverse/internal/aerokernel"
	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/scheme"
	"multiverse/internal/telemetry"
)

// syncCoster charges the cost of one blocking wait or one wakeup in
// whatever world the runtime landed in.
type syncCoster interface {
	chargeWait(env core.Env)
	chargeWake(env core.Env)
	name() string
}

// futexCoster is the legacy path: every wait and wake crosses the kernel.
type futexCoster struct{}

func (futexCoster) chargeWait(env core.Env) {
	env.Syscall(linuxabi.Call{Num: linuxabi.SysFutex})
}
func (futexCoster) chargeWake(env core.Env) {
	env.Syscall(linuxabi.Call{Num: linuxabi.SysFutex})
}
func (futexCoster) name() string { return "futex" }

// akEventCoster binds to the AeroKernel event functions through direct
// calls on the acting thread — no kernel/user crossing, no forwarding.
type akEventCoster struct{}

func (akEventCoster) chargeWait(env core.Env) { akCall(env, "nk_event_wait") }
func (akEventCoster) chargeWake(env core.Env) { akCall(env, "nk_event_signal") }
func (akEventCoster) name() string            { return "aerokernel-events" }

func akCall(env core.Env, symbol string) {
	if _, err := env.(scheme.AKCaller).AKCall(symbol); err != nil {
		panic(fmt.Sprintf("legion: %s: %v", symbol, err))
	}
}

// batchEnv wraps a worker Env to defer Compute charges: tight per-element
// kernels (dot products, AXPYs) charge a few cycles per index, and paying
// two atomic adds per element dominates the host profile. Charges
// accumulate in a plain field and flush as one Compute at chunk end — and
// before anything that could observe the clock — so virtual time at every
// observation point is bit-identical to the unbatched schedule.
type batchEnv struct {
	core.Env
	pending cycles.Cycles
}

func (b *batchEnv) flush() {
	if b.pending > 0 {
		b.Env.Compute(b.pending)
		b.pending = 0
	}
}

func (b *batchEnv) Compute(c cycles.Cycles) { b.pending += c }

func (b *batchEnv) Clock() *cycles.Clock { b.flush(); return b.Env.Clock() }

func (b *batchEnv) Syscall(call linuxabi.Call) linuxabi.Result {
	b.flush()
	return b.Env.Syscall(call)
}

func (b *batchEnv) VDSO(num linuxabi.Sysno) (uint64, linuxabi.Errno) {
	b.flush()
	return b.Env.VDSO(num)
}

func (b *batchEnv) Touch(addr uint64, write bool) error {
	b.flush()
	return b.Env.Touch(addr, write)
}

func (b *batchEnv) CheckTimer() bool { b.flush(); return b.Env.CheckTimer() }

// worker is one runtime thread, driven as a clock context from the
// master's goroutine by the launch loop. Without the scheduler it is a
// pthread (under Multiverse, an HRT thread in its own execution group)
// that hands back its Env and parks until Shutdown; under the scheduler
// it is a nested scheduler-placed AeroKernel thread. No goroutine runs
// launch work.
type worker struct {
	id      int
	env     core.Env
	benv    *batchEnv      // Compute-batching view of env for chunk bodies
	core    machine.CoreID // placed core (scheduler mode)
	tid     int            // AeroKernel thread id, for core-occupancy bookkeeping
	release func()         // joins the pthread or retires the nested thread
	deque   deque
}

// Runtime is the mini-Legion instance.
type Runtime struct {
	env     core.Env
	coster  syncCoster
	workers []*worker
	park    chan struct{} // closed by Shutdown to release pthread workers
	closed  bool

	// Scheduler mode (core.Options.Scheduler): the workers are
	// scheduler-placed and launches run the work-stealing loop (steal.go)
	// instead of the static drain.
	sched *aerokernel.Scheduler
	// Per-launch scratch for the work-stealing loop: worker core ids and
	// the locally evolved per-core free stamps (indexed by worker, workers
	// on the same core share a value). Allocated once on first launch.
	launchCores []machine.CoreID
	launchFrees []cycles.Cycles

	// Launches counts index launches (for reporting).
	Launches int
	// SyncOps counts wake and wait operations (the hot-spot metric).
	SyncOps int
	// Steals counts work-stealing events (scheduler mode only); the
	// scheduler's sched.steal counter counts the same events.
	Steals int

	// The run's instruments, resolved once from env's telemetry scope:
	// legion.launches, legion.sync_ops and legion.solve.latency. They are
	// nil, and their updates no-ops, when env exposes no registry, and
	// they charge no virtual cycle.
	launchCtr, syncCtr *telemetry.Counter
	solveHist          *telemetry.Histogram
}

// New starts a runtime with the given number of worker threads. The
// synchronization binding is chosen by capability: AeroKernel events when
// available, futexes otherwise — the runtime-developer decision the
// accelerator model is about.
func New(env core.Env, nworkers int) (*Runtime, error) {
	if nworkers < 1 {
		return nil, fmt.Errorf("legion: need at least one worker")
	}
	rt := &Runtime{env: env, coster: futexCoster{}, park: make(chan struct{})}
	if _, ok := env.(scheme.AKCaller); ok {
		rt.coster = akEventCoster{}
	}
	if ts, ok := env.(interface{ TelemetryScope() telemetry.Scope }); ok {
		m := ts.TelemetryScope().Metrics
		rt.launchCtr, rt.syncCtr = m.Counter("legion.launches"), m.Counter("legion.sync_ops")
		rt.solveHist = m.LatencyHistogram("legion.solve.latency")
	}
	spawn := rt.spawnThread
	if host, ok := env.(core.SchedulerHost); ok && host.Scheduler() != nil {
		rt.sched = host.Scheduler()
		spawn = host.SpawnWorkerEnv
	}
	for i := 0; i < nworkers; i++ {
		wenv, coreID, release, err := spawn()
		if err != nil {
			rt.Shutdown()
			return nil, fmt.Errorf("legion: spawning worker %d: %w", i, err)
		}
		w := &worker{id: i, env: wenv, benv: &batchEnv{Env: wenv}, core: coreID, release: release}
		if ht, ok := wenv.(hrtThreader); ok {
			w.tid = ht.HRTThreadForBench().ID
		}
		rt.workers = append(rt.workers, w)
	}
	return rt, nil
}

// spawnThread creates one scheduler-off worker through env's pthread
// surface: the thread hands back its Env and parks until Shutdown.
func (rt *Runtime) spawnThread() (core.Env, machine.CoreID, func(), error) {
	ready := make(chan core.Env)
	join, err := rt.env.PthreadCreate(func(wenv core.Env) {
		ready <- wenv
		<-rt.park
	})
	if err != nil {
		return nil, 0, nil, err
	}
	return <-ready, 0, func() { join() }, nil
}

// hrtThreader recovers the AeroKernel thread behind a worker Env.
type hrtThreader interface {
	HRTThreadForBench() *aerokernel.Thread
}

// SyncBinding names the synchronization primitive in use.
func (rt *Runtime) SyncBinding() string { return rt.coster.name() }

// Workers returns the pool size.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// body is one launch's work: exactly one of fn/red is non-nil, and red
// accumulates each chunk into its own slot (slots[chunk.slot]), keeping
// reductions independent of which worker or core ran the chunk.
type body struct {
	fn    func(core.Env, int)
	red   func(core.Env, int) float64
	slots []float64
}

// run executes chunk c on w, then flushes w's batched compute charges.
func (b body) run(w *worker, c chunk) {
	if b.red != nil {
		acc := 0.0
		for idx := c.lo; idx < c.hi; idx++ {
			acc += b.red(w.benv, idx)
		}
		b.slots[c.slot] = acc
	} else {
		for idx := c.lo; idx < c.hi; idx++ {
			b.fn(w.benv, idx)
		}
	}
	w.benv.flush()
}

// launch runs one bulk-synchronous step: chunks are dealt contiguously
// into the workers' deques, then run by the static drain or, under the
// scheduler, the work-stealing loop.
func (rt *Runtime) launch(chunks []chunk, b body) {
	if rt.closed {
		panic("legion: IndexLaunch after Shutdown")
	}
	rt.Launches++
	rt.launchCtr.Inc()
	if len(chunks) == 0 {
		return
	}
	syncOps := rt.SyncOps
	p := len(rt.workers)
	for i, w := range rt.workers {
		w.deque.reset(chunks[i*len(chunks)/p : (i+1)*len(chunks)/p])
	}
	if rt.sched != nil {
		rt.stealLaunch(len(chunks), b)
	} else {
		rt.staticLaunch(b)
	}
	rt.syncCtr.Add(uint64(rt.SyncOps - syncOps))
}

// staticLaunch is the scheduler-off step with a semaphore barrier's
// costs, in virtual-time order: the master wakes each worker in id order,
// each worker drains its own deque from its wake and posts on its own
// clock, and the master pends once per post in the order the posts land
// (ties to the lower id), each pend charging its wait before it
// synchronizes past the post.
func (rt *Runtime) staticLaunch(b body) {
	clk := rt.env.Clock()
	for _, w := range rt.workers {
		rt.coster.chargeWake(rt.env)
		rt.SyncOps++
		w.env.Clock().SyncTo(clk.Now())
	}
	posts := make([]*worker, len(rt.workers))
	for i, w := range rt.workers {
		for w.deque.size() > 0 {
			b.run(w, w.deque.popBottom())
		}
		rt.coster.chargeWake(w.env)
		posts[i] = w
	}
	sort.SliceStable(posts, func(i, j int) bool {
		return posts[i].env.Clock().Now() < posts[j].env.Clock().Now()
	})
	for _, w := range posts {
		rt.coster.chargeWait(rt.env)
		rt.SyncOps++
		clk.SyncTo(w.env.Clock().Now())
	}
}

// IndexLaunch runs fn(i) for every i in [0, n) and blocks until all
// complete — one bulk-synchronous step.
func (rt *Runtime) IndexLaunch(n int, fn func(env core.Env, index int)) {
	rt.launch(chunkRanges(n), body{fn: fn})
}

// Reduce runs fn over [0, n) and returns the sum — the dot-product shape
// every CG iteration needs twice. Every chunk owns an explicit accumulator
// slot indexed by the chunk, never by the worker that happened to run it:
// under stealing, worker identity no longer equals "who computed what".
// Slots are combined in slot order over a decomposition that depends only
// on n, so the result is bit-identical whatever the worker count, the
// mode, or which cores ran which chunks.
func (rt *Runtime) Reduce(n int, fn func(env core.Env, index int) float64) float64 {
	chunks := chunkRanges(n)
	slots := make([]float64, len(chunks))
	rt.launch(chunks, body{red: fn, slots: slots})
	total := 0.0
	for _, v := range slots {
		total += v
	}
	return total
}

// Shutdown releases the workers and joins them.
func (rt *Runtime) Shutdown() {
	if rt.closed {
		return
	}
	rt.closed = true
	close(rt.park)
	for _, w := range rt.workers {
		w.release()
	}
}
