package aerokernel

import (
	"sync"

	"multiverse/internal/cycles"
	"multiverse/internal/machine"
	"multiverse/internal/telemetry"
)

// defaultSpinWindow is how long (in virtual cycles) an idle core spins
// polling its run queue before executing hlt. A placement or steal that
// arrives inside the window costs nothing extra; one that arrives later
// must kick the core (VecSchedKick IPI) and pay the hlt wakeup.
const defaultSpinWindow cycles.Cycles = 20_000

// QueueEntry is one slot in a per-core run queue. Entries form a chain in
// placement order; a thread starting on a core waits for its nearest
// non-ancestor predecessor to release the core and syncs its clock past
// that release — same-core threads serialize in virtual time, so
// parallelism is modeled, never assumed from host goroutine interleaving.
type QueueEntry struct {
	core    machine.CoreID
	creator *QueueEntry // entry of the creating thread, if it has one
	prev    *QueueEntry // previous placement on the same core

	once    sync.Once
	done    chan struct{}
	release cycles.Cycles // core-release stamp; valid once done is closed
}

// finish publishes the entry's release stamp (idempotent).
func (e *QueueEntry) finish(at cycles.Cycles) {
	e.once.Do(func() {
		e.release = at
		close(e.done)
	})
}

// Core returns the core this entry was placed on.
func (e *QueueEntry) Core() machine.CoreID { return e.core }

// schedCore is the scheduler's per-core state.
type schedCore struct {
	id     machine.CoreID
	load   int           // live placed threads (queue + nested workers)
	placed int           // cumulative placements; never decremented
	freeAt cycles.Cycles // release stamp of the last burst/thread that ran here
	tail   *QueueEntry   // most recent queue placement (retired entries stay linked)
}

// Scheduler implements per-core run queues with deterministic virtual-time
// accounting, least-loaded placement, burst serialization for legion's
// work-stealing tasks, and the spin-then-halt idle policy. It only exists
// when core.Options.Scheduler is on; every cost it charges goes to the
// clock of the context that *observes* the latency, so host scheduling
// cannot leak into virtual time.
type Scheduler struct {
	k          *Kernel
	spinWindow cycles.Cycles

	mu    sync.Mutex
	cores []machine.CoreID
	state map[machine.CoreID]*schedCore

	placeCtr  *telemetry.Counter
	stealCtr  *telemetry.Counter
	haltCtr   *telemetry.Counter
	delayHist *telemetry.Histogram
}

func newScheduler(k *Kernel) *Scheduler {
	s := &Scheduler{
		k:          k,
		spinWindow: defaultSpinWindow,
		cores:      append([]machine.CoreID(nil), k.cores...),
		state:      make(map[machine.CoreID]*schedCore),
		placeCtr:   k.metrics.Counter("sched.place"),
		stealCtr:   k.metrics.Counter("sched.steal"),
		haltCtr:    k.metrics.Counter("sched.idle.halt"),
		delayHist:  k.metrics.LatencyHistogram("sched.queue.delay"),
	}
	for _, c := range s.cores {
		s.state[c] = &schedCore{id: c}
	}
	return s
}

// SpinWindow returns the idle-spin window before a core halts.
func (s *Scheduler) SpinWindow() cycles.Cycles { return s.spinWindow }

// Load returns the live placed-thread count on a core.
func (s *Scheduler) Load(c machine.CoreID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs := s.state[c]; cs != nil {
		return cs.load
	}
	return 0
}

// leastLoadedLocked picks the core with the fewest cumulative placements,
// breaking ties by lowest core id (s.cores is in id order). The count is
// never decremented: live load decays when a thread retires, which happens
// at host real time, so balancing on it would make placement depend on how
// far concurrently running threads happen to have progressed. Cumulative
// counts are a pure function of program creation order — placement is the
// static half of load balancing; the work-stealing deques rebalance any
// imbalance that develops at run time.
func (s *Scheduler) leastLoadedLocked() *schedCore {
	var best *schedCore
	for _, c := range s.cores {
		cs := s.state[c]
		if best == nil || cs.placed < best.placed {
			best = cs
		}
	}
	return best
}

// PlaceTopLevel picks a core for a new top-level thread, chains a run-queue
// entry behind the core's current tail, and charges the enqueue cost to the
// creator. creator (the thread executing the spawn) may be nil; if it has a
// queue entry of its own, that entry is recorded so descendants can skip
// ancestors when they wait for the core — a creator may legitimately block
// on its child (places join) and must not deadlock the queue.
func (s *Scheduler) PlaceTopLevel(clk *cycles.Clock, creator *Thread) (machine.CoreID, *QueueEntry) {
	s.mu.Lock()
	cs := s.leastLoadedLocked()
	cs.load++
	cs.placed++
	e := &QueueEntry{core: cs.id, prev: cs.tail, done: make(chan struct{})}
	if creator != nil {
		e.creator = creator.queueEntry()
	}
	cs.tail = e
	s.mu.Unlock()
	clk.Advance(s.k.cost.SchedEnqueue)
	s.placeCtr.Inc()
	return cs.id, e
}

// CancelEntry unwinds a placement whose thread never started (spawn
// failure): the load is released and the entry resolves with a zero
// release stamp so successors do not wait on it.
func (s *Scheduler) CancelEntry(e *QueueEntry) {
	if e == nil {
		return
	}
	s.mu.Lock()
	if cs := s.state[e.core]; cs != nil {
		cs.load--
	}
	s.mu.Unlock()
	e.finish(0)
}

// PlaceNested picks a core for a nested thread (least-loaded, tie lowest
// id) and charges the enqueue cost to the creating thread's clock.
func (s *Scheduler) PlaceNested(clk *cycles.Clock) machine.CoreID {
	s.mu.Lock()
	cs := s.leastLoadedLocked()
	cs.load++
	cs.placed++
	s.mu.Unlock()
	clk.Advance(s.k.cost.SchedEnqueue)
	s.placeCtr.Inc()
	return cs.id
}

// ReleaseNested drops the load a PlaceNested placement charged to a core.
func (s *Scheduler) ReleaseNested(c machine.CoreID) {
	s.mu.Lock()
	if cs := s.state[c]; cs != nil {
		cs.load--
	}
	s.mu.Unlock()
}

// waitTurn serializes a queued thread behind its core's previous occupant:
// it blocks (host time) until the nearest non-ancestor predecessor
// releases the core, then syncs the thread's clock past that release. If
// instead the core had been free for longer than the spin window, the core
// halted and this thread's placement pays the kick + wakeup.
func (s *Scheduler) waitTurn(t *Thread) {
	e := t.queueEntry()
	if e == nil {
		return
	}
	anc := make(map[*QueueEntry]bool)
	for a := e.creator; a != nil; a = a.creator {
		anc[a] = true
	}
	p := e.prev
	for p != nil && anc[p] {
		p = p.prev
	}
	ready := t.Clock.Now()
	var idleSince cycles.Cycles // when the core last went free (boot = 0)
	if p != nil {
		<-p.done
		idleSince = p.release
	}
	if idleSince > ready {
		// Core still busy at our ready time: serialize behind the occupant.
		t.Clock.SyncTo(idleSince)
	} else if ready > idleSince+s.spinWindow {
		// The core exhausted its spin window waiting and executed hlt;
		// the woken side observes the kick IPI plus the hlt exit latency.
		s.k.m.Core(e.core).SetHalted(true)
		s.k.m.KickCore(t.Clock, e.core)
		t.Clock.Advance(s.k.cost.IdleHaltWake)
		s.haltCtr.Inc()
	}
	s.delayHist.Observe(t.Clock.Now() - ready)
	s.k.m.Core(e.core).SetOccupant(t.ID)
}

// threadRetired releases a queued thread's core: records the release
// stamp, folds it into the core's free time, and resolves the entry so
// successors can start.
func (s *Scheduler) threadRetired(t *Thread) {
	e := t.queueEntry()
	if e == nil {
		return
	}
	at := t.Clock.Now()
	s.mu.Lock()
	if cs := s.state[e.core]; cs != nil {
		cs.load--
		if cs.freeAt < at {
			cs.freeAt = at
		}
	}
	s.mu.Unlock()
	core := s.k.m.Core(e.core)
	if core.Occupant() == t.ID {
		core.SetOccupant(0)
	}
	e.finish(at)
}

// FreeSnapshot reads each core's current freeAt stamp — the stamp at which
// the core's last recorded burst or queued thread released it — in one
// lock round trip, filling out (which must be len(cores)). Together with
// BurstStartAt/BurstEndAt/PublishFreeAt it lets a launch executor that
// owns a batch of bursts simulate the whole schedule against local state
// instead of paying one lock round trip per event.
func (s *Scheduler) FreeSnapshot(cores []machine.CoreID, out []cycles.Cycles) {
	s.mu.Lock()
	for i, c := range cores {
		if cs := s.state[c]; cs != nil {
			out[i] = cs.freeAt
		} else {
			out[i] = 0
		}
	}
	s.mu.Unlock()
}

// PublishFreeAt folds locally simulated release stamps back into the
// per-core state (monotone max) in one lock round trip.
func (s *Scheduler) PublishFreeAt(cores []machine.CoreID, frees []cycles.Cycles) {
	s.mu.Lock()
	for i, c := range cores {
		if cs := s.state[c]; cs != nil && cs.freeAt < frees[i] {
			cs.freeAt = frees[i]
		}
	}
	s.mu.Unlock()
}

// BurstStartAt begins one work-stealing task burst on a core against a
// caller-tracked free stamp: the bursting context's clock serializes
// behind whatever last ran there, and if the core instead sat idle past
// the spin window it is kicked out of hlt, the woken side paying the IPI
// and wakeup. tid is recorded as the core's occupant for fault-routing
// visibility. No scheduler lock is taken: valid only while the caller
// owns the core's burst schedule (nothing else starts or ends bursts on
// it) and publishes the final stamps via PublishFreeAt.
func (s *Scheduler) BurstStartAt(c machine.CoreID, clk *cycles.Clock, tid int, free cycles.Cycles) {
	ready := clk.Now()
	if free > ready {
		clk.SyncTo(free)
	} else if ready > free+s.spinWindow {
		s.k.m.Core(c).SetHalted(true)
		s.k.m.KickCore(clk, c)
		clk.Advance(s.k.cost.IdleHaltWake)
		s.haltCtr.Inc()
	}
	s.k.m.Core(c).SetOccupant(tid)
}

// BurstEndAt releases the core at the bursting clock's current time,
// returning the release stamp for the caller's local free tracking.
func (s *Scheduler) BurstEndAt(c machine.CoreID, clk *cycles.Clock) cycles.Cycles {
	s.k.m.Core(c).SetOccupant(0)
	return clk.Now()
}

// ChargeEnqueue charges n deque pushes to clk (the launching context pays
// for populating the per-worker deques).
func (s *Scheduler) ChargeEnqueue(clk *cycles.Clock, n int) {
	clk.Advance(cycles.Cycles(n) * s.k.cost.SchedEnqueue)
}

// ChargeSteal charges one Chase–Lev steal to the thief's clock: the CAS on
// the victim's top pointer, plus an IPI-class kick when the victim deque
// lives on another core's cache domain.
func (s *Scheduler) ChargeSteal(clk *cycles.Clock, crossCore bool) {
	clk.Advance(s.k.cost.SchedSteal)
	if crossCore {
		clk.Advance(s.k.cost.IPIKick)
	}
	s.stealCtr.Inc()
}

// ObserveQueueDelay records one task's enqueue-to-start latency.
func (s *Scheduler) ObserveQueueDelay(d cycles.Cycles) {
	if d < 0 {
		d = 0
	}
	s.delayHist.Observe(d)
}
