package core

import (
	"errors"
	"sync"

	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/telemetry"
)

// This file is the multi-tenant face of core.System: admission control
// (group caps and per-tenant budgets), the warm AeroKernel pool that turns
// cold-boot spawns into near-constant-time reuse, and the density counters
// every piece of it reports through.

// ErrAdmissionRejected reports that a spawn was refused by admission
// control: the system is at its configured group cap (Options.MaxGroups)
// or the tenant's budget cannot cover the group. The rejection is
// deterministic — it depends only on the live-group count and budget
// arithmetic at the program point of the spawn, never on host timing.
var ErrAdmissionRejected = errors.New("multiverse: admission rejected (tenant over budget or group cap reached)")

// TenantBudget bounds what one execution group may consume. The zero
// value of either field disables that bound. Budgets are enforced at the
// forwarding boundary — the router/channel entry in hrtEnv.Syscall — so
// an over-budget tenant is rejected before its request crosses, with a
// deterministic errno (EAGAIN for cycles, ENOMEM for memory) and zero
// virtual-cycle charge.
type TenantBudget struct {
	// MemBytes caps the bytes a group may request through boundary mmap
	// calls. Reservations are charged at request time and not refunded by
	// munmap (conservative: a tenant cannot churn its way past the cap).
	MemBytes uint64
	// Cycles caps the virtual cycles a group may spend crossing the
	// boundary (the summed latency of its forwarded system calls). Once
	// spent, further boundary calls fail with EAGAIN.
	Cycles cycles.Cycles
}

// admitSyscall is the boundary-side budget gate, called before a system
// call is dispatched. It returns the rejection result and true when the
// call must not cross. Accounting is per group in that group's own
// program order, so the decision replays exactly.
func (g *ExecutionGroup) admitSyscall(b *TenantBudget, length uint64, isMmap bool) (linuxabi.Result, bool) {
	if b.Cycles > 0 && cycles.Cycles(g.boundarySpent.Load()) >= b.Cycles {
		g.sys().density.budgetRejected.Inc()
		return linuxabi.Result{Ret: ^uint64(0), Err: linuxabi.EAGAIN}, true
	}
	if b.MemBytes > 0 && isMmap {
		if g.memReserved.Load()+length > b.MemBytes {
			g.sys().density.budgetRejected.Inc()
			return linuxabi.Result{Ret: ^uint64(0), Err: linuxabi.ENOMEM}, true
		}
		g.memReserved.Add(length)
	}
	return linuxabi.Result{}, false
}

// chargeBudget accrues one boundary crossing's latency against the
// group's cycle budget.
func (g *ExecutionGroup) chargeBudget(lat cycles.Cycles) {
	g.boundarySpent.Add(uint64(lat))
}

// ---- Warm AeroKernel pool ----------------------------------------------

// warmSlot is one parked pre-booted context: the ROS-side stack of an
// exited group's HRT thread, kept warm for the next spawn. The slot
// carries no address-space state — group-private mappings die with the
// group's channel and ring teardown, and the claim path re-applies the
// GDT/FSBase superposition — so reuse needs only a stack reset.
type warmSlot struct {
	stack *machine.Stack
}

// warmPool is the bounded pool of warm slots (Options.WarmPool). Parking
// happens in the partner's cleanup, at the exit's delivery, and charges zero
// virtual cycles (charging there would make a group's exit time depend on
// host-scheduled pool occupancy); the claimant pays the deterministic
// WarmPoolReuse cost instead.
type warmPool struct {
	mu    sync.Mutex
	slots []*warmSlot
	max   int
}

func newWarmPool(n int) *warmPool {
	return &warmPool{max: n}
}

// get claims a slot, or nil when the pool is empty.
func (p *warmPool) get() *warmSlot {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.slots) == 0 {
		return nil
	}
	s := p.slots[len(p.slots)-1]
	p.slots = p.slots[:len(p.slots)-1]
	return s
}

// put parks a slot, reporting false when the pool is full (the slot is
// dropped and its stack garbage-collected like a cold spawn's).
func (p *warmPool) put(s *warmSlot) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.slots) >= p.max {
		return false
	}
	p.slots = append(p.slots, s)
	return true
}

// size returns the current occupancy.
func (p *warmPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.slots)
}

// ---- Density accounting --------------------------------------------------

// densityStats is the registry-backed instrument set behind the mvrun
// -stats density line and the /metrics.json density.* entries. Handles
// are resolved once at system construction so the spawn path pays no
// registry lookups. Only the instruments of what the run configures are
// registered: the warm-pool set with Options.WarmPool, the admission
// counter with Options.MaxGroups, the budget counter with
// Options.TenantBudget. The others stay nil, and every increment is
// behind the same condition.
type densityStats struct {
	spawned        *telemetry.Counter // density.groups.spawned
	live           *telemetry.Gauge   // density.groups.live
	peak           *telemetry.Gauge   // density.groups.peak
	warmSize       *telemetry.Gauge   // density.warm.size
	warmHits       *telemetry.Counter // density.warm.hits
	warmMisses     *telemetry.Counter // density.warm.misses
	warmReturns    *telemetry.Counter // density.warm.returns
	warmDrops      *telemetry.Counter // density.warm.drops
	admRejected    *telemetry.Counter // density.admission.rejected
	budgetRejected *telemetry.Counter // density.budget.rejected
}

func newDensityStats(m *telemetry.Registry, opts *Options) *densityStats {
	d := &densityStats{
		spawned: m.Counter("density.groups.spawned"),
		live:    m.Gauge("density.groups.live"),
		peak:    m.Gauge("density.groups.peak"),
	}
	if opts.WarmPool > 0 {
		d.warmSize = m.Gauge("density.warm.size")
		d.warmHits = m.Counter("density.warm.hits")
		d.warmMisses = m.Counter("density.warm.misses")
		d.warmReturns = m.Counter("density.warm.returns")
		d.warmDrops = m.Counter("density.warm.drops")
	}
	if opts.MaxGroups > 0 {
		d.admRejected = m.Counter("density.admission.rejected")
	}
	if opts.TenantBudget != nil {
		d.budgetRejected = m.Counter("density.budget.rejected")
	}
	return d
}

// noteGroupLive records a successful registration: the live count rises
// and the peak gauge ratchets.
func (s *System) noteGroupLive() {
	live := s.liveGroups.Add(1)
	s.density.spawned.Inc()
	s.density.live.Set(uint64(live))
	s.density.peak.SetMax(uint64(live))
}

// noteGroupDead records a group leaving the live set (cleanup or spawn
// failure).
func (s *System) noteGroupDead() {
	live := s.liveGroups.Add(-1)
	if live < 0 {
		live = 0
	}
	s.density.live.Set(uint64(live))
}

// noteGroupMigratedIn records a group restored onto this node: the live
// count and peak move, but the spawned counter does not — the group was
// spawned (and counted) once, on its source node.
func (s *System) noteGroupMigratedIn() {
	live := s.liveGroups.Add(1)
	s.density.live.Set(uint64(live))
	s.density.peak.SetMax(uint64(live))
}

// takeWarmSlot claims a warm slot for a spawn. It returns nil — and the
// spawn falls back to the cold-boot path — when the pool is off, empty,
// or the AeroKernel has halted (a warm claim must not outlive the kernel
// the slots were booted on; the cold path fails with the proper error).
func (s *System) takeWarmSlot() *warmSlot {
	if s.pool == nil {
		return nil
	}
	if s.AK == nil || s.AK.Halted() {
		return nil
	}
	slot := s.pool.get()
	if slot == nil {
		s.density.warmMisses.Inc()
		return nil
	}
	s.density.warmHits.Inc()
	s.density.warmSize.Set(uint64(s.pool.size()))
	return slot
}

// parkWarmSlot returns an exiting group's context to the pool. Degraded
// groups are never parked (their stack may be mid-protocol with a dead
// partner); beyond-capacity returns are dropped and counted.
func (g *ExecutionGroup) parkWarmSlot() {
	s := g.sys()
	if s.pool == nil || g.degraded.Load() || g.akStack == nil {
		return
	}
	if s.pool.put(&warmSlot{stack: g.akStack}) {
		s.density.warmReturns.Inc()
		s.density.warmSize.Set(uint64(s.pool.size()))
	} else {
		s.density.warmDrops.Inc()
	}
}

// WarmPoolSize reports the current warm-pool occupancy (0 when off).
func (s *System) WarmPoolSize() int {
	if s.pool == nil {
		return 0
	}
	return s.pool.size()
}

// LiveGroups returns the number of currently live execution groups (the
// admission-control view; Groups() walks the registry instead).
func (s *System) LiveGroups() int { return int(s.liveGroups.Load()) }

// GroupTableSize returns the number of registry entries, live or dead —
// what the leak regression pins: spawn+join must not grow it.
func (s *System) GroupTableSize() int { return s.groups.size() }
