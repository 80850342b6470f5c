package hvm

import (
	"strings"
	"sync"

	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/telemetry"
)

// SyscallRouter is the adaptive boundary-crossing fast path of one
// execution group. The paper's Figure 2 prices the asynchronous
// event-channel round trip at ~25K cycles and the synchronous
// memory-polling path at ~790/1060 cycles, and section 4.3 frames sync
// forwarding as a stepping stone toward servicing events locally in the
// HRT. The router takes that step: instead of paying the worst-case
// forwarding path for every system call, it routes each call through the
// cheapest tier that can answer it correctly:
//
//	tier 0 (HRT-local): pure, process-invariant calls (getpid,
//	  clock_gettime, gettimeofday, uname, getcwd) are answered from
//	  state mirrored into the HRT at router creation — vDSO-style, zero
//	  boundary crossings.
//	tier 1 (result cache): idempotent read-only calls (stat, fstat,
//	  position-query lseek, brk(0)) are served from a result cache. Each
//	  entry keeps the ROS generation stamp of the state it describes,
//	  read before the call crossed; the ROS kernel restamps that state on
//	  every mutation, so a cached stat never survives a write to the file
//	  it describes.
//	tier 2 (transport): everything else forwards — over the group's
//	  asynchronous event channel by default, or over a synchronous
//	  memory-polling channel while the group is promoted.
//	tier 3 (exitless): a sustained forward rate dedicates the partner to
//	  polling a pair of SPSC shared-memory rings, so steady-state
//	  forwarding takes zero VM exits ("Look Mum, no VM Exits!");
//	  hypercalls remain only for ring setup/teardown and kill recovery.
//
// Promotion is dynamic: tiers 2 and 3 are two rungs of one ladder, each
// a PolledChannel of its own kind. The router tracks the group's
// forwarding rate in virtual time, promotes a hot group onto a rung
// mid-run (burning a ROS polling core only while it pays for itself), and
// demotes it again after an idle gap. All decisions depend only on
// virtual time and the call stream, so routing is as deterministic as the
// run itself.
type SyscallRouter struct {
	hvm     *HVM
	hrtCore machine.CoreID
	policy  RouterPolicy
	local   RouterLocalState

	mu     sync.Mutex
	stamps StampSource
	cache  map[routerCacheKey]cachedResult
	closed bool

	// sync and ring are the ladder's two polled rungs (mu-guarded):
	// tier 2's synchronous channel and tier 3's exitless rings.
	sync, ring rung

	// Tier-2 fault-policy state (mu-guarded): lossRun counts consecutive
	// lossy async forwards, cleanRun consecutive clean sync calls, and
	// lossSync marks that the current sync channel exists for reliability
	// — the idle-demotion rule must not tear it down while losses may
	// recur.
	lossRun  int
	cleanRun int
	lossSync bool

	// Tier-3 fault-policy state (mu-guarded), untouched while the ring
	// rung has no hooks. ringHold latches after a fault-pressure
	// demotion: re-promotion waits for CleanStreak clean tier-2 forwards
	// (hypercall-mode recovery), and ringWasLossy makes that next
	// promotion count as a re-promotion.
	ringLossRun  int
	ringClean    int
	ringHold     bool
	ringWasLossy bool
}

// routerHandles are the routers' per-call metric handles, resolved on
// first use: counters and histograms by name, and tier 0's per-call
// counters by number. They live on the HVM, whose registry they name, so
// every group's router shares them and a new group's router starts warm.
type routerHandles struct {
	counters telemetry.Handles[string, *telemetry.Counter]
	hists    telemetry.Handles[string, *telemetry.Histogram]
	localBy  telemetry.Handles[linuxabi.Sysno, *telemetry.Counter]
}

// counter returns the router's handle for the named counter.
func (r *SyscallRouter) counter(name string) *telemetry.Counter {
	return r.hvm.routerHandles.counters.Get(name, func() *telemetry.Counter { return r.hvm.metrics.Counter(name) })
}

// histogram returns the router's handle for the named latency histogram.
func (r *SyscallRouter) histogram(name string) *telemetry.Histogram {
	return r.hvm.routerHandles.hists.Get(name, func() *telemetry.Histogram { return r.hvm.metrics.LatencyHistogram(name) })
}

// localCounter returns tier 0's counter for one system call number.
func (r *SyscallRouter) localCounter(num linuxabi.Sysno) *telemetry.Counter {
	return r.hvm.routerHandles.localBy.Get(num, func() *telemetry.Counter {
		return r.hvm.metrics.Counter("router.local." + num.String())
	})
}

// rung is one polled transport of the promotion ladder: its hooks, its
// promoted channel, and the rate window and idle clock that move it.
type rung struct {
	kind PollKind
	// open sets up a channel and its dedicated ROS poller; close tears
	// them down. A rung without hooks never promotes.
	open  func(clk *cycles.Clock, kind PollKind) (*PolledChannel, error)
	close func(clk *cycles.Clock, ch *PolledChannel)
	// ch is the promoted channel; only open creates one, so a non-nil ch
	// implies the hooks are installed.
	ch *PolledChannel
	// recent holds the virtual times of the last calls forwards (oldest
	// first) while the rung waits; last is the latest forward it carried,
	// the clock idle demotion reads. (A sync channel promoted outside the
	// rate window, for reliability, is idle-exempt for its whole life, so
	// for the sync rung last is the latest tier-2 forward whenever idle
	// demotion can fire.)
	recent []cycles.Cycles
	last   cycles.Cycles

	calls        int
	window, idle cycles.Cycles
	// promoted and demoted are the rate-promotion and idle-demotion
	// events.
	promoted, demoted routerEvent
}

// step advances the rung's rate window and idle clock for one forward at
// now, with the router's lock held. keep exempts a promoted channel from
// idle demotion; hold blocks promotion. It returns the channel an idle
// gap demoted, for the caller to close outside the lock, and whether the
// window filled, in which case the caller opens a channel.
func (g *rung) step(now cycles.Cycles, keep, hold bool) (idled *PolledChannel, fill bool) {
	if g.ch != nil && !keep && g.last > 0 && now-g.last >= g.idle {
		idled, g.ch = g.ch, nil
		g.recent = g.recent[:0]
	}
	if g.ch != nil {
		g.last = now
		return idled, false
	}
	if hold {
		return idled, false
	}
	g.recent = append(g.recent, now)
	if len(g.recent) > g.calls {
		// Slide the window within its backing array, which a reslice
		// would walk off the end of and reallocate.
		g.recent = g.recent[:copy(g.recent, g.recent[len(g.recent)-g.calls:])]
	}
	if len(g.recent) < g.calls || now-g.recent[0] > g.window {
		return idled, false
	}
	g.recent = g.recent[:0]
	return idled, true
}

// routerEvent is one ladder transition as the three telemetry planes see
// it: a metric counter, a trace instant on the HRT track, and a
// flight-recorder code.
type routerEvent struct {
	metric, instant string
	rec             telemetry.EventCode
}

var (
	evPromote       = routerEvent{"router.promotions", "channel-promote", telemetry.RecPromote}
	evDemote        = routerEvent{"router.demotions", "channel-demote", telemetry.RecDemote}
	evLossSync      = routerEvent{"router.fault_demotions", "channel-demote-lossy", telemetry.RecDemoteLossy}
	evCleanAsync    = routerEvent{"router.fault_repromotions", "channel-repromote", telemetry.RecRepromote}
	evRingPromote   = routerEvent{"router.tier3.promotions", "ring-promote", telemetry.RecRingPromote}
	evRingRepromote = routerEvent{"router.tier3.repromotions", "ring-repromote", telemetry.RecRingRepromote}
	evRingDemote    = routerEvent{"router.tier3.demotions", "ring-demote", telemetry.RecRingDemote}
	evRingLossy     = routerEvent{"router.tier3.fault_demotions", "ring-demote-lossy", telemetry.RecRingDemoteLossy}
)

// event publishes one ladder transition at clk's current time.
func (r *SyscallRouter) event(clk *cycles.Clock, ev routerEvent) {
	now := clk.Now()
	r.hvm.metrics.Counter(ev.metric).Inc()
	r.hvm.tracer.Instant(telemetry.Track{Core: int(r.hrtCore), Name: "hrt"}, "router", ev.instant, now)
	r.hvm.recorder.Record(now, ev.rec, uint64(r.hrtCore), 0, 0, 0)
}

// RouterPolicy tunes the dynamic sync/async channel promotion.
type RouterPolicy struct {
	// PromoteCalls forwards within PromoteWindow of virtual time promote
	// the group to the synchronous channel.
	PromoteCalls  int
	PromoteWindow cycles.Cycles
	// DemoteIdle is the virtual-time gap since the last forward that
	// demotes the group back to the asynchronous channel (checked on the
	// next call, which is the first moment the HRT thread is active
	// again).
	DemoteIdle cycles.Cycles

	// Fault policy (active only when the fault plane is armed):
	// LossStreak consecutive lossy async forwards (at least one
	// retransmission each) demote the channel to the synchronous
	// memory-polling path, whose cacheline protocol rides out a flaky
	// notification plane; CleanStreak consecutive clean sync calls
	// re-promote it to the cheaper-per-idle async channel.
	LossStreak  int
	CleanStreak int

	// Tier-3 exitless policy: RingCalls forwards within RingWindow of
	// virtual time promote the group to the polled SPSC rings
	// (dedicating the partner to the poll loop); RingIdle of silence
	// exhausts the poll budget and demotes back to tier 2;
	// RingLossStreak consecutive lossy ring calls demote under fault
	// pressure. Re-promotion after a fault demotion reuses CleanStreak.
	RingCalls      int
	RingWindow     cycles.Cycles
	RingIdle       cycles.Cycles
	RingLossStreak int
}

// DefaultRouterPolicy promotes after a burst of 32 forwards inside ~1ms of
// virtual time and demotes after ~10ms of silence. At Figure 2's prices a
// promotion (one setup hypercall + one ROS thread creation, ~39K cycles)
// amortizes in two forwarded calls, so the threshold is deliberately
// conservative rather than tight.
func DefaultRouterPolicy() RouterPolicy {
	return RouterPolicy{
		PromoteCalls:  32,
		PromoteWindow: 2_200_000,  // 1 ms at 2.2 GHz
		DemoteIdle:    22_000_000, // 10 ms at 2.2 GHz
		LossStreak:    3,
		CleanStreak:   64,

		RingCalls:      64,         // sustained, not just hot: 2x the sync burst
		RingWindow:     13_200_000, // 6 ms at 2.2 GHz
		RingIdle:       11_000_000, // 5 ms poll budget at 2.2 GHz
		RingLossStreak: 2,
	}
}

func (p *RouterPolicy) fill() {
	d := DefaultRouterPolicy()
	if p.PromoteCalls <= 0 {
		p.PromoteCalls = d.PromoteCalls
	}
	if p.PromoteWindow <= 0 {
		p.PromoteWindow = d.PromoteWindow
	}
	if p.DemoteIdle <= 0 {
		p.DemoteIdle = d.DemoteIdle
	}
	if p.LossStreak <= 0 {
		p.LossStreak = d.LossStreak
	}
	if p.CleanStreak <= 0 {
		p.CleanStreak = d.CleanStreak
	}
	if p.RingCalls <= 0 {
		p.RingCalls = d.RingCalls
	}
	if p.RingWindow <= 0 {
		p.RingWindow = d.RingWindow
	}
	if p.RingIdle <= 0 {
		p.RingIdle = d.RingIdle
	}
	if p.RingLossStreak <= 0 {
		p.RingLossStreak = d.RingLossStreak
	}
}

// RouterLocalState is the ROS process state mirrored into the HRT when the
// router is created — the data page tier 0 reads instead of crossing. It
// is the same superposition idea the GDT/TLS mirroring uses: state that is
// process-invariant can be replicated once and consulted locally forever
// after. (The ROS has no chdir, so the working directory is invariant.)
type RouterLocalState struct {
	PID   uint64
	Cwd   string
	Uname string
}

// routerCacheKey identifies one cached idempotent result.
type routerCacheKey struct {
	kind uint8
	fd   int
	path string
}

const (
	ckStat uint8 = iota + 1
	ckFstat
	ckLseek
	ckBrk
)

// cachedResult is one tier-1 entry: the result and the generation stamp
// its state had before the call that produced it crossed.
type cachedResult struct {
	res   linuxabi.Result
	stamp uint64
}

// StampSource publishes the ROS generation stamps tier-1 entries are
// checked against (*ros.Process implements it). A stamp changes on every
// mutation of the state it describes and never returns to an earlier
// value.
type StampSource interface {
	FDStamp(fd int) uint64
	PathStamp(path string) uint64
	BrkStamp() uint64
}

// stampOf reads the current stamp of the state key's result describes:
// the fd for fstat and lseek, the path for stat, the break for brk.
// Callers hold r.mu.
func (r *SyscallRouter) stampOf(key routerCacheKey) uint64 {
	switch key.kind {
	case ckStat:
		return r.stamps.PathStamp(key.path)
	case ckBrk:
		return r.stamps.BrkStamp()
	default:
		return r.stamps.FDStamp(key.fd)
	}
}

// NewSyscallRouter builds a router over the HVM's cost model and
// telemetry. local mirrors the owning process's state at creation time.
func NewSyscallRouter(h *HVM, hrtCore machine.CoreID, local RouterLocalState, policy RouterPolicy) *SyscallRouter {
	policy.fill()
	return &SyscallRouter{
		hvm:     h,
		hrtCore: hrtCore,
		policy:  policy,
		local:   local,
		cache:   make(map[routerCacheKey]cachedResult),
		sync: rung{kind: PollSync, calls: policy.PromoteCalls, window: policy.PromoteWindow,
			idle: policy.DemoteIdle, promoted: evPromote, demoted: evDemote},
		ring: rung{kind: PollRing, calls: policy.RingCalls, window: policy.RingWindow,
			idle: policy.RingIdle, promoted: evRingPromote, demoted: evRingDemote},
	}
}

// SetStamps binds tier 1 to the ROS process hosting the group, whose
// generation stamps decide whether a cached result is still current. It
// must be called before the first cacheable call, and again after the
// group moves to another process.
func (r *SyscallRouter) SetStamps(src StampSource) {
	r.mu.Lock()
	r.stamps = src
	r.mu.Unlock()
}

// SetPollHooks installs the callbacks that open a polled channel (and
// its dedicated ROS poller) on promotion and close it on demotion. The
// sync rung always takes them; the ring rung only when exitless is set —
// without it the router never reaches tier 3 and the tier-2 paths are
// bit-for-bit what they were. Without hooks the router never promotes (it
// still serves tiers 0 and 1).
func (r *SyscallRouter) SetPollHooks(
	open func(clk *cycles.Clock, kind PollKind) (*PolledChannel, error),
	close func(clk *cycles.Clock, ch *PolledChannel),
	exitless bool,
) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sync.open, r.sync.close = open, close
	if exitless {
		r.ring.open, r.ring.close = open, close
	}
}

// Dispatch routes one system call from the HRT thread. It returns the
// result, whether the call crossed the boundary, and a transport error (a
// closed channel) if any. clk is the HRT thread's clock; each tier charges
// its own virtual cost to it. reqID is the causal request id allocated at
// the syscall entry; it rides every hop the call takes (0 = untracked
// control traffic).
func (r *SyscallRouter) Dispatch(clk *cycles.Clock, ch *EventChannel, call linuxabi.Call, reqID uint64) (linuxabi.Result, bool, error) {
	cost := r.hvm.cost
	rec := r.hvm.recorder

	// Tier 0: HRT-local service from mirrored state.
	if res, ok := r.serveLocal(clk, call); ok {
		r.counter("router.local_hits").Inc()
		r.localCounter(call.Num).Inc()
		r.histogram("router.local.latency").Observe(cost.HRTLocalSyscall)
		rec.Record(clk.Now(), telemetry.RecTierLocal, uint64(r.hrtCore), reqID, uint64(call.Num), 0)
		return res, false, nil
	}

	// Tier 1: result cache for idempotent read-only calls. The stamp is
	// read before the call crosses, so a mutation that lands while the
	// fill is in flight leaves the new entry stale, not current.
	if key, cacheable := r.cacheKeyOf(call); cacheable {
		clk.Advance(cost.SyscallCacheProbe)
		r.mu.Lock()
		stamp := r.stampOf(key)
		e, found := r.cache[key]
		stale := found && e.stamp != stamp
		if stale {
			delete(r.cache, key)
		}
		r.mu.Unlock()
		if found && !stale {
			clk.Advance(cost.SyscallCacheHit)
			r.counter("router.cache_hits").Inc()
			r.histogram("router.cache_hit.latency").Observe(cost.SyscallCacheProbe + cost.SyscallCacheHit)
			rec.Record(clk.Now(), telemetry.RecTierCache, uint64(r.hrtCore), reqID, uint64(call.Num), 0)
			return e.res, false, nil
		}
		if stale {
			r.counter("router.cache_invalidations").Inc()
		}
		r.counter("router.cache_misses").Inc()
		res, err := r.forward(clk, ch, frame{call: call}, reqID)
		if err == nil && res.Err == linuxabi.OK {
			r.mu.Lock()
			if !r.closed {
				r.cache[key] = cachedResult{res: res, stamp: stamp}
			}
			r.mu.Unlock()
		}
		return res, true, err
	}

	// Tier 2: forward.
	res, err := r.forward(clk, ch, frame{call: call}, reqID)
	return res, true, err
}

// serveLocal answers tier-0 calls. getpid/uname/getcwd come from the
// mirrored state; the two time calls read the HRT thread's own virtual
// clock, exactly as a vdso page mapped into the merged address space
// would.
func (r *SyscallRouter) serveLocal(clk *cycles.Clock, call linuxabi.Call) (linuxabi.Result, bool) {
	serve := func(res linuxabi.Result) (linuxabi.Result, bool) {
		clk.Advance(r.hvm.cost.HRTLocalSyscall)
		return res, true
	}
	switch call.Num {
	case linuxabi.SysGetpid:
		return serve(linuxabi.Result{Ret: r.local.PID, Err: linuxabi.OK})
	case linuxabi.SysClockGettime:
		clk.Advance(r.hvm.cost.HRTLocalSyscall)
		return linuxabi.Result{Ret: uint64(clk.Now().Nanoseconds()), Err: linuxabi.OK}, true
	case linuxabi.SysGettimeofday:
		clk.Advance(r.hvm.cost.HRTLocalSyscall)
		return linuxabi.Result{Ret: uint64(clk.Now().Microseconds()), Err: linuxabi.OK}, true
	case linuxabi.SysUname:
		return serve(linuxabi.Result{Ret: 0, Err: linuxabi.OK, Data: []byte(r.local.Uname)})
	case linuxabi.SysGetcwd:
		cwd := r.local.Cwd
		return serve(linuxabi.Result{Ret: uint64(len(cwd)), Err: linuxabi.OK, Data: []byte(cwd)})
	}
	return linuxabi.Result{}, false
}

// cacheKeyOf classifies tier-1 calls. Only genuinely idempotent shapes
// cache: stat by path, fstat by fd, the position query lseek(fd, 0,
// SEEK_CUR), and the break query brk(0).
func (r *SyscallRouter) cacheKeyOf(call linuxabi.Call) (routerCacheKey, bool) {
	switch call.Num {
	case linuxabi.SysStat:
		return routerCacheKey{kind: ckStat, path: r.resolvePath(call.Path)}, true
	case linuxabi.SysFstat:
		return routerCacheKey{kind: ckFstat, fd: int(call.Args[0])}, true
	case linuxabi.SysLseek:
		if call.Args[1] == 0 && call.Args[2] == linuxabi.SeekCur {
			return routerCacheKey{kind: ckLseek, fd: int(call.Args[0])}, true
		}
	case linuxabi.SysBrk:
		if call.Args[0] == 0 {
			return routerCacheKey{kind: ckBrk}, true
		}
	}
	return routerCacheKey{}, false
}

// resolvePath makes a path absolute against the mirrored cwd, so relative
// and absolute names of one file share a cache key and a path stamp.
func (r *SyscallRouter) resolvePath(path string) string {
	if strings.HasPrefix(path, "/") {
		return path
	}
	if r.local.Cwd == "/" {
		return "/" + path
	}
	return r.local.Cwd + "/" + path
}

// ForwardFault forwards one page fault from the HRT thread at clk and
// reports whether the ROS resolved it. A fault is a forward like any
// other: it climbs the same rungs as a system call, in a fault frame of
// its own, feeds the same promotion windows, idle clocks and fault
// policies, and takes the ~25K-cycle event channel only when no rung is
// promoted. reqID is the causal request id the fault handler allocated.
func (r *SyscallRouter) ForwardFault(clk *cycles.Clock, ch *EventChannel, addr uint64, write bool, reqID uint64) (bool, error) {
	res, err := r.forward(clk, ch, frame{fault: true, addr: addr, write: write}, reqID)
	return err == nil && res.Err == linuxabi.OK, err
}

// forward crosses the boundary over the cheapest promoted transport:
// the tier-3 exitless rings when promoted, else tier 2 — the
// synchronous channel if promoted, the event channel otherwise. The
// router.forward.<transport> counters count system calls only; a fault
// frame is counted by its transport's fault metrics.
func (r *SyscallRouter) forward(clk *cycles.Clock, ch *EventChannel, fr frame, reqID uint64) (linuxabi.Result, error) {
	if x := r.climb(clk, &r.ring); x != nil {
		res, retx, err := x.roundTrip(clk, fr, reqID)
		if err == nil {
			if !fr.fault {
				r.counter("router.forward.ring").Inc()
			}
			r.noteRingTransport(clk, retx)
			return res, nil
		}
		// The rings died mid-call (partner kill or shutdown): tear them
		// down via the recovery hypercall and re-route this call over
		// the hypercall-mode tier-2 transports.
		r.ringDown(clk)
	}
	if sc := r.climb(clk, &r.sync); sc != nil {
		res, retx, err := sc.roundTrip(clk, fr, reqID)
		if err == nil {
			if !fr.fault {
				r.counter("router.forward.sync").Inc()
			}
			r.noteTransport(clk, retx, true)
			return res, nil
		}
		// Another thread of the group demoted the channel before this
		// call reached it, so nothing served the call: forward it over
		// the event channel.
	}
	if ch == nil {
		return linuxabi.Result{Ret: ^uint64(0), Err: linuxabi.ENOSYS}, nil
	}
	var rep Reply
	var err error
	if fr.fault {
		rep, err = ch.ForwardFault(clk, fr.addr, fr.write, reqID)
	} else {
		env := ch.NewEnvelope()
		env.Kind = EvSyscall
		env.Call = fr.call
		env.ReqID = reqID
		rep, err = ch.Forward(clk, env)
	}
	if err != nil {
		return linuxabi.Result{}, err
	}
	if fr.fault {
		rep.Res = faultResult(rep.FaultOK)
	} else {
		r.counter("router.forward.async").Inc()
	}
	r.noteTransport(clk, rep.Retransmits, false)
	return rep.Res, nil
}

// climb runs one rung's promotion policy for a forward at the caller's
// virtual time and returns the rung's channel to use (nil = fall through
// to the rung below). Only the owning HRT thread climbs, so decisions are
// serialized by construction; the lock only guards against concurrent
// checkpoints and harness reads. A rung without hooks returns at once
// without touching any state, keeping the dark path byte-identical.
//
// The rungs differ in three rules. A reliability-promoted sync channel
// (lossSync) is exempt from idle demotion: only a clean window may undo
// it. The rings never promote during a recovery hold or over a
// reliability sync channel. And a ring promotion first gives a promoted
// sync channel's polling core back, since the ring poller takes over the
// partner.
func (r *SyscallRouter) climb(clk *cycles.Clock, g *rung) *PolledChannel {
	now := clk.Now()
	r.mu.Lock()
	if g.open == nil {
		r.mu.Unlock()
		return nil
	}
	tier3 := g == &r.ring
	idled, fill := g.step(now, !tier3 && r.lossSync, tier3 && (r.ringHold || r.lossSync))
	var displaced *PolledChannel
	if fill && tier3 {
		displaced, r.sync.ch = r.sync.ch, nil
		r.sync.recent = r.sync.recent[:0]
	}
	x, open, close, closeSync := g.ch, g.open, g.close, r.sync.close
	r.mu.Unlock()

	if idled != nil {
		close(clk, idled)
		r.event(clk, g.demoted)
	}
	if !fill {
		return x
	}
	if displaced != nil {
		closeSync(clk, displaced)
		r.event(clk, evDemote)
	}
	x, err := open(clk, g.kind)
	if err != nil || x == nil {
		return nil
	}
	r.mu.Lock()
	g.ch, g.last = x, now
	ev := g.promoted
	if tier3 {
		r.ringLossRun = 0
		if r.ringWasLossy {
			r.ringWasLossy = false
			ev = evRingRepromote
		}
	}
	r.mu.Unlock()
	r.event(clk, ev)
	return x
}

// noteRingTransport feeds the tier-3 fault policy with one ring call's
// transport quality: RingLossStreak consecutive lossy calls mean the
// retransmission layer is carrying the rings, so fault pressure demotes
// back to tier 2. With the fault plane off retx is always 0.
func (r *SyscallRouter) noteRingTransport(clk *cycles.Clock, retx int) {
	r.mu.Lock()
	if retx == 0 {
		r.ringLossRun = 0
		r.mu.Unlock()
		return
	}
	r.ringLossRun++
	if r.ringLossRun < r.policy.RingLossStreak {
		r.mu.Unlock()
		return
	}
	r.ringLossRun = 0
	r.mu.Unlock()
	r.ringDown(clk)
}

// ringDown tears down the tier-3 rings after fault pressure (a partner
// kill or a loss streak): the recovery path is hypercall-mode — the
// teardown hypercall now, tier-2 transports for subsequent forwards —
// and re-promotion waits for a clean tier-2 window (noteRingRecovery).
func (r *SyscallRouter) ringDown(clk *cycles.Clock) {
	r.mu.Lock()
	x := r.ring.ch
	r.ring.ch = nil
	r.ring.recent = r.ring.recent[:0]
	r.ringHold = true
	r.ringWasLossy = true
	r.ringClean = 0
	close := r.ring.close
	r.mu.Unlock()
	if x != nil && close != nil {
		close(clk, x)
	}
	r.event(clk, evRingLossy)
}

// noteTransport feeds both fault policies with one tier-2 forward's
// transport quality. While a ring recovery hold is latched, CleanStreak
// clean forwards in a row prove the transport healthy again and release
// the hold, letting the ring rung re-promote; that runs with the fault
// plane off too, since a checkpoint latches the hold. The tier-2 policy
// needs a lossy forward to act, so it never fires while the fault plane
// is off (retx is always 0): LossStreak lossy async forwards in a row
// promote the sync rung for reliability, and CleanStreak clean calls
// over that channel demote it again.
func (r *SyscallRouter) noteTransport(clk *cycles.Clock, retx int, viaSync bool) {
	r.mu.Lock()
	if r.ring.open != nil && r.ringHold {
		if retx > 0 {
			r.ringClean = 0
		} else if r.ringClean++; r.ringClean >= r.policy.CleanStreak {
			r.ringHold, r.ringClean = false, 0
		}
	}
	lossy, clean := false, (*PolledChannel)(nil)
	if retx > 0 {
		r.cleanRun = 0
		if !viaSync && r.sync.ch == nil && r.sync.open != nil && !r.lossSync {
			r.lossRun++
			if lossy = r.lossRun >= r.policy.LossStreak; lossy {
				r.lossRun = 0
			}
		}
	} else {
		r.lossRun = 0
		if viaSync && r.lossSync && r.sync.ch != nil {
			r.cleanRun++
			if r.cleanRun >= r.policy.CleanStreak {
				clean, r.sync.ch = r.sync.ch, nil
				r.lossSync = false
				r.cleanRun = 0
			}
		}
	}
	open, close := r.sync.open, r.sync.close
	r.mu.Unlock()
	switch {
	case lossy:
		// The async notification plane is flaky: fall back to the
		// synchronous cacheline protocol, which a lost interrupt cannot
		// touch.
		sc, err := open(clk, PollSync)
		if err != nil {
			return
		}
		r.mu.Lock()
		r.sync.ch = sc
		r.lossSync = true
		r.mu.Unlock()
		r.event(clk, evLossSync)
	case clean != nil:
		// A clean window on the reliable path: give the polling core back.
		close(clk, clean)
		r.event(clk, evCleanAsync)
	}
}

// RouterCheckpoint is the router slice of a group checkpoint: the
// mirrored tier-0 state plus the fault-policy latches that survive a
// migration. The router object itself crosses with the group (the
// checkpoint records, it does not rebuild), so this is the serialized
// form a restore verifies and the flight recorder describes.
type RouterCheckpoint struct {
	// Local is the mirrored process state tier 0 serves from. It
	// deliberately migrates as-is: the group keeps observing its
	// original pid/cwd/uname, so tier-0 answers are byte-identical to
	// an unmigrated run.
	Local RouterLocalState
	// RingHold/RingWasLossy carry the tier-3 recovery latch: after the
	// checkpoint teardown, re-promotion on the target waits for the
	// same CleanStreak window as after a partner-kill demotion.
	RingHold     bool
	RingWasLossy bool
}

// Quiesce prepares the router for a checkpoint. Tier-3 rings are torn
// down to the tier-2 fallback exactly as in the partner-kill recovery
// path — teardown hypercall, recovery hold, clean-streak-gated
// re-promotion on the target. A promoted sync channel is demoted (its
// polling thread lives on the source node and cannot move), and the
// tier-1 result cache is dropped (fd and path identity is per-node), each
// entry counting as an invalidation. clk is the migration clock: the
// teardown hypercalls are a cost of migrating, not of the group's own
// timeline, which must stay byte-identical to an unmigrated run.
func (r *SyscallRouter) Quiesce(clk *cycles.Clock) RouterCheckpoint {
	r.mu.Lock()
	hasRing := r.ring.ch != nil
	r.mu.Unlock()
	if hasRing {
		r.ringDown(clk)
	}
	r.mu.Lock()
	sc := r.sync.ch
	r.sync.ch = nil
	r.lossSync = false
	r.cleanRun = 0
	r.sync.recent = r.sync.recent[:0]
	close := r.sync.close
	dropped := len(r.cache)
	clear(r.cache)
	cp := RouterCheckpoint{
		Local:        r.local,
		RingHold:     r.ringHold,
		RingWasLossy: r.ringWasLossy,
	}
	r.mu.Unlock()
	if sc != nil {
		close(clk, sc)
	}
	if dropped > 0 {
		r.hvm.metrics.Counter("router.cache_invalidations").Add(uint64(dropped))
	}
	return cp
}

// Shutdown closes any promoted channels (the group is tearing down) and
// freezes the cache. An entry a mutation made stale but no lookup has
// found counts as an invalidation here, so every entry that went stale
// is counted once: at its next lookup, at a checkpoint, or now.
func (r *SyscallRouter) Shutdown() {
	r.mu.Lock()
	sc, x := r.sync.ch, r.ring.ch
	r.sync.ch, r.ring.ch = nil, nil
	r.closed = true
	stale := 0
	for key, e := range r.cache {
		if e.stamp != r.stampOf(key) {
			delete(r.cache, key)
			stale++
		}
	}
	r.mu.Unlock()
	for _, c := range [...]*PolledChannel{sc, x} {
		if c != nil {
			c.Close()
		}
	}
	if stale > 0 {
		r.hvm.metrics.Counter("router.cache_invalidations").Add(uint64(stale))
	}
}
