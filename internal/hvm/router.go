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
//	  memory-polling channel (PolledChannel) while the group is promoted.
//
// Promotion is dynamic: the router tracks the group's forwarding rate in
// virtual time, promotes a hot group onto the sync channel mid-run
// (burning a ROS polling core only while it pays for itself), and
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

	// open sets up a sync channel and its dedicated ROS poller; close
	// tears them down. Without hooks the router never promotes.
	open  func(clk *cycles.Clock) (*PolledChannel, error)
	close func(clk *cycles.Clock, ch *PolledChannel)
	// sc is the promoted sync channel (mu-guarded); only open creates
	// one, so a non-nil sc implies the hooks are installed.
	sc *PolledChannel
	// recent holds the virtual times of the last PromoteCalls forwards
	// (oldest first) while the router waits to promote; last is the
	// latest forward the sync channel carried, the clock idle demotion
	// reads.
	recent []cycles.Cycles
	last   cycles.Cycles
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

// routerEvent is one ladder transition as the three telemetry planes see
// it: a metric counter, a trace instant on the HRT track, and a
// flight-recorder code.
type routerEvent struct {
	metric, instant string
	rec             telemetry.EventCode
}

var (
	evPromote = routerEvent{"router.promotions", "channel-promote", telemetry.RecPromote}
	evDemote  = routerEvent{"router.demotions", "channel-demote", telemetry.RecDemote}
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

// SetPollHooks installs the callbacks that open a sync channel (and its
// dedicated ROS poller) on promotion and close it on demotion. Without
// hooks the router never promotes (it still serves tiers 0 and 1).
func (r *SyscallRouter) SetPollHooks(
	open func(clk *cycles.Clock) (*PolledChannel, error),
	close func(clk *cycles.Clock, ch *PolledChannel),
) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.open, r.close = open, close
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
// other: it rides the sync channel like a system call, in a fault frame
// of its own, feeds the same promotion window and idle clock, and takes
// the ~25K-cycle event channel only when the group is not promoted.
// reqID is the causal request id the fault handler allocated.
func (r *SyscallRouter) ForwardFault(clk *cycles.Clock, ch *EventChannel, addr uint64, write bool, reqID uint64) (bool, error) {
	res, err := r.forward(clk, ch, frame{fault: true, addr: addr, write: write}, reqID)
	return err == nil && res.Err == linuxabi.OK, err
}

// forward crosses the boundary over tier 2's cheapest transport: the
// synchronous channel if promoted, the event channel otherwise. The
// router.forward.<transport> counters count system calls only; a fault
// frame is counted by its transport's fault metrics.
func (r *SyscallRouter) forward(clk *cycles.Clock, ch *EventChannel, fr frame, reqID uint64) (linuxabi.Result, error) {
	if sc := r.climb(clk); sc != nil {
		res, err := sc.roundTrip(clk, fr, reqID)
		if err == nil {
			if !fr.fault {
				r.counter("router.forward.sync").Inc()
			}
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
	return rep.Res, nil
}

// climb runs the promotion policy for a forward at the caller's virtual
// time and returns the sync channel to use (nil = forward over the event
// channel). Only the owning HRT thread climbs, so decisions are
// serialized by construction; the lock only guards against concurrent
// checkpoints and harness reads. A router without hooks returns at once
// without touching any state, keeping the dark path byte-identical.
//
// An idle gap of DemoteIdle since the channel's last forward demotes it;
// PromoteCalls forwards within PromoteWindow promote it.
func (r *SyscallRouter) climb(clk *cycles.Clock) *PolledChannel {
	now := clk.Now()
	r.mu.Lock()
	if r.open == nil {
		r.mu.Unlock()
		return nil
	}
	var idled *PolledChannel
	if r.sc != nil && r.last > 0 && now-r.last >= r.policy.DemoteIdle {
		idled, r.sc = r.sc, nil
		r.recent = r.recent[:0]
	}
	sc, fill := r.sc, false
	if sc != nil {
		r.last = now
	} else {
		calls := r.policy.PromoteCalls
		r.recent = append(r.recent, now)
		if len(r.recent) > calls {
			// Slide the window within its backing array, which a
			// reslice would walk off the end of and reallocate.
			r.recent = r.recent[:copy(r.recent, r.recent[len(r.recent)-calls:])]
		}
		if fill = len(r.recent) >= calls && now-r.recent[0] <= r.policy.PromoteWindow; fill {
			r.recent = r.recent[:0]
		}
	}
	open, close := r.open, r.close
	r.mu.Unlock()

	if idled != nil {
		close(clk, idled)
		r.event(clk, evDemote)
	}
	if !fill {
		return sc
	}
	sc, err := open(clk)
	if err != nil || sc == nil {
		return nil
	}
	r.mu.Lock()
	r.sc, r.last = sc, now
	r.mu.Unlock()
	r.event(clk, evPromote)
	return sc
}

// RouterCheckpoint is the router slice of a group checkpoint: the
// mirrored tier-0 state that survives a migration. The router object
// itself crosses with the group (the checkpoint records, it does not
// rebuild), so this is the serialized form a restore verifies and the
// flight recorder describes.
type RouterCheckpoint struct {
	// Local is the mirrored process state tier 0 serves from. It
	// deliberately migrates as-is: the group keeps observing its
	// original pid/cwd/uname, so tier-0 answers are byte-identical to
	// an unmigrated run.
	Local RouterLocalState
}

// Quiesce prepares the router for a checkpoint. A promoted sync channel
// is demoted (its polling thread lives on the source node and cannot
// move), and the tier-1 result cache is dropped (fd and path identity is
// per-node), each entry counting as an invalidation. clk is the
// migration clock: teardown is a cost of migrating, not of the group's
// own timeline, which must stay byte-identical to an unmigrated run.
func (r *SyscallRouter) Quiesce(clk *cycles.Clock) RouterCheckpoint {
	r.mu.Lock()
	sc := r.sc
	r.sc = nil
	r.recent = r.recent[:0]
	close := r.close
	dropped := len(r.cache)
	clear(r.cache)
	cp := RouterCheckpoint{Local: r.local}
	r.mu.Unlock()
	if sc != nil {
		close(clk, sc)
	}
	if dropped > 0 {
		r.hvm.metrics.Counter("router.cache_invalidations").Add(uint64(dropped))
	}
	return cp
}

// Shutdown closes a promoted channel (the group is tearing down) and
// freezes the cache. An entry a mutation made stale but no lookup has
// found counts as an invalidation here, so every entry that went stale
// is counted once: at its next lookup, at a checkpoint, or now.
func (r *SyscallRouter) Shutdown() {
	r.mu.Lock()
	sc := r.sc
	r.sc = nil
	r.closed = true
	stale := 0
	for key, e := range r.cache {
		if e.stamp != r.stampOf(key) {
			delete(r.cache, key)
			stale++
		}
	}
	r.mu.Unlock()
	if sc != nil {
		sc.Close()
	}
	if stale > 0 {
		r.hvm.metrics.Counter("router.cache_invalidations").Add(uint64(stale))
	}
}
