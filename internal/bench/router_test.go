package bench

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"multiverse/internal/core"
	"multiverse/internal/hvm"
	"multiverse/internal/linuxabi"
	"multiverse/internal/telemetry"
)

// routedSystem builds a WorldHRT system with the router on.
func routedSystem(t *testing.T, name string, policy hvm.RouterPolicy) *core.System {
	t.Helper()
	fs, err := provisionFS(nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemForWorld(core.WorldHRT, core.Options{FS: fs, AppName: name, Router: true, RouterPolicy: policy})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRouterCacheInvalidation is the correctness core of the result cache:
// a cached stat must not survive a write to the file it describes. The
// sequence stat -> stat (hit) -> write -> stat must re-forward and report
// the fresh size.
func TestRouterCacheInvalidation(t *testing.T) {
	sys := routedSystem(t, "router-inval", hvm.RouterPolicy{})
	if err := sys.Kernel.FS().WriteFile("/data.txt", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()

	statSize := func(env core.Env) uint64 {
		res := env.Syscall(linuxabi.Call{Num: linuxabi.SysStat, Path: "/data.txt"})
		if !res.Ok() {
			t.Fatalf("stat failed: %v", res.Err)
		}
		st, ok := linuxabi.DecodeStat(res.Data)
		if !ok {
			t.Fatal("stat: undecodable result")
		}
		return st.Size
	}

	if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
		if n := statSize(env); n != 5 {
			t.Errorf("initial stat size = %d, want 5", n)
		}
		if hits := m.Counter("router.cache_hits").Value(); hits != 0 {
			t.Errorf("cache hits after first stat = %d, want 0", hits)
		}
		if n := statSize(env); n != 5 {
			t.Errorf("repeat stat size = %d, want 5", n)
		}
		if hits := m.Counter("router.cache_hits").Value(); hits != 1 {
			t.Errorf("cache hits after repeat stat = %d, want 1", hits)
		}

		// Mutate the file through the boundary: open, append, close.
		ores := env.Syscall(linuxabi.Call{Num: linuxabi.SysOpen, Path: "/data.txt",
			Args: [6]uint64{0, linuxabi.OWronly | linuxabi.OAppend}})
		if !ores.Ok() {
			t.Fatalf("open failed: %v", ores.Err)
		}
		wres := env.Syscall(linuxabi.Call{Num: linuxabi.SysWrite,
			Args: [6]uint64{ores.Ret, 0, 3}, Data: []byte("678")})
		if !wres.Ok() {
			t.Fatalf("write failed: %v", wres.Err)
		}
		env.Syscall(linuxabi.Call{Num: linuxabi.SysClose, Args: [6]uint64{ores.Ret}})

		// The write restamped the file, so the cached stat is stale:
		// this stat re-forwards and sees the new size.
		misses := m.Counter("router.cache_misses").Value()
		if n := statSize(env); n != 8 {
			t.Errorf("post-write stat size = %d, want 8 (stale cache?)", n)
		}
		if after := m.Counter("router.cache_misses").Value(); after != misses+1 {
			t.Errorf("post-write stat was not re-forwarded (misses %d -> %d)", misses, after)
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if inv := m.Counter("router.cache_invalidations").Value(); inv == 0 {
		t.Error("no cache invalidations recorded")
	}
}

// TestRouterInvalidationCount scripts every tier-1 shape through a cache
// fill, a hit and a mutation, and leaves some entries stale without ever
// reading them again. Each entry a mutation outdates counts as one
// invalidation however it is found — at its next lookup or at the group's
// shutdown — so the run's totals are fixed: 7 hits, 9 misses and 8
// invalidations.
func TestRouterInvalidationCount(t *testing.T) {
	sys := routedSystem(t, "router-count", hvm.RouterPolicy{})
	if err := sys.Kernel.FS().WriteFile("/data.txt", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
		sc := func(c linuxabi.Call) linuxabi.Result {
			res := env.Syscall(c)
			if !res.Ok() {
				t.Errorf("%v: %v", c.Num, res.Err)
			}
			return res
		}
		open := linuxabi.Call{Num: linuxabi.SysOpen, Path: "/data.txt", Args: [6]uint64{0, linuxabi.ORdwr}}
		fd := sc(open).Ret
		stat := linuxabi.Call{Num: linuxabi.SysStat, Path: "/data.txt"}
		fstat := linuxabi.Call{Num: linuxabi.SysFstat, Args: [6]uint64{fd}}
		tell := linuxabi.Call{Num: linuxabi.SysLseek, Args: [6]uint64{fd, 0, linuxabi.SeekCur}}
		rewind := linuxabi.Call{Num: linuxabi.SysLseek, Args: [6]uint64{fd, 0, linuxabi.SeekSet}}
		brk := linuxabi.Call{Num: linuxabi.SysBrk}
		write := linuxabi.Call{Num: linuxabi.SysWrite, Args: [6]uint64{fd, 0, 3}, Data: []byte("678")}
		closeFD := linuxabi.Call{Num: linuxabi.SysClose, Args: [6]uint64{fd}}
		for _, c := range []linuxabi.Call{stat, stat, fstat, fstat, tell, tell, brk} {
			sc(c) // 4 misses, 3 hits
		}
		grow := linuxabi.Call{Num: linuxabi.SysBrk, Args: [6]uint64{sc(brk).Ret + 4096}} // hit
		sc(write)                                                                        // outdates stat, fstat, tell
		sc(stat)                                                                         // invalidation 1, miss
		sc(stat)                                                                         // hit
		sc(fstat)                                                                        // invalidation 2, miss
		sc(rewind)                                                                       // outdates fstat
		sc(fstat)                                                                        // invalidation 3, miss
		sc(grow)                                                                         // outdates brk
		sc(write)                                                                        // outdates stat, fstat
		sc(open)                                                                         // outdates stat
		sc(tell)                                                                         // invalidation 4, miss
		sc(tell)                                                                         // hit
		sc(closeFD)                                                                      // outdates tell
		sc(brk)                                                                          // invalidation 5, miss
		sc(brk)                                                                          // hit
		// Never read again: stat, fstat and tell, 3 more at shutdown.
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()
	hits, misses := m.Counter("router.cache_hits").Value(), m.Counter("router.cache_misses").Value()
	inv := m.Counter("router.cache_invalidations").Value()
	if hits != 7 || misses != 9 || inv != 8 {
		t.Errorf("hits/misses/invalidations = %d/%d/%d, want 7/9/8", hits, misses, inv)
	}
}

// TestRouterLocalTier pins tier-0 semantics: getpid and uname answer from
// mirrored state with zero crossings and matching payloads.
func TestRouterLocalTier(t *testing.T) {
	sys := routedSystem(t, "router-local", hvm.RouterPolicy{})
	m := sys.Metrics()
	if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
		before := m.Counter("ak.forwarded_syscalls").Value()
		pres := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid})
		if !pres.Ok() || pres.Ret != uint64(sys.Proc.Pid()) {
			t.Errorf("local getpid = %d (%v), want %d", pres.Ret, pres.Err, sys.Proc.Pid())
		}
		ures := env.Syscall(linuxabi.Call{Num: linuxabi.SysUname})
		if !ures.Ok() || string(ures.Data) != "Linux multiverse-ros 2.6.38" {
			t.Errorf("local uname = %q (%v)", ures.Data, ures.Err)
		}
		if after := m.Counter("ak.forwarded_syscalls").Value(); after != before {
			t.Errorf("local tier crossed the boundary (%d -> %d forwards)", before, after)
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if hits := m.Counter("router.local_hits").Value(); hits != 2 {
		t.Errorf("local hits = %d, want 2", hits)
	}
}

// TestRouterPromotionDemotion drives the dynamic channel policy: a hot
// burst of forwards promotes the group to the synchronous channel; an
// idle gap demotes it on the next call.
func TestRouterPromotionDemotion(t *testing.T) {
	policy := hvm.RouterPolicy{PromoteCalls: 4, PromoteWindow: 10_000_000, DemoteIdle: 1_000_000}
	sys := routedSystem(t, "router-promo", policy)
	m := sys.Metrics()
	if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
		for i := 0; i < 6; i++ {
			env.Syscall(linuxabi.Call{Num: linuxabi.SysIoctl})
		}
		if p := m.Counter("router.promotions").Value(); p != 1 {
			t.Errorf("promotions after burst = %d, want 1", p)
		}
		if s := m.Counter("sync.syscalls").Value(); s == 0 {
			t.Error("no calls crossed the promoted synchronous channel")
		}

		// Go idle past DemoteIdle, then call again: the router demotes
		// first and forwards the call over the async channel.
		async := m.Counter("router.forward.async").Value()
		env.Compute(policy.DemoteIdle + 1)
		env.Syscall(linuxabi.Call{Num: linuxabi.SysIoctl})
		if d := m.Counter("router.demotions").Value(); d != 1 {
			t.Errorf("demotions after idle gap = %d, want 1", d)
		}
		if after := m.Counter("router.forward.async").Value(); after != async+1 {
			t.Errorf("post-demotion call did not use the async channel (%d -> %d)", async, after)
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRouterRegression is the deterministic crossing-count and cycle
// assertion of the router acceptance criteria: on a write-heavy benchmark
// the router must eliminate crossings and cut forwarded-syscall cycles,
// and both configurations must reproduce exactly across runs.
func TestRouterRegression(t *testing.T) {
	p, _ := ProgramByName("fasta")
	a, err := sweepProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sweepProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sweep runs not deterministic:\n%+v\n%+v", a, b)
	}
	off, on := a[0], a[1]
	offX, onX := off.Counters["ak.forwarded_syscalls"], on.Counters["ak.forwarded_syscalls"]
	if onX >= offX {
		t.Errorf("router did not reduce crossings: off=%d on=%d", offX, onX)
	}
	if on.forwardCycles() >= off.forwardCycles() {
		t.Errorf("router did not reduce forwarded cycles: off=%d on=%d", off.forwardCycles(), on.forwardCycles())
	}
	if on.Cycles >= off.Cycles {
		t.Errorf("router did not reduce end-to-end cycles: off=%d on=%d", off.Cycles, on.Cycles)
	}
	if on.Counters["router.local_hits"] == 0 {
		t.Error("no tier-0 local hits on the benchmark run")
	}
	if on.Counters["router.promotions"] == 0 {
		t.Error("write-heavy benchmark did not promote to the sync channel")
	}
}

// TestRouterTraceEvents asserts promotion/demotion instant events land on
// the trace track and survive the Chrome export.
func TestRouterTraceEvents(t *testing.T) {
	tracer := telemetry.New()
	fs, err := provisionFS(nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemForWorld(core.WorldHRT, core.Options{
		FS: fs, AppName: "router-trace",
		Router:       true,
		RouterPolicy: hvm.RouterPolicy{PromoteCalls: 4, PromoteWindow: 10_000_000, DemoteIdle: 1_000_000},
		Tracer:       tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
		for i := 0; i < 6; i++ {
			env.Syscall(linuxabi.Call{Num: linuxabi.SysIoctl})
		}
		env.Compute(2_000_000)
		env.Syscall(linuxabi.Call{Num: linuxabi.SysIoctl})
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"channel-promote"`, `"channel-demote"`, `"ph":"i"`} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}

// TestRoutedFaultsCountedOnce: with the router on, every forwarded page
// fault is counted once whichever transport carried it: the AeroKernel's
// ak.forwarded_faults equals the event channel's page-fault forwards plus
// the sync channel's fault frames, and the hotspot profile's page-fault
// entry. Fault frames stay out of the system-call metrics, so the
// syscall latency histogram and sync.syscalls count system calls alone.
func TestRoutedFaultsCountedOnce(t *testing.T) {
	p, _ := ProgramByName("fasta")
	plain, err := RunBenchmark(p, core.WorldHRT, core.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"router", core.Options{Router: true}},
		{"exitless", core.Options{Exitless: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunBenchmark(p, core.WorldHRT, tc.opts, false)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			c := func(name string) uint64 { return m.Counter(name).Value() }
			n := func(name string) uint64 { return m.LatencyHistogram(name).Count() }

			if res.ForwardedFaults != plain.ForwardedFaults {
				t.Errorf("forwarded faults = %d, want the unrouted run's %d", res.ForwardedFaults, plain.ForwardedFaults)
			}
			polled := c("sync.faults")
			if polled == 0 {
				t.Error("no fault rode the sync channel")
			}
			if got := c("forward.page-fault") + polled; got != res.ForwardedFaults {
				t.Errorf("event-channel + polled faults = %d, want ak.forwarded_faults = %d", got, res.ForwardedFaults)
			}
			if got := n("sync.fault.latency"); got != polled {
				t.Errorf("fault latency observations = %d, want %d", got, polled)
			}
			var hot uint64
			for _, e := range res.Hotspots.Entries() {
				if e.Name == "page-fault" {
					hot = e.Count
				}
			}
			if hot != res.ForwardedFaults {
				t.Errorf("page-fault hotspot count = %d, want %d", hot, res.ForwardedFaults)
			}

			if c("sync.syscalls") != c("router.forward.sync") || n("sync.syscall.latency") != c("sync.syscalls") {
				t.Errorf("syscalls %d, router forwards %d, latency observations %d: want all equal",
					c("sync.syscalls"), c("router.forward.sync"), n("sync.syscall.latency"))
			}
		})
	}
}

// TestRoutedBarrierFaultsUsePartnerDispositions runs the router with the
// scheduler, whose deterministic arenas keep signal dispositions per ROS
// thread, so the GC's write barrier faults reach the ROS SIGSEGV path. The runtime installed its
// handler for the group's ROS identity; a fault replicated by the polled
// rung's poller, a context of its own, must still find it.
func TestRoutedBarrierFaultsUsePartnerDispositions(t *testing.T) {
	p, _ := ProgramByName("fasta")
	res, err := RunBenchmark(p, core.WorldHRT, core.Options{Router: true, Scheduler: true, WedgeTimeout: time.Minute}, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.BarrierFaults == 0 || res.Metrics.Counter("sync.faults").Value() == 0 {
		t.Fatalf("barrier faults %d, polled faults %d: want both nonzero",
			res.BarrierFaults, res.Metrics.Counter("sync.faults").Value())
	}
}
