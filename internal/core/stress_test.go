package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
)

// TestManyConcurrentGroups hammers the HVM with several execution
// groups — pthreads, each spawned as a group of its own — forwarding
// syscalls and faults simultaneously, while scheduler-placed workers of
// the main group forward over the main group's channel from goroutines
// of their own, contending for its service lock. The protocol must hold
// under concurrency (run under -race in CI). The routed configuration
// adds the router's sync channel, the fault-armed one partner kills,
// duplicated and corrupted frames, and the last both at once, so promoted
// rungs meet respawned partners. Every thread writes its own letter at
// its own length, so each result and the final stdout prove that every
// forwarded request was served exactly once; each group's brk(0) must
// read the same at its end as at its start, whichever context served it.
func TestManyConcurrentGroups(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{AppName: "stress", Scheduler: true}},
		{"routed", Options{AppName: "stress", Scheduler: true, Router: true}},
		{"faults", Options{AppName: "stress", Scheduler: true, Faults: stressFaults()}},
		{"routed+faults", Options{AppName: "stress", Scheduler: true, Router: true, Faults: stressFaults()}},
	} {
		t.Run(tc.name, func(t *testing.T) { manyConcurrentGroups(t, tc.opts) })
	}
}

// stressFaults is the fault-armed stress configurations' plan.
func stressFaults() *faults.Plan {
	return &faults.Plan{Seed: 12, RecoveryBudget: 1 << 20,
		Rates: map[faults.Kind]float64{faults.PartnerKill: 0.05, faults.DupNotify: 0.2, faults.CorruptFrame: 0.1}}
}

func manyConcurrentGroups(t *testing.T, opts Options) {
	sys := buildTestSystem(t, opts)
	const groups, workers = 6, 2
	const callsPerGroup = 40

	// writes issues callsPerGroup forwarded writes of data, checking each
	// result.
	writes := func(env Env, who string, data []byte) {
		for i := 0; i < callsPerGroup; i++ {
			res := env.Syscall(linuxabi.Call{Num: linuxabi.SysWrite, Args: [6]uint64{1}, Data: data})
			if !res.Ok() || res.Ret != uint64(len(data)) {
				t.Errorf("%s write %d = %d, %v; want %d", who, i, res.Ret, res.Err, len(data))
				return
			}
		}
	}
	letter := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, i+1) }

	var wg sync.WaitGroup
	errs := make(chan error, groups)
	_, err := sys.RunMain(func(env Env) uint64 {
		for g := 0; g < groups; g++ {
			wg.Add(1)
			join, err := env.PthreadCreate(func(child Env) {
				defer wg.Done()
				brk0 := child.Syscall(linuxabi.Call{Num: linuxabi.SysBrk}).Ret
				// Each group mmaps its own region and touches it.
				r := child.Syscall(linuxabi.Call{
					Num:  linuxabi.SysMmap,
					Args: [6]uint64{0, 8 * 4096, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous},
				})
				if !r.Ok() {
					errs <- r.Err
					return
				}
				for off := uint64(0); off < 8*4096; off += 4096 {
					if terr := child.Touch(r.Ret+off, true); terr != nil {
						errs <- linuxabi.EFAULT
						return
					}
				}
				writes(child, fmt.Sprintf("pthread %d", g), letter(g))
				if brk := child.Syscall(linuxabi.Call{Num: linuxabi.SysBrk}).Ret; brk != brk0 {
					t.Errorf("pthread %d: brk(0) = %#x at its end, %#x at its start", g, brk, brk0)
				}
			})
			if err != nil {
				t.Errorf("spawn %d: %v", g, err)
				wg.Done()
				continue
			}
			defer join()
		}
		host := env.(SchedulerHost)
		for w := 0; w < workers; w++ {
			wenv, _, release, err := host.SpawnWorkerEnv()
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				continue
			}
			defer release()
			wg.Add(1)
			go func() {
				defer wg.Done()
				writes(wenv, fmt.Sprintf("worker %d", w), letter(groups+w))
			}()
		}
		wg.Wait()
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	close(errs)
	for e := range errs {
		t.Errorf("group error: %v", e)
	}
	if got := sys.AK.ForwardedSyscalls(); got < (groups+workers)*callsPerGroup {
		t.Errorf("forwarded %d syscalls, want >= %d", got, (groups+workers)*callsPerGroup)
	}
	out := sys.Proc.Stdout()
	for i := 0; i < groups+workers; i++ {
		if n, want := bytes.Count(out, letter(i)[:1]), callsPerGroup*(i+1); n != want {
			t.Errorf("stdout holds %d bytes of writer %d, want %d", n, i, want)
		}
	}

	// Exactly-once service on the event channels: each completed
	// forward was served once, and each queued duplicate was coalesced
	// once — except that a duplicated thread exit closes its channel
	// before the duplicate arrives, at most once per group.
	m := sys.Metrics()
	served := m.Counter("exits.evtchan-complete").Value()
	forwarded := m.Counter("forward.syscall").Value() + m.Counter("forward.page-fault").Value() +
		m.Counter("forward.thread-exit").Value()
	if served != forwarded {
		t.Errorf("served %d requests, forwarded %d: want each served exactly once", served, forwarded)
	}
	dups := m.Counter("faults.injected.dup-notify").Value() - m.Counter("faults.retransmit.rejected").Value()
	if dedup := m.Counter("faults.dedup").Value(); dedup > dups || dups-dedup > groups+1 {
		t.Errorf("coalesced %d duplicates of %d queued", dedup, dups)
	}
	t.Logf("served %d, coalesced %d duplicates, %d corrupt frames, %d recoveries, %d sync calls",
		served, m.Counter("faults.dedup").Value(), m.Counter("faults.corrupt.detected").Value(),
		m.Counter("faults.recovery").Value(), m.Counter("sync.syscalls").Value())
	if opts.Faults != nil && m.Counter("faults.recovery").Value() == 0 {
		t.Error("the fault-armed run recovered no partner")
	}
}

// TestMemoryExhaustionSurfacesENOMEM: with a tiny physical memory, demand
// paging runs out of frames and the access fails with a clean error, not
// a panic.
func TestMemoryExhaustionSurfacesENOMEM(t *testing.T) {
	spec := machine.DefaultSpec()
	spec.FramesPerZone = 192 // barely enough for page tables + a little heap
	sys, err := NewSystem(nil, Options{AppName: "oom", MachineSpec: &spec})
	if err != nil {
		t.Fatal(err)
	}
	env := sys.NativeEnv()
	r := env.Syscall(linuxabi.Call{
		Num:  linuxabi.SysMmap,
		Args: [6]uint64{0, 4096 * 4096, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous},
	})
	if !r.Ok() {
		t.Fatalf("mmap itself failed: %v", r.Err) // lazy mmap should succeed
	}
	sawFailure := false
	for off := uint64(0); off < 4096*4096; off += 4096 {
		if err := env.Touch(r.Ret+off, true); err != nil {
			sawFailure = true
			break
		}
	}
	if !sawFailure {
		t.Fatal("touched 4096 pages with only 192 frames — exhaustion not modelled")
	}
}

// TestGroupSpawnAfterMainExit: spawning from a finished system must not
// wedge; the AK is halted by the exit hook.
func TestGroupSpawnAfterMainExit(t *testing.T) {
	sys := buildTestSystem(t, Options{AppName: "late"})
	if _, err := sys.RunMain(func(Env) uint64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	// The exit hook halted the AK; a late spawn must fail cleanly (the
	// injected creation request completes with an error), not wedge.
	if _, err := sys.HRTInvokeFunc(func(env Env) uint64 { return 0 }); err == nil {
		t.Error("spawn against a halted AeroKernel succeeded")
	}
}

// TestPageFaultHotspotPerThread: the page-fault hotspot counts the
// accesses whose own thread forwarded a fault. Group B touches N fresh
// pages (N forwarded faults) while group A keeps touching one page that is
// already resident in the merged tables; A must add no page-fault entries
// however the host interleaves the two groups.
func TestPageFaultHotspotPerThread(t *testing.T) {
	const n = 32
	sys := buildTestSystem(t, Options{AppName: "fault-attribution"})
	clk := sys.Main.Clock
	mmap := func(pages uint64) uint64 {
		r := sys.Proc.Syscall(sys.Main, linuxabi.Call{
			Num:  linuxabi.SysMmap,
			Args: [6]uint64{0, pages * 4096, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous},
		})
		if !r.Ok() {
			t.Fatalf("mmap: %v", r.Err)
		}
		return r.Ret
	}
	resident, fresh := mmap(1), mmap(n)
	if errno := sys.Proc.Touch(sys.Main, resident, true); errno != linuxabi.OK {
		t.Fatalf("ROS touch: %v", errno)
	}
	// Re-merge so A's page is mapped in the HRT view before either group
	// runs: A's touches never fault, and each of B's faults once.
	if err := sys.HVM.MergeAddressSpace(clk, sys.Proc.CR3()); err != nil {
		t.Fatal(err)
	}

	started, done := make(chan struct{}), make(chan struct{})
	a, err := sys.SpawnGroup(clk, func(env Env) uint64 {
		err := env.Touch(resident, false)
		close(started)
		for err == nil {
			select {
			case <-done:
				return 0
			default:
				err = env.Touch(resident, false)
			}
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.SpawnGroup(clk, func(env Env) uint64 {
		defer close(done)
		<-started
		for off := uint64(0); off < n*4096; off += 4096 {
			if err := env.Touch(fresh+off, true); err != nil {
				return 1
			}
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*ExecutionGroup{a, b} {
		if code, err := g.WaitExit(clk); err != nil || code != 0 {
			t.Fatalf("group exit %d, %v", code, err)
		}
	}
	if got := b.HRTThread().ForwardedFaults(); got != n {
		t.Errorf("group B forwarded %d faults, want %d", got, n)
	}
	var faults uint64
	for _, e := range sys.Hotspots().Entries() {
		if e.Name == "page-fault" {
			faults = e.Count
		}
	}
	if faults != n {
		t.Errorf("page-fault hotspot count = %d, want %d", faults, n)
	}
}

// TestSameCoreGroupsFaultAsSolo: groups sharing one HRT core fault
// concurrently, and each sees exactly what it sees running alone. Every
// group mmaps its own region, in a 1 GiB range of its own, and touches
// each page once: one forwarded fault per page. The eager re-merge policy
// runs a re-merge before every forward, so concurrent groups also merge
// while others forward. Fault delivery is thread-scoped, so each group's
// HRT cycles, forwarded faults and re-merges must equal its solo run's,
// however the host interleaves the groups.
func TestSameCoreGroupsFaultAsSolo(t *testing.T) {
	const groups, pages = 4, 8
	// All regions lie in one PML4 slot the ROS populates and the HRT
	// merges before any group runs, so no group's fault changes a
	// top-level entry another group's merge could pick up.
	const slot = uint64(16) << 39
	type result struct {
		cycles        cycles.Cycles
		fwd, remerges uint64
		code          uint64
		core          machine.CoreID
	}
	mmap := func(env Env, addr uint64) bool {
		r := env.Syscall(linuxabi.Call{Num: linuxabi.SysMmap, Args: [6]uint64{addr, pages * 4096,
			linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous | linuxabi.MapFixed}})
		return r.Ok() && r.Ret == addr
	}
	run := func(ids []int, eager bool) map[int]result {
		sys := buildTestSystem(t, Options{AppName: "same-core"})
		clk := sys.Main.Clock
		r := sys.Proc.Syscall(sys.Main, linuxabi.Call{Num: linuxabi.SysMmap, Args: [6]uint64{slot, 4096,
			linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous | linuxabi.MapFixed}})
		if !r.Ok() {
			t.Fatalf("mmap: %v", r.Err)
		}
		if errno := sys.Proc.Touch(sys.Main, slot, true); errno != linuxabi.OK {
			t.Fatalf("ROS touch: %v", errno)
		}
		if err := sys.HVM.MergeAddressSpace(clk, sys.Proc.CR3()); err != nil {
			t.Fatal(err)
		}
		sys.AK.SetEagerRemerge(eager)

		start := make(chan struct{})
		cyc := make([]cycles.Cycles, groups)
		gs := make(map[int]*ExecutionGroup, len(ids))
		for _, id := range ids {
			base := slot + uint64(id+1)<<30
			g, err := sys.SpawnGroup(clk, func(env Env) uint64 {
				<-start
				c0 := env.Clock().Now()
				if !mmap(env, base) {
					return 1
				}
				for off := uint64(0); off < pages*4096; off += 4096 {
					if env.Touch(base+off, true) != nil {
						return 2
					}
				}
				cyc[id] = env.Clock().Now() - c0
				return 0
			})
			if err != nil {
				t.Fatal(err)
			}
			gs[id] = g
		}
		close(start)
		codes := make(map[int]uint64, len(ids))
		for id, g := range gs {
			code, err := g.WaitExit(clk)
			if err != nil {
				t.Fatalf("group %d: %v", id, err)
			}
			codes[id] = code
		}
		out := make(map[int]result, len(ids))
		for id, g := range gs {
			th := g.HRTThread()
			out[id] = result{cycles: cyc[id], fwd: th.ForwardedFaults(), remerges: th.Remerges(), code: codes[id], core: th.Core}
		}
		return out
	}
	for _, eager := range []bool{false, true} {
		together := run([]int{0, 1, 2, 3}, eager)
		for id := 0; id < groups; id++ {
			solo := run([]int{id}, eager)[id]
			got := together[id]
			if solo.code != 0 || got.code != 0 {
				t.Fatalf("eager=%v group %d exited %d alone, %d together", eager, id, solo.code, got.code)
			}
			if got.core != together[0].core {
				t.Errorf("group %d ran on core %d, group 0 on %d; want one shared core", id, got.core, together[0].core)
			}
			if got != solo {
				t.Errorf("eager=%v group %d: together %+v, alone %+v", eager, id, got, solo)
			}
			wantRemerges := uint64(0)
			if eager {
				wantRemerges = pages
			}
			if solo.fwd != pages || solo.remerges != wantRemerges {
				t.Errorf("eager=%v group %d alone: %d forwarded faults, %d re-merges; want %d, %d",
					eager, id, solo.fwd, solo.remerges, pages, wantRemerges)
			}
		}
	}
}
