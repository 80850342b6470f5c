package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/linuxabi"
	"multiverse/internal/ros"
)

// holdFn is a group body that checks in on arrived and then blocks until
// the gate releases — how these tests hold many groups live at once.
func holdFn(arrived chan<- struct{}, gate <-chan struct{}) func(Env) uint64 {
	return func(Env) uint64 {
		arrived <- struct{}{}
		<-gate
		return 0
	}
}

// liveGroupCost is what holding groups live costs the host, per group.
type liveGroupCost struct {
	heap       float64 // bytes of live heap (HeapAlloc after GC)
	goroutines float64
	stack      float64 // bytes of goroutine stack in use
}

// holdLiveGroups spawns n groups that block in holdFn, measures the host
// cost of holding them all live against the system before the spawns,
// then releases and joins them and checks the registry drains.
func holdLiveGroups(tb testing.TB, sys *System, n int) liveGroupCost {
	tb.Helper()
	clk := cycles.NewClock(0)
	arrived := make(chan struct{}, n)
	gate := make(chan struct{})
	held := make([]*ExecutionGroup, n)
	snapshot := func() (heap, stack uint64, goroutines int) {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.StackInuse, runtime.NumGoroutine()
	}
	heap0, stack0, gr0 := snapshot()
	for i := range held {
		g, err := sys.SpawnGroup(clk, holdFn(arrived, gate))
		if err != nil {
			tb.Fatalf("spawn %d: %v", i, err)
		}
		held[i] = g
	}
	for range held {
		<-arrived
	}
	heap1, stack1, gr1 := snapshot()
	if live := sys.LiveGroups(); live != n {
		tb.Errorf("live-group count = %d with %d groups held, want %d", live, n, n)
	}
	close(gate)
	for i, g := range held {
		if _, err := g.WaitExit(clk); err != nil {
			tb.Fatalf("join %d: %v", i, err)
		}
	}
	if size, live := sys.GroupTableSize(), sys.LiveGroups(); size != 0 || live != 0 {
		tb.Errorf("after all joins the registry holds %d entries and %d live groups, want 0", size, live)
	}
	per := func(before, after int64) float64 { return float64(after-before) / float64(n) }
	return liveGroupCost{
		heap:       per(int64(heap0), int64(heap1)),
		goroutines: per(int64(gr0), int64(gr1)),
		stack:      per(int64(stack0), int64(stack1)),
	}
}

// liveGroupConfigs are the configurations the live-group cost is bounded
// in: every option off, and the routed fast path with a warm pool.
var liveGroupConfigs = []struct {
	name string
	opts Options
}{
	{"plain", Options{AppName: "live"}},
	{"routed", Options{AppName: "live", Router: true, Exitless: true, Merger: true, WarmPool: 64}},
}

// TestDensityLiveGroupHeap bounds the heap a held live group costs at
// 16 KiB. Simulated stacks are paged, so the nominal 256 KiB HRT stack
// and 64 KiB partner stack cost only the pages a group touches. A first
// wave of 64 held groups warms the system (and fills the warm pool)
// before the measured wave.
func TestDensityLiveGroupHeap(t *testing.T) {
	const groups = 2000
	const maxHeap = 16 << 10
	for _, tc := range liveGroupConfigs {
		t.Run(tc.name, func(t *testing.T) {
			sys := buildTestSystem(t, tc.opts)
			holdLiveGroups(t, sys, 64)
			c := holdLiveGroups(t, sys, groups)
			t.Logf("per live group: %.1f KiB heap, %.2f goroutines, %.1f KiB goroutine stack",
				c.heap/1024, c.goroutines, c.stack/1024)
			if c.heap > maxHeap {
				t.Errorf("a live group costs %.1f KiB of heap, want <= %d KiB", c.heap/1024, maxHeap/1024)
			}
		})
	}
}

// BenchmarkLiveGroups100k is the density probe kept out of tier-1: it
// holds 100,000 live groups on one System (about 1 GB of host memory)
// and reports what each costs the host. Run it once with
// go test -run '^$' -bench LiveGroups100k -benchtime 1x ./internal/core.
func BenchmarkLiveGroups100k(b *testing.B) {
	for _, tc := range liveGroupConfigs {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := buildTestSystem(b, tc.opts)
				c := holdLiveGroups(b, sys, 100_000)
				b.ReportMetric(c.heap, "heap-B/group")
				b.ReportMetric(c.goroutines, "goroutines/group")
				b.ReportMetric(c.stack, "stack-B/group")
			}
		})
	}
}

// TestGroupMapLeakRegression is the unbounded-growth fix pinned as a
// regression: spawning and joining 10k groups must leave the registry
// empty and keep it from accumulating along the way. Exited groups used
// to stay in System.groups forever, and the Proc's thread table kept
// every partner thread (and its stack) reachable; both must track live
// groups. The routed case watches the first retired partners with
// finalizers: each must become collectable.
func TestGroupMapLeakRegression(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    Options
		watched int
	}{
		{"plain", Options{AppName: "leak", WarmPool: 2}, 0},
		{"routed", Options{AppName: "leak", WarmPool: 2, Router: true, Exitless: true, Merger: true}, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := buildTestSystem(t, tc.opts)
			const total = 10_000
			clk := cycles.NewClock(0)
			var freed atomic.Int64
			for i := 0; i < total; i++ {
				g, err := sys.SpawnGroup(clk, func(Env) uint64 { return 0 })
				if err != nil {
					t.Fatalf("spawn %d: %v", i, err)
				}
				if _, jerr := g.WaitExit(clk); jerr != nil {
					t.Fatalf("join %d: %v", i, jerr)
				}
				if i < tc.watched {
					runtime.SetFinalizer(g.Partner(), func(*ros.Thread) { freed.Add(1) })
				}
				if i%1000 == 999 {
					if n := sys.GroupTableSize(); n > 1 {
						t.Fatalf("after %d spawn+join cycles the registry holds %d entries", i+1, n)
					}
				}
			}
			if n := sys.GroupTableSize(); n != 0 {
				t.Errorf("registry holds %d entries after all joins, want 0", n)
			}
			if live := sys.LiveGroups(); live != 0 {
				t.Errorf("live-group count = %d after all joins, want 0", live)
			}
			for deadline := time.Now().Add(10 * time.Second); freed.Load() < int64(tc.watched) && time.Now().Before(deadline); {
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
			}
			if n := freed.Load(); n != int64(tc.watched) {
				t.Errorf("%d of the first %d retired partner threads were collected, want all", n, tc.watched)
			}
		})
	}
}

// TestSpawnFailureLeavesNoResidue pins the other leak: a spawn that fails
// (AeroKernel halted) must unregister the stillborn group and drop its
// pending-spawn entry instead of leaking both.
func TestSpawnFailureLeavesNoResidue(t *testing.T) {
	sys := buildTestSystem(t, Options{AppName: "residue"})
	sys.AK.Halt()
	if _, err := sys.SpawnGroup(cycles.NewClock(0), func(Env) uint64 { return 0 }); err == nil {
		t.Fatal("spawn on a halted kernel succeeded")
	}
	if n := sys.GroupTableSize(); n != 0 {
		t.Errorf("failed spawn left %d registry entries", n)
	}
	if n := sys.pendingSpawns.size(); n != 0 {
		t.Errorf("failed spawn left %d pending-spawn entries", n)
	}
	if live := sys.LiveGroups(); live != 0 {
		t.Errorf("failed spawn left live-group count %d", live)
	}
}

// TestPthreadClosuresReleased pins the pthread_create registry: each
// closure is taken by the nk_thread_create that spawns it, so a run of
// create+join pairs leaves nothing registered.
func TestPthreadClosuresReleased(t *testing.T) {
	sys := buildTestSystem(t, Options{AppName: "pthreads"})
	const n = 50
	if _, err := sys.RunMain(func(env Env) uint64 {
		for i := 0; i < n; i++ {
			join, err := env.PthreadCreate(func(Env) {})
			if err != nil {
				t.Errorf("create %d: %v", i, err)
				return 1
			}
			join()
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if size := sys.fnRegistry.size(); size != 0 {
		t.Errorf("%d closures still registered after %d create+join pairs, want 0", size, n)
	}
}

// TestDensityConcurrentSpawnJoin drives concurrent SpawnGroup/WaitExit
// interleavings across the sharded registries from many host goroutines —
// the go test -race coverage of the sharding refactor.
func TestDensityConcurrentSpawnJoin(t *testing.T) {
	sys := buildTestSystem(t, Options{AppName: "dense", WarmPool: 8})
	const spawners = 8
	const perSpawner = 16
	var wg sync.WaitGroup
	errs := make([]error, spawners)
	for si := 0; si < spawners; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			clk := cycles.NewClock(0)
			for k := 0; k < perSpawner; k++ {
				g, err := sys.SpawnGroup(clk, func(env Env) uint64 {
					res := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid})
					if !res.Ok() {
						return 1
					}
					return 0
				})
				if err != nil {
					errs[si] = err
					return
				}
				code, jerr := g.WaitExit(clk)
				if jerr != nil {
					errs[si] = jerr
					return
				}
				if code != 0 {
					errs[si] = errors.New("nonzero exit code")
					return
				}
			}
		}(si)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			t.Fatalf("spawner %d: %v", si, err)
		}
	}
	if n := sys.GroupTableSize(); n != 0 {
		t.Errorf("registry holds %d entries after all joins, want 0", n)
	}
}

// TestDensitySpawnDuringRespawn interleaves fresh spawns with a victim
// group's partner-kill recovery: the watchdog respawn must not disturb
// concurrent spawn traffic on other shards, and the scoped plan must not
// touch the bystanders.
func TestDensitySpawnDuringRespawn(t *testing.T) {
	sys := buildTestSystem(t, Options{
		AppName: "respawn-dense",
		Faults: &faults.Plan{
			Seed:   11,
			Groups: []uint64{1},
			Spec:   []faults.Injection{{Kind: "partner-kill"}},
		},
	})
	// Victim first, so it takes group id 1 (in the plan's scope).
	vclk := cycles.NewClock(0)
	victim, err := sys.SpawnGroup(vclk, func(env Env) uint64 {
		for i := 0; i < 4; i++ {
			if res := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}); !res.Ok() {
				return 1
			}
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}

	const spawners = 4
	var wg sync.WaitGroup
	errs := make([]error, spawners)
	for si := 0; si < spawners; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			clk := cycles.NewClock(0)
			for k := 0; k < 8; k++ {
				g, serr := sys.SpawnGroup(clk, func(env Env) uint64 {
					if res := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}); !res.Ok() {
						return 1
					}
					return 0
				})
				if serr != nil {
					errs[si] = serr
					return
				}
				if code, jerr := g.WaitExit(clk); jerr != nil || code != 0 {
					errs[si] = errors.New("bystander group failed")
					return
				}
			}
		}(si)
	}
	code, jerr := victim.WaitExit(vclk)
	wg.Wait()
	if jerr != nil || code != 0 {
		t.Fatalf("victim WaitExit = (%d, %v)", code, jerr)
	}
	for si, serr := range errs {
		if serr != nil {
			t.Fatalf("spawner %d: %v", si, serr)
		}
	}
	if n := sys.metrics.Counter("faults.recovery").Value(); n != 1 {
		t.Errorf("faults.recovery = %d, want 1 (the scripted kill)", n)
	}
}

// TestDensityFaultIsolation is the multi-tenant isolation contract: a
// plan scoped to one group must leave every other group's program-visible
// behavior byte-identical to a run where no fault fires, and the victim's
// recovery replay must not duplicate its output. (Absolute virtual finish
// times are NOT compared: the AeroKernel event loop is a shared resource
// whose clock legitimately ratchets forward with the victim's
// retransmission traffic.)
func TestDensityFaultIsolation(t *testing.T) {
	// run executes one victim + three bystanders sequentially under the
	// given plan and returns the combined stdout plus the recovery count.
	run := func(plan *faults.Plan) (string, uint64) {
		sys := buildTestSystem(t, Options{AppName: "isolation", Faults: plan})
		clk := cycles.NewClock(0)
		for i, letter := range []string{"a", "b", "c", "d"} {
			data := []byte(letter)
			g, err := sys.SpawnGroup(clk, func(env Env) uint64 {
				for j := 0; j < 3; j++ {
					res := env.Syscall(linuxabi.Call{
						Num:  linuxabi.SysWrite,
						Args: [6]uint64{1},
						Data: data,
					})
					if !res.Ok() {
						return 1
					}
				}
				return 0
			})
			if err != nil {
				t.Fatal(err)
			}
			if code, jerr := g.WaitExit(clk); jerr != nil || code != 0 {
				t.Fatalf("group %d: code %d err %v", i, code, jerr)
			}
		}
		return string(sys.Proc.Stdout()), sys.metrics.Counter("faults.recovery").Value()
	}

	clean, cleanRecov := run(&faults.Plan{Seed: 7, Groups: []uint64{1}})
	faulted, faultedRecov := run(&faults.Plan{
		Seed:   7,
		Groups: []uint64{1},
		Spec:   []faults.Injection{{Kind: "partner-kill"}},
	})
	if cleanRecov != 0 {
		t.Fatalf("clean run recovered %d times, want 0", cleanRecov)
	}
	if faultedRecov != 1 {
		t.Fatalf("faulted run recovered %d times, want 1 (victim)", faultedRecov)
	}
	if clean != "aaabbbcccddd" {
		t.Fatalf("clean stdout = %q, want %q", clean, "aaabbbcccddd")
	}
	if faulted != clean {
		t.Errorf("stdout diverged under scoped fault: clean %q, victim-faulted %q", clean, faulted)
	}
}

// TestAdmissionMaxGroups pins the group cap: the cap-th+1 spawn is
// deterministically rejected with ErrAdmissionRejected, and capacity
// frees on join.
func TestAdmissionMaxGroups(t *testing.T) {
	const cap = 4
	sys := buildTestSystem(t, Options{AppName: "admission", MaxGroups: cap})
	gate := make(chan struct{})
	arrived := make(chan struct{}, cap)
	clk := cycles.NewClock(0)
	var held []*ExecutionGroup
	for i := 0; i < cap; i++ {
		g, err := sys.SpawnGroup(clk, holdFn(arrived, gate))
		if err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
		held = append(held, g)
	}
	for i := 0; i < cap; i++ {
		<-arrived
	}
	if _, err := sys.SpawnGroup(clk, func(Env) uint64 { return 0 }); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("over-cap spawn = %v, want ErrAdmissionRejected", err)
	}
	close(gate)
	for i, g := range held {
		if _, jerr := g.WaitExit(clk); jerr != nil {
			t.Fatalf("join %d: %v", i, jerr)
		}
	}
	// Capacity is free again.
	g, err := sys.SpawnGroup(clk, func(Env) uint64 { return 0 })
	if err != nil {
		t.Fatalf("post-join spawn: %v", err)
	}
	if _, jerr := g.WaitExit(clk); jerr != nil {
		t.Fatal(jerr)
	}
	if n := sys.metrics.Counter("density.admission.rejected").Value(); n != 1 {
		t.Errorf("density.admission.rejected = %d, want 1", n)
	}
}

// TestAdmissionBudget pins the boundary budgets: cycles exhaust into
// EAGAIN, memory reservations exhaust into ENOMEM, and both rejections
// are deterministic program-order decisions.
func TestAdmissionBudget(t *testing.T) {
	sys := buildTestSystem(t, Options{
		AppName:      "budget",
		TenantBudget: &TenantBudget{Cycles: 60_000, MemBytes: 8192},
	})
	clk := cycles.NewClock(0)

	var ok, again int
	g, err := sys.SpawnGroup(clk, func(env Env) uint64 {
		for i := 0; i < 10; i++ {
			switch res := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}); res.Err {
			case linuxabi.OK:
				ok++
			case linuxabi.EAGAIN:
				again++
			default:
				return 1
			}
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, jerr := g.WaitExit(clk); jerr != nil || code != 0 {
		t.Fatalf("cycle-budget group: code %d err %v", code, jerr)
	}
	if ok == 0 || again == 0 || ok+again != 10 {
		t.Errorf("cycle budget split = %d issued / %d EAGAIN, want both nonzero summing to 10", ok, again)
	}

	var mok, enomem int
	g2, err := sys.SpawnGroup(clk, func(env Env) uint64 {
		for i := 0; i < 3; i++ {
			res := env.Syscall(linuxabi.Call{
				Num:  linuxabi.SysMmap,
				Args: [6]uint64{0, 4096, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous},
			})
			switch res.Err {
			case linuxabi.OK:
				mok++
			case linuxabi.ENOMEM:
				enomem++
			default:
				return 1
			}
		}
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, jerr := g2.WaitExit(clk); jerr != nil || code != 0 {
		t.Fatalf("mem-budget group: code %d err %v", code, jerr)
	}
	if mok != 2 || enomem != 1 {
		t.Errorf("mem budget split = %d issued / %d ENOMEM, want 2 / 1", mok, enomem)
	}
}

// TestWarmPoolReuseCheaper pins the warm-spawn claim: a warm reuse must
// cost the creator at least 10x fewer virtual cycles than a cold boot.
func TestWarmPoolReuseCheaper(t *testing.T) {
	sys := buildTestSystem(t, Options{AppName: "warm", WarmPool: 2})
	clk := cycles.NewClock(0)

	t0 := clk.Now()
	g1, err := sys.SpawnGroup(clk, func(Env) uint64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	cold := clk.Now() - t0
	if _, jerr := g1.WaitExit(clk); jerr != nil {
		t.Fatal(jerr)
	}

	t1 := clk.Now()
	g2, err := sys.SpawnGroup(clk, func(Env) uint64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	warm := clk.Now() - t1
	if _, jerr := g2.WaitExit(clk); jerr != nil {
		t.Fatal(jerr)
	}

	if hits := sys.metrics.Counter("density.warm.hits").Value(); hits != 1 {
		t.Fatalf("density.warm.hits = %d, want 1", hits)
	}
	if warm == 0 || cold < 10*warm {
		t.Errorf("warm spawn %d cycles vs cold %d: want >= 10x cheaper", warm, cold)
	}
}

// TestWarmPoolBounded pins the pool bound: exits beyond capacity drop
// their context instead of growing the pool.
func TestWarmPoolBounded(t *testing.T) {
	const poolMax = 2
	const groups = 5
	sys := buildTestSystem(t, Options{AppName: "bounded", WarmPool: poolMax})
	gate := make(chan struct{})
	arrived := make(chan struct{}, groups)
	clk := cycles.NewClock(0)
	var held []*ExecutionGroup
	for i := 0; i < groups; i++ {
		g, err := sys.SpawnGroup(clk, holdFn(arrived, gate))
		if err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
		held = append(held, g)
	}
	for i := 0; i < groups; i++ {
		<-arrived
	}
	close(gate)
	for i, g := range held {
		if _, jerr := g.WaitExit(clk); jerr != nil {
			t.Fatalf("join %d: %v", i, jerr)
		}
	}
	if n := sys.WarmPoolSize(); n != poolMax {
		t.Errorf("warm pool holds %d slots, want %d", n, poolMax)
	}
	m := sys.metrics
	if ret := m.Counter("density.warm.returns").Value(); ret != poolMax {
		t.Errorf("density.warm.returns = %d, want %d", ret, poolMax)
	}
	if drops := m.Counter("density.warm.drops").Value(); drops != groups-poolMax {
		t.Errorf("density.warm.drops = %d, want %d", drops, groups-poolMax)
	}
}

// TestConcurrentExitsAllSignalled releases many groups at once so their
// HRT exit signals overlap. A signal handler that drains another group's
// exit id must set that group's exit bit before the other group's own
// handler returns; otherwise that partner serves the exit notification
// with the bit still clear, waits for a request that never comes, and
// the join wedges.
func TestConcurrentExitsAllSignalled(t *testing.T) {
	sys := buildTestSystem(t, Options{AppName: "exits", WedgeTimeout: 20 * time.Second})
	const groups, rounds = 32, 8
	for r := 0; r < rounds; r++ {
		arrived := make(chan struct{}, groups)
		gate := make(chan struct{})
		gs := make([]*ExecutionGroup, groups)
		for i := range gs {
			g, err := sys.SpawnGroup(sys.Main.Clock, holdFn(arrived, gate))
			if err != nil {
				t.Fatalf("round %d spawn %d: %v", r, i, err)
			}
			gs[i] = g
		}
		for range gs {
			<-arrived
		}
		close(gate)
		for i, g := range gs {
			if _, err := g.Join(sys.Main); err != nil {
				t.Fatalf("round %d join %d: %v", r, i, err)
			}
		}
	}
}
