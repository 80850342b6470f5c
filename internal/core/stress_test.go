package core

import (
	"sync"
	"testing"

	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
)

// TestManyConcurrentGroups hammers the HVM with several execution groups
// forwarding syscalls and faults simultaneously — the protocol must hold
// under concurrency (run under -race in CI).
func TestManyConcurrentGroups(t *testing.T) {
	sys := buildTestSystem(t, Options{AppName: "stress"})
	const groups = 6
	const callsPerGroup = 40

	var wg sync.WaitGroup
	errs := make(chan error, groups)
	_, err := sys.RunMain(func(env Env) uint64 {
		for g := 0; g < groups; g++ {
			wg.Add(1)
			join, err := env.PthreadCreate(func(child Env) {
				defer wg.Done()
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
				for i := 0; i < callsPerGroup; i++ {
					if res := child.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}); !res.Ok() {
						errs <- res.Err
						return
					}
				}
			})
			if err != nil {
				t.Errorf("spawn %d: %v", g, err)
				wg.Done()
				continue
			}
			defer join()
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
	if got := sys.AK.ForwardedSyscalls(); got < groups*callsPerGroup {
		t.Errorf("forwarded %d syscalls, want >= %d", got, groups*callsPerGroup)
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
