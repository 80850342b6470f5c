package aerokernel

import (
	"testing"

	"multiverse/internal/cycles"
	"multiverse/internal/hvm"
	"multiverse/internal/image"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/paging"
)

// testRig boots an AeroKernel on a machine with an HVM partition and a
// fake ROS address space it can merge.
type testRig struct {
	m   *machine.Machine
	hv  *hvm.HVM
	k   *Kernel
	ros *paging.AddressSpace
	clk *cycles.Clock
}

func newRig(t *testing.T) *testRig {
	t.Helper()
	m, err := machine.New(machine.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	hv, err := hvm.New(m, hvm.Config{
		ROSCores: []machine.CoreID{0},
		HRTCores: []machine.CoreID{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	img := &image.Image{Name: "nautilus.bin", Symbols: []image.Symbol{
		{Name: "nk_existing", Addr: 0xffff_8000_0020_0000, Size: 64},
	}}
	clk := cycles.NewClock(0)
	var k *Kernel
	hv.RegisterBootHandler(func(info hvm.BootInfo) (hvm.HRTSink, error) {
		kk, err := Boot(m, info)
		if err != nil {
			return nil, err
		}
		k = kk
		return kk, nil
	})
	if err := hv.InstallImage(clk, img); err != nil {
		t.Fatal(err)
	}
	if err := hv.BootHRT(clk); err != nil {
		t.Fatal(err)
	}
	ros, err := paging.NewAddressSpace(m.Phys, 0, "fake-ros")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Halt)
	return &testRig{m: m, hv: hv, k: k, ros: ros, clk: clk}
}

func (r *testRig) merge(t *testing.T) {
	t.Helper()
	if err := r.hv.MergeAddressSpace(r.clk, r.ros.CR3()); err != nil {
		t.Fatal(err)
	}
}

func TestBootState(t *testing.T) {
	r := newRig(t)
	if r.k.Merged() {
		t.Error("merged before any merger")
	}
	// CR0.WP must be set on every HRT core (section 4.4).
	for _, c := range r.k.Cores() {
		if !r.m.Core(c).MMU.WP() {
			t.Errorf("core %d: CR0.WP clear", c)
		}
	}
	// The higher half identity-maps physical memory.
	space := r.k.Space()
	pte, _ := space.Lookup(paging.HigherHalfVA(0x3000))
	if pte&paging.PtePresent == 0 {
		t.Error("higher-half identity map missing")
	}
}

func TestMergeThroughHVM(t *testing.T) {
	r := newRig(t)
	f, _ := r.m.Phys.Alloc(0)
	if err := r.ros.Map(0x7f00_0000_1000, f, paging.PteUser|paging.PteWrite); err != nil {
		t.Fatal(err)
	}
	r.merge(t)
	if !r.k.Merged() {
		t.Fatal("not merged")
	}
	if r.k.MergeCount() != 1 {
		t.Errorf("merge count = %d", r.k.MergeCount())
	}
	pte, _ := r.k.Space().Lookup(0x7f00_0000_1000)
	if pte&paging.PtePresent == 0 {
		t.Error("ROS mapping invisible after merger")
	}
}

func TestThreadSuperposition(t *testing.T) {
	r := newRig(t)
	r.merge(t)
	gdt := machine.GDT{Entries: []machine.SegmentDescriptor{{Base: 0xAB}}}
	ch := r.hv.NewEventChannel(1, 0)
	th := r.k.CreateThread(r.clk, 1, Superposition{GDT: gdt, FSBase: 0x7ffe_0042}, ch, nil)
	core := r.m.Core(1)
	if core.FSBase() != 0x7ffe_0042 {
		t.Errorf("FS.base = %#x", core.FSBase())
	}
	if got := core.GDT(); len(got.Entries) != 1 || got.Entries[0].Base != 0xAB {
		t.Errorf("GDT not mirrored: %+v", got)
	}
	if th.FSBase != 0x7ffe_0042 {
		t.Error("thread TLS not recorded")
	}
	if th.Nested {
		t.Error("top-level thread marked nested")
	}
}

func TestNestedThreadSharesChannel(t *testing.T) {
	r := newRig(t)
	ch := r.hv.NewEventChannel(1, 0)
	top := r.k.CreateThread(r.clk, 1, Superposition{}, ch, nil)
	nested := top.CreateNested()
	if !nested.Nested || nested.Parent != top {
		t.Error("nested thread lineage wrong")
	}
	if nested.channel() != ch {
		t.Error("nested thread does not use the top-level partner endpoint")
	}
}

func TestThreadRunJoin(t *testing.T) {
	r := newRig(t)
	th := r.k.CreateThread(r.clk, 1, Superposition{}, nil, nil)
	th.Start(func(t *Thread) uint64 {
		t.Clock.Advance(1234)
		return 77
	})
	joiner := cycles.NewClock(0)
	if code := th.Join(joiner); code != 77 {
		t.Errorf("join = %d", code)
	}
	if joiner.Now() < 1234 {
		t.Error("joiner clock not synced")
	}
}

func TestDisallowedFunctionality(t *testing.T) {
	r := newRig(t)
	th := r.k.CreateThread(r.clk, 1, Superposition{}, nil, nil)
	for _, num := range []linuxabi.Sysno{linuxabi.SysExecve, linuxabi.SysClone, linuxabi.SysFork, linuxabi.SysFutex} {
		res := th.Syscall(linuxabi.Call{Num: num})
		if res.Err != linuxabi.ENOSYS {
			t.Errorf("%v: err = %v, want ENOSYS", num, res.Err)
		}
	}
	if r.k.ForwardedSyscalls() != 0 {
		t.Error("disallowed calls were forwarded")
	}
}

func TestSyscallForwarding(t *testing.T) {
	r := newRig(t)
	r.merge(t)
	ch := r.hv.NewEventChannel(1, 0)
	th := r.k.CreateThread(r.clk, 1, Superposition{}, ch, nil)

	// A fake partner services one getpid.
	partnerClk := cycles.NewClock(0)
	ch.Bind(partnerClk, func(env *hvm.Envelope) {
		if env.Kind != hvm.EvSyscall || env.Call.Num != linuxabi.SysGetpid {
			t.Errorf("partner got %v", env.Kind)
		}
		ch.Complete(partnerClk, env, hvm.Reply{Res: linuxabi.Result{Ret: 4242, Err: linuxabi.OK}})
	})

	res := th.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid})
	if !res.Ok() || res.Ret != 4242 {
		t.Fatalf("forwarded getpid = %+v", res)
	}
	if r.k.ForwardedSyscalls() != 1 {
		t.Errorf("forwarded count = %d", r.k.ForwardedSyscalls())
	}
	// The thread's clock must reflect a full event-channel round trip
	// (tens of thousands of cycles, not a local call).
	if th.Clock.Now() < 20000 {
		t.Errorf("forwarded syscall too cheap: %d cycles", th.Clock.Now())
	}
}

func TestFaultForwardingAndRetry(t *testing.T) {
	r := newRig(t)
	// Map a page in the fake ROS space *after* the merge request, via the
	// shared tables: first create a lower-half mapping, then merge.
	f, _ := r.m.Phys.Alloc(0)
	r.merge(t)
	ch := r.hv.NewEventChannel(1, 0)
	th := r.k.CreateThread(r.clk, 1, Superposition{}, ch, nil)

	served := 0
	partnerClk := cycles.NewClock(0)
	ch.Bind(partnerClk, func(env *hvm.Envelope) {
		if env.Kind != hvm.EvPageFault {
			t.Errorf("partner got %v", env.Kind)
		}
		served++
		// "Replicate the access": the ROS maps the page, then the
		// shared lower tables make it visible to the HRT.
		if err := r.ros.Map(paging.PageBase(env.FaultAddr), f, paging.PteUser|paging.PteWrite); err != nil {
			t.Errorf("ros map: %v", err)
		}
		ch.Complete(partnerClk, env, hvm.Reply{FaultOK: true})
	})

	addr := uint64(0x7f55_0000_2000)
	if err := th.Touch(addr, true); err != nil {
		t.Fatalf("touch: %v", err)
	}
	if served != 1 {
		t.Errorf("partner served %d faults", served)
	}
	if r.k.ForwardedFaults() != 1 {
		t.Errorf("forwarded faults = %d", r.k.ForwardedFaults())
	}
	// Second touch: TLB/table hit, no forwarding.
	if err := th.Touch(addr, true); err != nil {
		t.Fatal(err)
	}
	if served != 1 {
		t.Error("resolved page forwarded again")
	}
	ch.Close()
}

// TestDuplicateFaultTriggersRemerge verifies the Nautilus addition: when
// the ROS installs a mapping in a *new* top-level (PML4) slot, the HRT's
// copied PML4 cannot see it; the same address faults twice and the kernel
// re-merges.
func TestDuplicateFaultTriggersRemerge(t *testing.T) {
	r := newRig(t)
	r.merge(t)
	ch := r.hv.NewEventChannel(1, 0)
	th := r.k.CreateThread(r.clk, 1, Superposition{}, ch, nil)

	// The ROS maps a page at a virtual address whose PML4 slot was empty
	// at merge time.
	addr := uint64(0x0000_2000_0000_3000) // PML4 index 4
	f, _ := r.m.Phys.Alloc(0)
	if err := r.ros.Map(addr, f, paging.PteUser|paging.PteWrite); err != nil {
		t.Fatal(err)
	}

	// The ROS resolves the fault trivially: the page is already mapped
	// on its side.
	partnerClk := cycles.NewClock(0)
	ch.Bind(partnerClk, func(env *hvm.Envelope) {
		ch.Complete(partnerClk, env, hvm.Reply{FaultOK: true})
	})

	if err := th.Touch(addr, false); err != nil {
		t.Fatalf("touch: %v", err)
	}
	if r.k.RemergeCount() != 1 {
		t.Errorf("re-merges = %d, want 1", r.k.RemergeCount())
	}
	ch.Close()
}

func TestHigherHalfFaultIsFatal(t *testing.T) {
	r := newRig(t)
	r.merge(t)
	th := r.k.CreateThread(r.clk, 1, Superposition{}, nil, nil)
	// Unmapped higher-half address beyond the identity map.
	err := th.Touch(paging.HigherHalfMin+0x7000_0000_0000, false)
	if err == nil {
		t.Fatal("higher-half wild access did not fail")
	}
}

func TestLowerHalfBeforeMergeFails(t *testing.T) {
	r := newRig(t)
	th := r.k.CreateThread(r.clk, 1, Superposition{}, nil, nil)
	if err := th.Touch(0x7f00_0000_0000, false); err == nil {
		t.Fatal("lower-half access before merger should fail")
	}
}

func TestSymbolLookupCostScales(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 50; i++ {
		r.k.RegisterFunc(string(rune('a'+i%26))+"filler"+string(rune('0'+i%10)), func(*Thread, []uint64) uint64 { return 0 })
	}
	target := r.k.RegisterFunc("zzz_target", func(*Thread, []uint64) uint64 { return 1 })

	clk := cycles.NewClock(0)
	addr, ok := r.k.LookupSymbol(clk, "zzz_target")
	if !ok || addr != target {
		t.Fatalf("lookup failed: %v %#x", ok, addr)
	}
	cost := clk.Now()
	if cost == 0 {
		t.Error("lookup charged nothing")
	}
	// A symbol early in the (name-sorted) table costs less.
	clk2 := cycles.NewClock(0)
	if _, ok := r.k.LookupSymbol(clk2, "afiller0"); !ok {
		t.Fatal("early symbol missing")
	}
	if clk2.Now() >= cost {
		t.Errorf("early lookup (%d) not cheaper than late (%d)", clk2.Now(), cost)
	}
	if _, ok := r.k.LookupSymbol(nil, "missing_symbol"); ok {
		t.Error("found missing symbol")
	}
}

func TestRegisterFuncBindsExistingImageSymbol(t *testing.T) {
	r := newRig(t)
	addr := r.k.RegisterFunc("nk_existing", func(*Thread, []uint64) uint64 { return 5 })
	if addr != 0xffff_8000_0020_0000 {
		t.Errorf("bound at %#x, want the image symbol's address", addr)
	}
	th := r.k.CreateThread(r.clk, 1, Superposition{}, nil, nil)
	v, err := r.k.CallByAddr(th, addr)
	if err != nil || v != 5 {
		t.Errorf("call = %d, %v", v, err)
	}
}

func TestCallByAddrUnknown(t *testing.T) {
	r := newRig(t)
	th := r.k.CreateThread(r.clk, 1, Superposition{}, nil, nil)
	if _, err := r.k.CallByAddr(th, 0xdead); err == nil {
		t.Error("call to unregistered address should fail")
	}
}

func TestEventsSignalWakesWaiters(t *testing.T) {
	r := newRig(t)
	ev := r.k.NewEvent()
	waiter := r.k.CreateThread(r.clk, 1, Superposition{}, nil, nil)
	signaler := r.k.CreateThread(r.clk, 2, Superposition{}, nil, nil)

	done := make(chan cycles.Cycles, 1)
	go func() {
		ev.Wait(waiter)
		done <- waiter.Clock.Now()
	}()
	// Give the waiter a moment to enqueue, then signal.
	for {
		ev.mu.Lock()
		n := len(ev.waiters)
		ev.mu.Unlock()
		if n == 1 {
			break
		}
	}
	signaler.Clock.Advance(10_000)
	ev.Signal(signaler)
	wake := <-done
	if wake < 10_000 {
		t.Errorf("waiter woke at %d, before signal time", wake)
	}
}

func TestEagerRemergePolicy(t *testing.T) {
	r := newRig(t)
	r.merge(t)
	r.k.SetEagerRemerge(true)
	ch := r.hv.NewEventChannel(1, 0)
	th := r.k.CreateThread(r.clk, 1, Superposition{}, ch, nil)

	f, _ := r.m.Phys.Alloc(0)
	partnerClk := cycles.NewClock(0)
	ch.Bind(partnerClk, func(env *hvm.Envelope) {
		_ = r.ros.Map(paging.PageBase(env.FaultAddr), f, paging.PteUser|paging.PteWrite)
		ch.Complete(partnerClk, env, hvm.Reply{FaultOK: true})
	})
	if err := th.Touch(0x7f66_0000_0000, true); err != nil {
		t.Fatal(err)
	}
	if r.k.RemergeCount() == 0 {
		t.Error("eager policy did not re-merge")
	}
	ch.Close()
}

// resolvingPartner binds a partner that resolves every forwarded fault by
// mapping a fresh frame at the faulting page in the fake ROS space.
func (r *testRig) resolvingPartner(t *testing.T, ch *hvm.EventChannel) {
	t.Helper()
	partnerClk := cycles.NewClock(0)
	ch.Bind(partnerClk, func(env *hvm.Envelope) {
		f, err := r.m.Phys.Alloc(0)
		ok := err == nil && r.ros.Map(paging.PageBase(env.FaultAddr), f, paging.PteUser|paging.PteWrite) == nil
		ch.Complete(partnerClk, env, hvm.Reply{FaultOK: ok})
	})
	t.Cleanup(ch.Close)
}

// TestDuplicateFaultIsPerThread: the duplicate-fault record belongs to the
// faulting thread. Thread A forwards a fault at addr; the ROS then unmaps
// addr, and thread B, on the same core, faults there. It is B's first
// fault at addr, so it is forwarded, not taken for a duplicate and
// re-merged.
func TestDuplicateFaultIsPerThread(t *testing.T) {
	r := newRig(t)
	const addr = 0x7f77_0000_0000
	// A neighbour page makes the merge carry addr's page tables, so the
	// ROS's fix of addr is visible to the HRT at once.
	f, _ := r.m.Phys.Alloc(0)
	if err := r.ros.Map(addr+0x1000, f, paging.PteUser|paging.PteWrite); err != nil {
		t.Fatal(err)
	}
	r.merge(t)
	ch := r.hv.NewEventChannel(1, 0)
	r.resolvingPartner(t, ch)
	a := r.k.CreateThread(r.clk, 1, Superposition{}, ch, nil)
	b := r.k.CreateThread(r.clk, 1, Superposition{}, ch, nil)

	if err := a.Touch(addr, true); err != nil {
		t.Fatal(err)
	}
	if err := r.ros.Unmap(addr); err != nil {
		t.Fatal(err)
	}
	r.m.Core(1).MMU.TLB().FlushAll()
	if err := b.Touch(addr, true); err != nil {
		t.Fatal(err)
	}
	if got := r.k.RemergeCount(); got != 0 {
		t.Errorf("re-merges = %d, want 0: B's first fault at %#x was taken for a duplicate of A's", got, uint64(addr))
	}
	if a.ForwardedFaults() != 1 || b.ForwardedFaults() != 1 {
		t.Errorf("forwarded faults A=%d B=%d, want 1 each", a.ForwardedFaults(), b.ForwardedFaults())
	}
}

// TestFaultAtAddressZeroForwards: a thread's first fault at lower-half
// address 0 is forwarded to the ROS, which maps the page, not taken for a
// repeat of a fault the thread never raised.
func TestFaultAtAddressZeroForwards(t *testing.T) {
	r := newRig(t)
	// A neighbour page makes the merge carry page 0's page tables, so the
	// ROS's mapping of page 0 is visible to the HRT at once.
	f, _ := r.m.Phys.Alloc(0)
	if err := r.ros.Map(0x1000, f, paging.PteUser|paging.PteWrite); err != nil {
		t.Fatal(err)
	}
	r.merge(t)
	ch := r.hv.NewEventChannel(1, 0)
	r.resolvingPartner(t, ch)
	th := r.k.CreateThread(r.clk, 1, Superposition{}, ch, nil)
	if err := th.Touch(0, true); err != nil {
		t.Fatal(err)
	}
	if th.ForwardedFaults() != 1 || th.Remerges() != 0 {
		t.Errorf("forwarded faults %d, re-merges %d; want 1, 0", th.ForwardedFaults(), th.Remerges())
	}
	if pte, _ := r.ros.Lookup(0); pte&paging.PtePresent == 0 {
		t.Error("ROS never mapped page 0")
	}
}

// TestRemergeChargesFaultingThread: a duplicate-fault re-merge, shootdown
// included, is paid by the faulting thread, also while another thread is
// running on the same core.
func TestRemergeChargesFaultingThread(t *testing.T) {
	touchCost := func(otherRunning bool) (cost cycles.Cycles, other cycles.Cycles) {
		r := newRig(t)
		r.merge(t)
		ch := r.hv.NewEventChannel(1, 0)
		r.resolvingPartner(t, ch)
		// A page in a PML4 slot the merge did not copy: the first fault
		// forwards, the second is a duplicate and re-merges.
		addr := uint64(0x0000_2000_0000_3000)
		f, _ := r.m.Phys.Alloc(0)
		if err := r.ros.Map(addr, f, paging.PteUser|paging.PteWrite); err != nil {
			t.Fatal(err)
		}
		a := r.k.CreateThread(r.clk, 1, Superposition{}, ch, nil)
		b := r.k.CreateThread(r.clk, 1, Superposition{}, ch, nil)
		release := make(chan struct{})
		if otherRunning {
			started := make(chan struct{})
			b.Start(func(*Thread) uint64 {
				close(started)
				<-release
				return 0
			})
			<-started
		}
		before, bBefore := a.Clock.Now(), b.Clock.Now()
		if err := a.Touch(addr, false); err != nil {
			t.Fatal(err)
		}
		if a.Remerges() != 1 {
			t.Fatalf("re-merges = %d, want 1", a.Remerges())
		}
		cost, other = a.Clock.Now()-before, b.Clock.Now()-bBefore
		close(release)
		return cost, other
	}
	alone, _ := touchCost(false)
	shared, other := touchCost(true)
	if shared != alone {
		t.Errorf("faulting thread paid %d cycles with another thread on its core, %d alone", shared, alone)
	}
	if other != 0 {
		t.Errorf("the other thread on the core was charged %d cycles", other)
	}
	cost := cycles.DefaultCostModel()
	// A full copy of the lower half, a local flush, and one IPI+flush to
	// the partition's second core.
	if min := paging.LowerHalfEntries*cost.PML4EntryCopy + 2*cost.TLBFlushLocal + cost.TLBShootdownIPI; alone < min {
		t.Errorf("faulting thread paid %d cycles, less than its re-merge's %d", alone, min)
	}
}

// TestMergeRequestPaysItsShootdown: a merge the ROS requests through the
// HVM pays its own TLB shootdown, also after an HRT thread has run on the
// core the AeroKernel's event loop serves it on.
func TestMergeRequestPaysItsShootdown(t *testing.T) {
	mergeCost := func(threadRan bool) cycles.Cycles {
		r := newRig(t)
		r.merge(t)
		if threadRan {
			r.k.CreateThread(r.clk, 1, Superposition{}, nil, nil).Run(func(*Thread) uint64 { return 0 })
		}
		start := r.clk.Now()
		r.merge(t)
		return r.clk.Now() - start
	}
	if idle, ran := mergeCost(false), mergeCost(true); idle != ran {
		t.Errorf("merge request took %d cycles after a thread ran on the boot core, %d before", ran, idle)
	}
}
