package aerokernel

import (
	"fmt"
	"sync"
	"testing"

	"multiverse/internal/cycles"
	"multiverse/internal/hvm"
	"multiverse/internal/paging"
)

func TestSchedulerPlacementDeterministic(t *testing.T) {
	r := newRig(t)
	s := r.k.EnableScheduler()
	if s != r.k.EnableScheduler() {
		t.Fatal("EnableScheduler not idempotent")
	}
	// The rig's HRT partition is cores 1 and 2: placements must cycle
	// 1,2,1,2,... because balancing uses cumulative placement counts
	// (never decremented), not live load.
	clk := cycles.NewClock(0)
	var entries []*QueueEntry
	want := []int{1, 2, 1, 2, 1}
	for i, w := range want {
		c, e := s.PlaceTopLevel(clk, nil)
		entries = append(entries, e)
		if int(c) != w {
			t.Fatalf("placement %d: core %d, want %d", i, c, w)
		}
	}
	if got := s.Load(1); got != 3 {
		t.Errorf("core 1 load = %d, want 3", got)
	}
	// Retiring (here: cancelling) placements drops live load but must not
	// change where the next placement lands.
	for _, e := range entries {
		s.CancelEntry(e)
	}
	if got := s.Load(1); got != 0 {
		t.Errorf("core 1 load after cancel = %d, want 0", got)
	}
	if c, e := s.PlaceTopLevel(clk, nil); int(c) != 2 {
		t.Errorf("post-cancel placement on core %d, want 2 (cumulative counts persist)", c)
	} else {
		s.CancelEntry(e)
	}
	// Enqueues are charged to the placing clock.
	if clk.Now() == 0 {
		t.Error("placement charged nothing")
	}
}

func TestSchedulerSameCoreSerializes(t *testing.T) {
	r := newRig(t)
	s := r.k.EnableScheduler()
	clk := cycles.NewClock(0)

	c1, e1 := s.PlaceTopLevel(clk, nil)
	t1 := r.k.CreateThread(clk, c1, Superposition{}, nil, nil)
	t1.AttachQueueEntry(e1)

	c2, e2 := s.PlaceTopLevel(clk, nil)
	if c2 == c1 {
		t.Fatalf("second placement on core %d, want the other core", c2)
	}

	// Third placement wraps around onto c1, queued behind t1.
	c3, e3 := s.PlaceTopLevel(clk, nil)
	if c3 != c1 {
		t.Fatalf("third placement on core %d, want %d", c3, c1)
	}
	t3 := r.k.CreateThread(cycles.NewClock(0), c3, Superposition{}, nil, nil)
	t3.AttachQueueEntry(e3)

	const burn = 500_000
	t1.Start(func(th *Thread) uint64 {
		th.Clock.Advance(burn)
		return 0
	})
	t3.Start(func(th *Thread) uint64 { return 0 })
	t1.Join(cycles.NewClock(0))
	t3.Join(cycles.NewClock(0))

	// t3 became runnable at ~0 but must not start before t1 released the
	// core: same-core threads serialize in virtual time.
	if t3.Clock.Now() < burn {
		t.Errorf("t3 finished at %d, before its core predecessor released at %d", t3.Clock.Now(), cycles.Cycles(burn))
	}
	s.CancelEntry(e2)
}

func TestSchedulerSpinThenHalt(t *testing.T) {
	r := newRig(t)
	s := r.k.EnableScheduler()
	clk := cycles.NewClock(0)

	// First occupant releases core 1 almost immediately.
	c1, e1 := s.PlaceTopLevel(clk, nil)
	t1 := r.k.CreateThread(clk, c1, Superposition{}, nil, nil)
	t1.AttachQueueEntry(e1)
	t1.Start(func(th *Thread) uint64 { return 0 })
	t1.Join(cycles.NewClock(0))
	release := e1.release

	_, e2 := s.PlaceTopLevel(clk, nil) // occupies core 2; never run
	defer s.CancelEntry(e2)

	// The next core-1 thread arrives long after the spin window expired:
	// the core halted, so the placement pays the kick IPI and hlt wakeup.
	c3, e3 := s.PlaceTopLevel(clk, nil)
	if c3 != c1 {
		t.Fatalf("placement on core %d, want %d", c3, c1)
	}
	late := cycles.NewClock(release + s.SpinWindow() + 10_000)
	t3 := r.k.CreateThread(late, c3, Superposition{}, nil, nil)
	t3.AttachQueueEntry(e3)
	arrive := t3.Clock.Now()
	t3.Start(func(th *Thread) uint64 { return 0 })
	t3.Join(cycles.NewClock(0))

	wake := r.k.m.Cost.IPIKick + r.k.cost.IdleHaltWake
	if got := t3.Clock.Now() - arrive; got < wake {
		t.Errorf("late arrival charged %d, want at least kick+wake = %d", got, wake)
	}
	if halts := r.k.metrics.Counter("sched.idle.halt").Value(); halts == 0 {
		t.Error("sched.idle.halt counter not incremented")
	}
	if r.k.metrics.Counter("sched.place").Value() != 3 {
		t.Errorf("sched.place = %d, want 3", r.k.metrics.Counter("sched.place").Value())
	}
}

func TestSchedulerNestedPlacementAndRelease(t *testing.T) {
	r := newRig(t)
	s := r.k.EnableScheduler()
	clk := cycles.NewClock(0)
	_, e1 := s.PlaceTopLevel(clk, nil)
	defer s.CancelEntry(e1)
	top := r.k.CreateThread(clk, 1, Superposition{}, nil, nil)
	top.AttachQueueEntry(e1)

	// Nested threads spread over the partition instead of inheriting the
	// parent's core.
	n1 := top.CreateNested()
	n2 := top.CreateNested()
	if n1.Core == n2.Core {
		t.Errorf("nested threads both on core %d; want them spread", n1.Core)
	}
	l1, l2 := s.Load(1), s.Load(2)
	n1.Release()
	n2.Release()
	if s.Load(1) >= l1 && s.Load(2) >= l2 {
		t.Error("Release did not drop nested load")
	}
}

// TestConcurrentFaultsSameCoreRouteCorrectly is the regression test for the
// fault-misroute bug: two threads sharing a core and faulting concurrently
// used to interleave their installs as the core's current thread, so a
// fault could vector into the wrong thread and one thread read the other's
// fault status. Delivery is now thread-scoped: the frame carries the
// faulting thread, and no per-core record is left to interleave.
func TestConcurrentFaultsSameCoreRouteCorrectly(t *testing.T) {
	r := newRig(t)
	r.merge(t)

	mkServer := func(ch *hvm.EventChannel) {
		partnerClk := cycles.NewClock(0)
		ch.Bind(partnerClk, func(env *hvm.Envelope) {
			if env.Kind != hvm.EvPageFault {
				ch.Complete(partnerClk, env, hvm.Reply{})
				return
			}
			f, err := r.m.Phys.Alloc(0)
			ok := err == nil
			if ok {
				ok = r.ros.Map(paging.PageBase(env.FaultAddr), f, paging.PteUser|paging.PteWrite) == nil
			}
			ch.Complete(partnerClk, env, hvm.Reply{FaultOK: ok})
		})
	}

	ch1 := r.hv.NewEventChannel(1, 0)
	ch2 := r.hv.NewEventChannel(1, 0)
	mkServer(ch1)
	mkServer(ch2)
	defer ch1.Close()
	defer ch2.Close()

	// Both threads live on core 1 and fault on disjoint fresh pages at the
	// same host time.
	t1 := r.k.CreateThread(cycles.NewClock(0), 1, Superposition{}, ch1, nil)
	t2 := r.k.CreateThread(cycles.NewClock(0), 1, Superposition{}, ch2, nil)

	const pages = 40
	var wg sync.WaitGroup
	errs := make(chan error, 2*pages)
	touchLoop := func(th *Thread, base uint64) {
		defer wg.Done()
		for i := 0; i < pages; i++ {
			addr := base + uint64(i)*0x1000
			if err := th.Touch(addr, true); err != nil {
				errs <- fmt.Errorf("thread %d at %#x: %w", th.ID, addr, err)
				return
			}
		}
	}
	wg.Add(2)
	go touchLoop(t1, 0x7f10_0000_0000)
	go touchLoop(t2, 0x7f20_0000_0000)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
