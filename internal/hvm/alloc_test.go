package hvm

import (
	"testing"

	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
)

// The forwarding planes' steady states are allocation-free: a recycled
// envelope, frames passed by value, metric handles resolved at setup,
// spans built only while tracing. These tests pin that property for the
// router's polled channel (also Figure 2's synchronous channel) and the
// event channel, and bound the armed fault plane's bookkeeping.

// TestSyncInvokeSteadyStateAllocationFree pins Figure 2's synchronous
// channel as the figure drives it: a polled channel opened after boot,
// invoked from the ROS side against an HRT poller on either socket.
func TestSyncInvokeSteadyStateAllocationFree(t *testing.T) {
	for _, hrtCore := range []machine.CoreID{1, 4} {
		_, h := newHVM(t)
		clk := cycles.NewClock(0)
		p := openEchoOn(t, h, clk, hrtCore)

		call := linuxabi.Call{Args: [6]uint64{42}}
		invoke := func() {
			if res, err := p.Invoke(clk, call, 0); err != nil || res.Ret != 42 {
				t.Fatalf("sync invoke = %d, %v; want 42", res.Ret, err)
			}
		}
		// Warm: the first invocations settle any lazily-built state.
		for i := 0; i < 4; i++ {
			invoke()
		}
		if n := testing.AllocsPerRun(500, invoke); n != 0 {
			t.Errorf("sync invoke to HRT core %d allocates %.1f per round trip, want 0", hrtCore, n)
		}
	}
}

// TestEventChannelForwardAllocs pins the asynchronous round trip. With
// or without an armed fault plane the envelope is recycled, since at
// zero rates no duplicate is ever queued. The armed
// window's completed-seqno map still grows, but AllocsPerRun reports
// whole allocations per run and that growth amortizes to under one.
func TestEventChannelForwardAllocs(t *testing.T) {
	_, clean := newHVM(t)
	for _, tc := range []struct {
		name string
		h    *HVM
		max  float64
	}{
		{"nil-injector", clean, 0},
		{"armed-zero-rate", newFaultedHVM(t, faults.Plan{Seed: 9}), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.h.NewEventChannel(1, 0)
			serveChannel(c)
			clk := cycles.NewClock(0)
			forward := func() {
				env := c.NewEnvelope()
				env.Kind = EvSyscall
				env.Call = linuxabi.Call{Num: linuxabi.SysGetpid, Args: [6]uint64{7}}
				if r, err := c.Forward(clk, env); err != nil || r.Res.Ret != 7 {
					t.Fatalf("forward = %d, %v; want 7", r.Res.Ret, err)
				}
			}
			for i := 0; i < 4; i++ {
				forward()
			}
			n := testing.AllocsPerRun(500, forward)
			t.Logf("%.2f allocs per round trip", n)
			if n > tc.max {
				t.Errorf("forward allocates %.1f per round trip, want <= %.0f", n, tc.max)
			}
		})
	}
}

func TestSyncSyscallInvokeSteadyStateAllocationFree(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		_, h := newHVM(t)
		clk := cycles.NewClock(0)
		p := openEcho(t, h, clk)

		call := linuxabi.Call{Num: linuxabi.SysIoctl, Args: [6]uint64{9}}
		for i := 0; i < 4; i++ {
			if _, err := p.Invoke(clk, call, 1); err != nil {
				t.Fatal(err)
			}
		}

		if n := testing.AllocsPerRun(500, func() {
			if _, err := p.Invoke(clk, call, 1); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("sync invoke allocates %.1f per round trip, want 0", n)
		}
	})
}

// TestRequeueStormBoundedAllocs drives a respawn storm through the
// retransmission window: the same eight envelopes are accepted (never
// completed) and requeued over and over, as a crash-looping partner
// would leave them. Each Requeue must reuse its staging slices — cost
// per respawn is a small constant, independent of how long the storm has
// been running — and the replay must keep seqno order.
func TestRequeueStormBoundedAllocs(t *testing.T) {
	h := newFaultedHVM(t, faults.Plan{Seed: 9}) // armed, all rates zero
	c := h.NewEventChannel(1, 0)
	const depth = 8

	envs := make([]*Envelope, depth)
	for i := range envs {
		envs[i] = &Envelope{Kind: EvSyscall, Seq: uint64(depth - i)}
		c.win.accept(envs[i]) // all eight in flight, partner "dies"
	}
	svc := cycles.NewClock(0)
	storm := func() {
		if n := len(c.Requeue(svc.Now())); n != depth {
			t.Fatalf("requeued %d, want %d", n, depth)
		}
		for want := uint64(1); want <= depth; want++ {
			env := c.win.take()
			if env == nil || env.Seq != want {
				t.Fatalf("replayed %+v, want seq %d", env, want)
			}
			c.win.accept(env)
		}
	}
	storm() // warm the scratch slices

	n := testing.AllocsPerRun(100, storm)
	// A respawn cycle pays a handful of fixed allocations (the Replayed
	// result slice, sort machinery) but nothing proportional to storm
	// length; before the scratch slices it was a fresh queue per respawn.
	if n > 8 {
		t.Errorf("respawn cycle allocates %.1f, want a small constant (<= 8)", n)
	}
}
