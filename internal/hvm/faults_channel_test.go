package hvm

import (
	"testing"
	"time"

	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/image"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
)

// newFaultedHVM builds an HVM with the fault plane armed under plan.
func newFaultedHVM(t *testing.T, plan faults.Plan) *HVM {
	t.Helper()
	m, err := machine.New(machine.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	fi, err := faults.New(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(m, Config{
		ROSCores: []machine.CoreID{0},
		HRTCores: []machine.CoreID{1, 4},
		Faults:   fi,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// serveChannel binds a partner that completes every accepted envelope
// with its first argument, and returns the partner's clock.
func serveChannel(c *EventChannel) *cycles.Clock {
	clk := cycles.NewClock(0)
	c.Bind(clk, func(env *Envelope) {
		c.Complete(clk, env, Reply{Res: linuxabi.Result{Ret: env.Call.Args[0]}})
	})
	return clk
}

// TestChannelDropRetransmits drops the first delivery of every request:
// the sender's virtual poll deadline must expire and the retransmission
// must complete the call, with the backoff visible in virtual time.
func TestChannelDropRetransmits(t *testing.T) {
	h := newFaultedHVM(t, faults.Plan{
		Seed: 2, MaxAttempts: 2,
		Rates: map[faults.Kind]float64{faults.DropNotify: 1},
	})
	c := h.NewEventChannel(1, 0)
	serveChannel(c)

	clean := newFaultedHVM(t, faults.Plan{Seed: 2}) // armed, all rates zero
	cc := clean.NewEventChannel(1, 0)
	serveChannel(cc)

	clk := cycles.NewClock(0)
	cleanClk := cycles.NewClock(0)
	r, err := c.Forward(clk, &Envelope{Kind: EvSyscall, Call: linuxabi.Call{Num: linuxabi.SysGetpid, Args: [6]uint64{42}}})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cc.Forward(cleanClk, &Envelope{Kind: EvSyscall, Call: linuxabi.Call{Num: linuxabi.SysGetpid, Args: [6]uint64{42}}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Res.Ret != 42 || rc.Res.Ret != 42 {
		t.Errorf("replies = %+v / %+v", r, rc)
	}
	if got := h.Metrics().Counter("faults.retransmit").Value(); got != 1 {
		t.Errorf("retransmits = %d, want 1", got)
	}
	// The lossy call must cost at least the initial poll deadline more
	// than the identically-plumbed clean call.
	if clk.Now() < cleanClk.Now()+60_000 {
		t.Errorf("lossy %d vs clean %d: no deadline charged", clk.Now(), cleanClk.Now())
	}
}

// TestChannelCorruptDetected corrupts the first delivery: the receiver's
// frame checksum must catch it (never servicing the damaged frame) and
// the retransmission completes the call.
func TestChannelCorruptDetected(t *testing.T) {
	h := newFaultedHVM(t, faults.Plan{
		Seed: 4, MaxAttempts: 2,
		Rates: map[faults.Kind]float64{faults.CorruptFrame: 1},
	})
	c := h.NewEventChannel(1, 0)
	serveChannel(c)

	clk := cycles.NewClock(0)
	r, err := c.Forward(clk, &Envelope{Kind: EvSyscall, Call: linuxabi.Call{Num: linuxabi.SysWrite, Args: [6]uint64{7}}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Res.Ret != 7 {
		t.Errorf("reply = %+v", r)
	}
	m := h.Metrics()
	if got := m.Counter("faults.corrupt.detected").Value(); got != 1 {
		t.Errorf("corrupt.detected = %d, want 1", got)
	}
	if got := m.Counter("faults.retransmit").Value(); got != 1 {
		t.Errorf("retransmits = %d, want 1", got)
	}
}

// TestChannelDupCoalesced duplicates every delivery: exactly one copy may
// be serviced; the other must be discarded by seqno dedup.
func TestChannelDupCoalesced(t *testing.T) {
	h := newFaultedHVM(t, faults.Plan{
		Seed:  6,
		Rates: map[faults.Kind]float64{faults.DupNotify: 1},
	})
	c := h.NewEventChannel(1, 0)

	served := 0
	clkSvc := cycles.NewClock(0)
	c.Bind(clkSvc, func(env *Envelope) {
		served++
		c.Complete(clkSvc, env, Reply{})
	})

	clk := cycles.NewClock(0)
	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := c.Forward(clk, &Envelope{Kind: EvSyscall, Call: linuxabi.Call{Num: linuxabi.SysGetpid}}); err != nil {
			t.Fatal(err)
		}
	}

	if served != calls {
		t.Errorf("served %d envelopes, want %d (duplicates double-applied)", served, calls)
	}
	if got := h.Metrics().Counter("faults.dedup").Value(); got == 0 {
		t.Error("no duplicates coalesced")
	}
}

// TestChannelRequeueRedelivers kills the partner mid-request (after
// delivery, before Complete) and checks that Requeue hands the in-flight
// envelope to the next partner generation within the same delivery,
// completing the blocked sender exactly once.
func TestChannelRequeueRedelivers(t *testing.T) {
	h := newFaultedHVM(t, faults.Plan{Seed: 8})
	c := h.NewEventChannel(1, 0)

	clkSvc := cycles.NewClock(0)
	var died *Envelope
	clk2 := cycles.NewClock(0)
	var replayed []Replayed
	c.Bind(clkSvc, func(env *Envelope) {
		// Die without completing: the envelope stays in flight. Recovery
		// binds the next generation at the dead partner's time and
		// requeues, and the delivery loop drains the replay to it.
		died = env
		clk2.SyncTo(clkSvc.Now())
		c.Bind(clk2, func(env *Envelope) {
			c.Complete(clk2, env, Reply{Res: linuxabi.Result{Ret: env.Call.Args[0]}})
		})
		replayed = c.Requeue(clk2.Now())
	})

	clk := cycles.NewClock(0)
	r, err := c.Forward(clk, &Envelope{Kind: EvSyscall, Call: linuxabi.Call{Num: linuxabi.SysGetpid, Args: [6]uint64{9}}})
	if err != nil {
		t.Fatal(err)
	}
	if died == nil || len(replayed) != 1 || replayed[0].Seq != died.Seq {
		t.Fatalf("replayed = %+v, want the dead partner's envelope", replayed)
	}
	if r.Res.Ret != 9 {
		t.Errorf("reply = %+v", r)
	}
	if r.Departure != clk2.Now() {
		t.Errorf("reply departed at %d, want the second generation's %d", r.Departure, clk2.Now())
	}
	if w := c.Window(); w.Completed != 1 || len(w.Inflight) != 0 || w.Redeliver != 0 {
		t.Errorf("window = %+v, want 1 completed, nothing in flight", w)
	}
}

// TestChannelDupCloseRace pins the duplicate-vs-close race: a
// duplicated thread-exit frame is queued for redelivery ahead of its own
// delivery, so the partner completes the exit from the duplicate and
// closes the channel before the frame itself is handed over. The sender
// must return the reply the duplicate earned, and the closed channel
// must deliver nothing more.
func TestChannelDupCloseRace(t *testing.T) {
	h := newFaultedHVM(t, faults.Plan{
		Seed: 3, Rates: map[faults.Kind]float64{faults.DupNotify: 1},
	})
	c := h.NewEventChannel(1, 0)
	clk := cycles.NewClock(0)
	served := 0
	c.Bind(clk, func(env *Envelope) {
		served++
		if env.Kind != EvThreadExit || env.ExitCode != 3 {
			t.Errorf("delivered %+v, want the duplicated thread exit", env)
		}
		c.Complete(clk, env, Reply{})
		c.Close()
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.Forward(cycles.NewClock(0), &Envelope{Kind: EvThreadExit, ExitCode: 3})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Forward = %v, want the reply the duplicate earned", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sender still blocked after Close")
	}
	if served != 1 {
		t.Errorf("served %d copies, want 1", served)
	}
	if v := h.Metrics().Counter("faults.dedup").Value(); v != 0 {
		t.Errorf("dedup = %d, want 0: a closed channel delivers nothing more", v)
	}
}

// openEcho boots h and opens a polled channel on clk between ROS core 0
// and HRT core 1, bound to a poller that echoes the first argument.
func openEcho(t *testing.T, h *HVM, clk *cycles.Clock) *PolledChannel {
	return openEchoOn(t, h, clk, 1)
}

// openEchoOn is openEcho with the HRT end on hrtCore.
func openEchoOn(t *testing.T, h *HVM, clk *cycles.Clock, hrtCore machine.CoreID) *PolledChannel {
	t.Helper()
	bootFake(t, h, clk)
	p, err := h.OpenPolled(clk, 0, hrtCore, Poller{
		Clock: cycles.NewClock(clk.Now()),
		Serve: func(call linuxabi.Call) linuxabi.Result { return linuxabi.Result{Ret: call.Args[0]} },
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// bootFake installs an image and boots the HRT on clk with a fake sink,
// which polled channels need before they open.
func bootFake(t *testing.T, h *HVM, clk *cycles.Clock) {
	t.Helper()
	h.RegisterBootHandler(func(BootInfo) (HRTSink, error) {
		return &fakeSink{clk: cycles.NewClock(0)}, nil
	})
	if err := h.InstallImage(clk, &image.Image{Name: "nk"}); err != nil {
		t.Fatal(err)
	}
	if err := h.BootHRT(clk); err != nil {
		t.Fatal(err)
	}
}

// TestSyncChannelDropRetransmits applies the poll-deadline policy to the
// polled channel: a dropped request frame goes unanswered and the repost
// completes the call.
func TestSyncChannelDropRetransmits(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		h := newFaultedHVM(t, faults.Plan{
			Seed: 10, MaxAttempts: 2,
			Rates: map[faults.Kind]float64{faults.DropNotify: 1},
		})
		clk := cycles.NewClock(0)
		p := openEcho(t, h, clk)

		res, err := p.Invoke(clk, linuxabi.Call{Num: linuxabi.SysGetpid, Args: [6]uint64{5}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != 5 {
			t.Errorf("res = %+v", res)
		}
		m := h.Metrics()
		if got := m.Counter("faults.retransmit").Value(); got != 1 {
			t.Errorf("retransmits = %d, want 1", got)
		}
		if got := m.Counter("sync.syscalls").Value(); got != 1 {
			t.Errorf("sync.syscalls = %d, want 1", got)
		}
	})
}
