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

// serveChannel runs a service loop completing every accepted envelope.
func serveChannel(c *EventChannel) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		clk := cycles.NewClock(0)
		for {
			env := c.Recv(clk)
			if env == nil {
				return
			}
			c.Complete(clk, env, Reply{Res: linuxabi.Result{Ret: env.Call.Args[0]}})
		}
	}()
	return done
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
	done := serveChannel(c)

	clean := newFaultedHVM(t, faults.Plan{Seed: 2}) // armed, all rates zero
	cc := clean.NewEventChannel(1, 0)
	cleanDone := serveChannel(cc)

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
	c.Close()
	cc.Close()
	<-done
	<-cleanDone
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
	done := serveChannel(c)

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
	c.Close()
	<-done
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
	svcDone := make(chan struct{})
	go func() {
		defer close(svcDone)
		for {
			env := c.Recv(clkSvc)
			if env == nil {
				return
			}
			served++
			c.Complete(clkSvc, env, Reply{})
		}
	}()

	clk := cycles.NewClock(0)
	const calls = 5
	for i := 0; i < calls; i++ {
		if _, err := c.Forward(clk, &Envelope{Kind: EvSyscall, Call: linuxabi.Call{Num: linuxabi.SysGetpid}}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	<-svcDone

	if served != calls {
		t.Errorf("served %d envelopes, want %d (duplicates double-applied)", served, calls)
	}
	if got := h.Metrics().Counter("faults.dedup").Value(); got == 0 {
		t.Error("no duplicates coalesced")
	}
}

// TestChannelRequeueRedelivers kills the service loop mid-request (after
// Recv, before Complete) and checks that Requeue hands the in-flight
// envelope to the next service generation, completing the blocked sender.
func TestChannelRequeueRedelivers(t *testing.T) {
	h := newFaultedHVM(t, faults.Plan{Seed: 8})
	c := h.NewEventChannel(1, 0)

	received := make(chan *Envelope, 1)
	clkSvc := cycles.NewClock(0)
	go func() {
		env := c.Recv(clkSvc)
		received <- env
		// Die without completing: the envelope stays in-flight.
	}()

	got := make(chan Reply, 1)
	clk := cycles.NewClock(0)
	go func() {
		r, err := c.Forward(clk, &Envelope{Kind: EvSyscall, Call: linuxabi.Call{Num: linuxabi.SysGetpid, Args: [6]uint64{9}}})
		if err != nil {
			return
		}
		got <- r
	}()

	env := <-received
	if env == nil {
		t.Fatal("service loop got no envelope")
	}
	if n := c.Requeue(clkSvc.Now()); len(n) != 1 {
		t.Fatalf("Requeue = %d, want 1", len(n))
	}
	// Second generation drains the redeliver queue and completes it.
	clk2 := cycles.NewClock(clkSvc.Now())
	env2 := c.Recv(clk2)
	if env2 == nil || env2.Seq != env.Seq {
		t.Fatalf("redelivered envelope = %+v", env2)
	}
	c.Complete(clk2, env2, Reply{Res: linuxabi.Result{Ret: 9}})
	r := <-got
	if r.Res.Ret != 9 {
		t.Errorf("reply = %+v", r)
	}
	c.Close()
}

// TestChannelDupCloseRace pins the duplicate-vs-close race: a
// duplicated thread-exit frame is queued for redelivery before its wire
// send, so the partner can complete the exit from the duplicate and close
// the channel while the sender is still blocked on the send. The send
// must return with the reply, not panic on a closed channel.
func TestChannelDupCloseRace(t *testing.T) {
	h := newFaultedHVM(t, faults.Plan{
		Seed: 3, Rates: map[faults.Kind]float64{faults.DupNotify: 1},
	})
	c := h.NewEventChannel(1, 0)
	for len(c.pending) < cap(c.pending) {
		c.pending <- &Envelope{Kind: EvSyscall} // a full wire blocks the send
	}
	got := make(chan error, 1)
	go func() {
		_, err := c.Forward(cycles.NewClock(0), &Envelope{Kind: EvThreadExit, ExitCode: 3})
		got <- err
	}()
	for queued := 0; queued == 0; {
		time.Sleep(time.Millisecond)
		c.win.mu.Lock()
		queued = len(c.win.redeliver)
		c.win.mu.Unlock()
	}

	clk := cycles.NewClock(0)
	env := c.Recv(clk)
	if env == nil || env.Kind != EvThreadExit || env.ExitCode != 3 {
		t.Fatalf("Recv = %+v, want the duplicated thread exit", env)
	}
	c.Complete(clk, env, Reply{})
	c.Close()
	select {
	case err := <-got:
		if err != nil {
			t.Errorf("Forward = %v, want the reply the duplicate earned", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sender still blocked after Close")
	}
}

// openEcho boots h, opens a polled channel of kind on clk between ROS
// core 0 and HRT core 1, and serves it on its own goroutine with a
// handler that echoes the first argument. done closes when the poller's
// Serve reports the channel closed.
func openEcho(t *testing.T, h *HVM, clk *cycles.Clock, kind PollKind) (p *PolledChannel, done chan struct{}) {
	return openEchoOn(t, h, clk, kind, 1)
}

// openEchoOn is openEcho with the HRT end on hrtCore.
func openEchoOn(t *testing.T, h *HVM, clk *cycles.Clock, kind PollKind, hrtCore machine.CoreID) (p *PolledChannel, done chan struct{}) {
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
	p, err := h.OpenPolled(clk, kind, 0, hrtCore)
	if err != nil {
		t.Fatal(err)
	}
	svcClk := cycles.NewClock(clk.Now())
	done = make(chan struct{})
	go func() {
		defer close(done)
		for p.Serve(svcClk, func(call linuxabi.Call) linuxabi.Result {
			return linuxabi.Result{Ret: call.Args[0]}
		}) {
		}
	}()
	return p, done
}

// TestSyncChannelDropRetransmits applies the poll-deadline policy to both
// polled channels: a dropped request frame goes unanswered and the
// repost completes the call, without a VM exit on the rings.
func TestSyncChannelDropRetransmits(t *testing.T) {
	for _, kind := range []PollKind{PollSync, PollRing} {
		t.Run(pollKinds[kind].name, func(t *testing.T) {
			h := newFaultedHVM(t, faults.Plan{
				Seed: 10, MaxAttempts: 2,
				Rates: map[faults.Kind]float64{faults.DropNotify: 1},
			})
			clk := cycles.NewClock(0)
			p, done := openEcho(t, h, clk, kind)

			res, _, err := p.Invoke(clk, linuxabi.Call{Num: linuxabi.SysGetpid, Args: [6]uint64{5}}, 0)
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
			name := pollKinds[kind].name
			if got := m.Counter(name + ".syscalls").Value(); got != 1 {
				t.Errorf("%s.syscalls = %d, want 1", name, got)
			}
			if got := m.Counter("exits." + name).Value(); got != 0 {
				t.Errorf("exits.%s = %d, want 0", name, got)
			}
			p.Close()
			<-done
		})
	}
}
