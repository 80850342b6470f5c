package hvm

import (
	"testing"
	"time"

	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/linuxabi"
)

// TestChannelInterruptReplaysInflight exercises the channel half of a
// migration: the partner is interrupted (not killed) with one envelope
// accepted but never completed, the channel object survives, Requeue
// replays the in-flight envelope, and a fresh partner completes it —
// the blocked Forward unblocks exactly once, with no duplicate service.
func TestChannelInterruptReplaysInflight(t *testing.T) {
	h := newFaultedHVM(t, faults.Plan{Seed: 9}) // armed, all rates zero
	c := h.NewEventChannel(1, 0)
	c.ArmPartnerInterrupt()

	type fwd struct {
		r   Reply
		err error
	}
	got := make(chan fwd, 1)
	go func() {
		clk := cycles.NewClock(0)
		r, err := c.Forward(clk, &Envelope{Kind: EvSyscall,
			Call: linuxabi.Call{Num: linuxabi.SysGetpid, Args: [6]uint64{77}}})
		got <- fwd{r, err}
	}()

	// Partner 1 accepts the envelope but never completes it, then parks
	// in Recv — the quiesced posture the grid interrupts at.
	taken := make(chan *Envelope, 1)
	p1done := make(chan struct{})
	go func() {
		defer close(p1done)
		clk := cycles.NewClock(0)
		taken <- c.Recv(clk)
		if e := c.Recv(clk); e != nil {
			t.Error("interrupted Recv delivered an envelope")
		}
	}()
	env := <-taken
	if env == nil {
		t.Fatal("partner 1 got no envelope")
	}
	// Let partner 1 park in its second Recv before interrupting; the
	// grid gets this for free from the quiesce-point invariant.
	time.Sleep(20 * time.Millisecond)
	c.InterruptPartner()
	<-p1done

	replayed := c.Requeue(cycles.Cycles(12_345))
	if len(replayed) != 1 || replayed[0].Seq != env.Seq {
		t.Fatalf("Requeue = %+v, want 1 entry with seq %d", replayed, env.Seq)
	}

	// Restored partner on the "target node": re-arm and serve.
	c.ArmPartnerInterrupt()
	done := serveChannel(c)
	res := <-got
	if res.err != nil {
		t.Fatalf("Forward: %v", res.err)
	}
	if res.r.Res.Ret != 77 {
		t.Errorf("reply = %d, want 77", res.r.Res.Ret)
	}
	w := c.Window()
	if w.Completed != 1 || len(w.Inflight) != 0 || w.Redeliver != 0 {
		t.Errorf("window = %+v, want 1 completed, nothing in flight", w)
	}
	if v := h.Metrics().Counter("faults.dedup").Value(); v != 0 {
		t.Errorf("dedup = %d, want 0 (envelope serviced twice?)", v)
	}
	c.Close()
	<-done
}

// TestChannelInterruptBeforeRecv: the grid may interrupt a quiesced
// partner before that partner has looped back into Recv (it has just
// completed the previous call). The interrupt must still stop it there,
// and only the restore's re-arm clears the line.
func TestChannelInterruptBeforeRecv(t *testing.T) {
	h := newFaultedHVM(t, faults.Plan{Seed: 9})
	c := h.NewEventChannel(1, 0)
	c.ArmPartnerInterrupt()
	c.InterruptPartner()
	c.InterruptPartner() // a second interrupt before the restore is a no-op

	stopped := make(chan *Envelope, 1)
	go func() { stopped <- c.Recv(cycles.NewClock(0)) }()
	select {
	case env := <-stopped:
		if env != nil {
			t.Fatal("interrupted Recv delivered an envelope")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv entered after the interrupt blocked instead of stopping")
	}

	c.ArmPartnerInterrupt()
	done := serveChannel(c)
	r, err := c.Forward(cycles.NewClock(0), &Envelope{Kind: EvSyscall,
		Call: linuxabi.Call{Num: linuxabi.SysGetpid, Args: [6]uint64{5}}})
	if err != nil || r.Res.Ret != 5 {
		t.Fatalf("Forward after re-arm = %d, %v; want 5", r.Res.Ret, err)
	}
	c.Close()
	<-done
}

// TestChannelRetransmitBoundRejects pins the bounded retransmission
// window: with the duplicate rate forced on and a bound of one, the
// first forward's duplicate occupies the window, the second forward's
// duplicate is rejected — counted, and the channel degrades to
// reliable transport — and both calls still complete once a partner
// serves.
func TestChannelRetransmitBoundRejects(t *testing.T) {
	h := newFaultedHVM(t, faults.Plan{
		Seed: 11, MaxAttempts: 3, RetransmitBound: 1,
		Rates: map[faults.Kind]float64{faults.DupNotify: 1},
	})
	c := h.NewEventChannel(1, 0)

	type fwd struct {
		r   Reply
		err error
	}
	forward := func(arg uint64) chan fwd {
		out := make(chan fwd, 1)
		go func() {
			clk := cycles.NewClock(0)
			r, err := c.Forward(clk, &Envelope{Kind: EvSyscall,
				Call: linuxabi.Call{Num: linuxabi.SysGetpid, Args: [6]uint64{arg}}})
			out <- fwd{r, err}
		}()
		return out
	}
	depth := h.Metrics().Gauge("faults.retransmit.depth")
	rejected := h.Metrics().Counter("faults.retransmit.rejected")

	// Forward 1: its duplicate is appended to the redelivery queue
	// (window depth 1) before the wire post, so waiting on the gauge
	// fully orders the two forwards.
	got1 := forward(1)
	for depth.Value() != 1 {
		time.Sleep(time.Millisecond)
	}
	// Forward 2: the window is at the bound, so its duplicate must be
	// rejected and the channel degraded instead of growing the queue.
	got2 := forward(2)
	for rejected.Value() != 1 {
		time.Sleep(time.Millisecond)
	}
	if d := depth.Value(); d != 1 {
		t.Errorf("depth after rejection = %d, want 1 (queue must not grow)", d)
	}

	// Graceful degradation: with a partner serving, both calls complete
	// exactly once — the surviving duplicate coalesces by seqno.
	done := serveChannel(c)
	r1, r2 := <-got1, <-got2
	if r1.err != nil || r2.err != nil {
		t.Fatalf("forwards errored: %v / %v", r1.err, r2.err)
	}
	if r1.r.Res.Ret != 1 || r2.r.Res.Ret != 2 {
		t.Errorf("replies = %d / %d, want 1 / 2", r1.r.Res.Ret, r2.r.Res.Ret)
	}
	if v := rejected.Value(); v != 1 {
		t.Errorf("rejected = %d, want 1", v)
	}
	if v := h.Metrics().Counter("faults.dedup").Value(); v != 1 {
		t.Errorf("dedup = %d, want 1 (forward 1's surviving duplicate)", v)
	}
	c.Close()
	<-done
}
