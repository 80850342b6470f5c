package hvm

import (
	"testing"
	"time"

	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/linuxabi"
)

// TestChannelRestoreReplaysInflight exercises the channel half of a
// restore: partner 1 accepts an envelope and is replaced before it
// completes it. The checkpointed window lists the envelope in flight,
// the channel object survives, Requeue replays it, and the restored
// partner completes it within the same delivery — the blocked Forward
// returns exactly once, with no duplicate service, stamped by the
// restored partner's clock.
func TestChannelRestoreReplaysInflight(t *testing.T) {
	h := newFaultedHVM(t, faults.Plan{Seed: 9}) // armed, all rates zero
	c := h.NewEventChannel(1, 0)

	p1 := cycles.NewClock(0)
	restored := cycles.NewClock(0)
	var cp ChannelWindow
	var replayed []Replayed
	served := 0
	c.Bind(p1, func(env *Envelope) {
		// Partner 1 is replaced mid-service: checkpoint, then restore a
		// fresh partner at partner 1's time plus a transfer.
		cp = c.Window()
		restored.SyncTo(p1.Now() + 12_345)
		c.Bind(restored, func(env *Envelope) {
			served++
			c.Complete(restored, env, Reply{Res: linuxabi.Result{Ret: env.Call.Args[0]}})
		})
		replayed = c.Requeue(restored.Now())
	})

	r, err := c.Forward(cycles.NewClock(0), &Envelope{Kind: EvSyscall,
		Call: linuxabi.Call{Num: linuxabi.SysGetpid, Args: [6]uint64{77}}})
	if err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if len(cp.Inflight) != 1 || len(replayed) != 1 || replayed[0].Seq != cp.Inflight[0] {
		t.Fatalf("checkpoint in flight %v, replayed %+v: want the one envelope", cp.Inflight, replayed)
	}
	if r.Res.Ret != 77 || served != 1 {
		t.Errorf("reply = %d after %d services, want 77 after 1", r.Res.Ret, served)
	}
	if r.Departure != restored.Now() {
		t.Errorf("reply departed at %d, want the restored partner's %d", r.Departure, restored.Now())
	}
	w := c.Window()
	if w.Completed != 1 || len(w.Inflight) != 0 || w.Redeliver != 0 {
		t.Errorf("window = %+v, want 1 completed, nothing in flight", w)
	}
	if v := h.Metrics().Counter("faults.dedup").Value(); v != 0 {
		t.Errorf("dedup = %d, want 0 (envelope serviced twice?)", v)
	}
}

// TestChannelRetransmitBoundRejects pins the bounded retransmission
// window: with the duplicate rate forced on and a bound of one, a
// second forwarder's duplicate finds the window at its bound (the first
// forward is in service, in flight) and is rejected — counted, and the
// channel degrades to reliable transport — and both calls still
// complete exactly once.
func TestChannelRetransmitBoundRejects(t *testing.T) {
	h := newFaultedHVM(t, faults.Plan{
		Seed: 11, MaxAttempts: 3, RetransmitBound: 1,
		Rates: map[faults.Kind]float64{faults.DupNotify: 1},
	})
	c := h.NewEventChannel(1, 0)
	depth := h.Metrics().Gauge("faults.retransmit.depth")
	rejected := h.Metrics().Counter("faults.retransmit.rejected")

	type fwd struct {
		r   Reply
		err error
	}
	forward := func(arg uint64) chan fwd {
		out := make(chan fwd, 1)
		go func() {
			r, err := c.Forward(cycles.NewClock(0), &Envelope{Kind: EvSyscall,
				Call: linuxabi.Call{Num: linuxabi.SysGetpid, Args: [6]uint64{arg}}})
			out <- fwd{r, err}
		}()
		return out
	}

	clk := cycles.NewClock(0)
	var got2 chan fwd
	var depthAtReject uint64
	c.Bind(clk, func(env *Envelope) {
		if env.Call.Args[0] == 1 && got2 == nil {
			// Forward 1 is in service and in flight (window depth 1):
			// forward 2's duplicate must be rejected instead of growing
			// the queue. Forward 2 then waits for the service.
			got2 = forward(2)
			deadline := time.Now().Add(10 * time.Second)
			for rejected.Value() != 1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			depthAtReject = depth.Value()
		}
		c.Complete(clk, env, Reply{Res: linuxabi.Result{Ret: env.Call.Args[0]}})
	})

	r1 := <-forward(1)
	r2 := <-got2
	if r1.err != nil || r2.err != nil {
		t.Fatalf("forwards errored: %v / %v", r1.err, r2.err)
	}
	if r1.r.Res.Ret != 1 || r2.r.Res.Ret != 2 {
		t.Errorf("replies = %d / %d, want 1 / 2", r1.r.Res.Ret, r2.r.Res.Ret)
	}
	if v := rejected.Value(); v != 1 {
		t.Errorf("rejected = %d, want 1", v)
	}
	if depthAtReject != 1 {
		t.Errorf("depth at rejection = %d, want 1 (queue must not grow)", depthAtReject)
	}
	if v := h.Metrics().Counter("faults.dedup").Value(); v != 1 {
		t.Errorf("dedup = %d, want 1 (forward 1's surviving duplicate)", v)
	}
}
