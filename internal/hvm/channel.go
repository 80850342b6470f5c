package hvm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/telemetry"
)

// EventKind classifies what an execution group is converging on.
type EventKind int

const (
	// EvSyscall forwards a system call from the HRT to the ROS.
	EvSyscall EventKind = iota + 1
	// EvPageFault forwards a page fault in the ROS portion of the virtual
	// address space; the ROS-side library replicates the access so the
	// same exception occurs on the ROS core and is handled normally.
	EvPageFault
	// EvThreadExit notifies the ROS side that the HRT thread exited (the
	// partner thread then runs its cleanup and exits, unblocking join).
	EvThreadExit

	numEventKinds
)

// eventNames is indexed by EventKind — the String() hot path is an array
// load, not a map lookup.
var eventNames = [numEventKinds]string{
	EvSyscall:    "syscall",
	EvPageFault:  "page-fault",
	EvThreadExit: "thread-exit",
}

// String names the event kind.
func (k EventKind) String() string {
	if k > 0 && int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Precomputed span names keep the per-forward tracing calls concat-free
// (the arguments are evaluated even when tracing is off).
var forwardSpanNames, serviceSpanNames [numEventKinds]string

func init() {
	for k := EventKind(1); k < numEventKinds; k++ {
		forwardSpanNames[k] = "forward:" + k.String()
		serviceSpanNames[k] = "service:" + k.String()
	}
}

func forwardSpanName(k EventKind) string {
	if k > 0 && k < numEventKinds {
		return forwardSpanNames[k]
	}
	return "forward:" + k.String()
}

func serviceSpanName(k EventKind) string {
	if k > 0 && k < numEventKinds {
		return serviceSpanNames[k]
	}
	return "service:" + k.String()
}

// Envelope is one request crossing an event channel from HRT to ROS.
type Envelope struct {
	Kind EventKind

	// Syscall payload.
	Call linuxabi.Call

	// Page-fault payload (x86 error-code information).
	FaultAddr  uint64
	FaultWrite bool

	// ExitCode accompanies EvThreadExit.
	ExitCode uint64

	// Arrival is the virtual time at which the request reaches the ROS
	// partner thread.
	Arrival cycles.Cycles

	// Seq is this channel's sequence number for the request; the ROS side
	// coalesces duplicate deliveries by it. Zero until Forward stamps it.
	Seq uint64
	// Checksum is the per-frame integrity word (faults.Checksum over the
	// identifying fields); zero means "no checksum on the wire" (fault
	// plane disabled).
	Checksum uint64
	// Retransmits counts how many times the poll deadline expired and the
	// request was resent before this Forward returned.
	Retransmits int

	// ReqID is the causal request id allocated at the AeroKernel syscall
	// (or fault) entry and carried across every hop, retry, and replay of
	// this request; 0 when the origin predates id allocation (boot-time
	// control traffic).
	ReqID uint64

	reply chan Reply
	// pooled marks an envelope acquired from its channel's free list, so
	// only those are recycled (caller-constructed envelopes are left
	// alone).
	pooled bool

	// flow is the deterministic cross-track link id stitching the HRT
	// forward span to the ROS service span; span is the open service
	// span between Recv and Complete.
	flow uint64
	span *telemetry.Span
}

// Reply is the ROS side's completion of an Envelope.
type Reply struct {
	Res linuxabi.Result
	// FaultOK reports that a forwarded fault was resolved (page now
	// mapped / handler ran); false means the access is genuinely invalid
	// and the HRT should treat it as fatal.
	FaultOK bool
	// Departure is the virtual time the reply left the ROS side.
	Departure cycles.Cycles
}

// EventChannel is the VMM-mediated communication path of one execution
// group: the HRT thread on one end, its ROS partner thread on the other.
// The VMM "only expects that the execution group adheres to a strict
// protocol for event requests and completion" (section 3.2).
type EventChannel struct {
	hvm     *HVM
	id      uint64
	hrtCore machine.CoreID
	rosCore machine.CoreID
	// svcName is the partner-side trace track name, formatted once.
	svcName string

	// pending is the wire. It is never closed: done signals teardown, so
	// a send that loses a race with Close (a duplicate completed the
	// request and the partner closed the channel) cannot panic.
	pending   chan *Envelope
	done      chan struct{}
	closeOnce sync.Once

	// seq numbers this channel's forwards; combined with the channel id
	// it yields flow ids that depend only on program order, never on
	// goroutine scheduling.
	seq atomic.Uint64

	// reliable suppresses fault injection on this channel: set when the
	// group degrades to ROS-only execution, so the residual control
	// traffic (thread exit) cannot be lost again.
	reliable atomic.Bool

	// win is the receiver-side retransmission window; nil while the
	// fault plane is off.
	win *retxWindow

	// Envelope recycling: one Forward is outstanding per channel in the
	// steady state, so a one-slot free list (with the envelope's reply
	// channel riding along) makes the round trip allocation-free. A
	// forward whose duplicate is queued for redelivery is not recycled —
	// the queue still holds the envelope.
	fmu     sync.Mutex
	freeEnv *Envelope

	// Cached per-kind metric handles, resolved once at channel creation
	// instead of a registry lookup (and two string concats) per Forward.
	fwdCtr [numEventKinds]*telemetry.Counter
	fwdLat [numEventKinds]*telemetry.Histogram

	// Partner-interrupt plumbing for grid migration. halt, when armed,
	// lets the grid stop the partner's Recv loop without closing the
	// channel: the channel object — pending queue, seqno counter, and
	// the whole retransmission window — survives the move, and the
	// restored partner on the target node keeps serving it. halt is nil
	// on non-grid groups.
	hltMu sync.Mutex
	halt  chan struct{}
}

// errChannelClosed is Forward's error once the channel is torn down.
var errChannelClosed = errors.New("hvm: event channel closed")

// NewEventChannel creates the channel for an execution group whose HRT
// thread runs on hrtCore and whose partner runs on rosCore.
func (h *HVM) NewEventChannel(hrtCore, rosCore machine.CoreID) *EventChannel {
	c := &EventChannel{
		hvm:     h,
		id:      atomic.AddUint64(&h.channelSeq, 1),
		hrtCore: hrtCore,
		rosCore: rosCore,
		done:    make(chan struct{}),
		win:     newRetxWindow(h.faults, h.metrics),
	}
	c.pending = make(chan *Envelope, c.win.wireDepth())
	c.svcName = fmt.Sprintf("ros:svc:%d", c.id)
	for k := EventKind(1); k < numEventKinds; k++ {
		c.fwdCtr[k] = h.metrics.Counter("forward." + k.String())
		c.fwdLat[k] = h.metrics.LatencyHistogram("forward." + k.String() + ".latency")
	}
	return c
}

// NewEnvelope returns a zeroed envelope for the next Forward on this
// channel, recycling the scratch envelope (and its reply channel) when
// one is free.
func (c *EventChannel) NewEnvelope() *Envelope {
	c.fmu.Lock()
	env := c.freeEnv
	c.freeEnv = nil
	c.fmu.Unlock()
	if env == nil {
		return &Envelope{pooled: true}
	}
	reply := env.reply
	*env = Envelope{reply: reply, pooled: true}
	return env
}

// releaseEnv returns a pooled envelope to the free list once its round
// trip has fully completed.
func (c *EventChannel) releaseEnv(env *Envelope) {
	if !env.pooled {
		return
	}
	c.fmu.Lock()
	if c.freeEnv == nil {
		c.freeEnv = env
	}
	c.fmu.Unlock()
}

// ID returns the channel's deterministic id (fault-injection site key).
func (c *EventChannel) ID() uint64 { return c.id }

// ArmPartnerInterrupt arms (or re-arms, after a restore) the halt line
// that InterruptPartner closes. Grid-hosted groups arm it at spawn; a
// restored group re-arms it before its new partner starts serving. A
// closed channel is never re-armed: its halt line is its stop line.
func (c *EventChannel) ArmPartnerInterrupt() {
	c.hltMu.Lock()
	if !closed(c.done) && (c.halt == nil || closed(c.halt)) {
		c.halt = make(chan struct{})
	}
	c.hltMu.Unlock()
}

// InterruptPartner stops the partner's receive loop without closing the
// channel: the blocked Recv returns nil, the serve loop exits without
// running its teardown (the group is relocating, not dying), and every
// envelope still queued or in flight survives for the restored partner
// on the target node. Callers must only interrupt a quiesced partner
// (nothing pending on the wire) — the quiesce-point invariant — so the
// pending-vs-halt select below can never race a live delivery. The
// closed line stays in place until the restore re-arms it: a partner
// that reaches Recv only after the interrupt still sees it and stops.
func (c *EventChannel) InterruptPartner() {
	c.hltMu.Lock()
	if c.halt != nil && !closed(c.halt) {
		close(c.halt)
	}
	c.hltMu.Unlock()
}

// closed reports whether a signal line has been closed.
func closed(h chan struct{}) bool {
	select {
	case <-h:
		return true
	default:
		return false
	}
}

// recvPending blocks for the next wire delivery; it returns nil once the
// channel is closed or the partner interrupt fires. Close also closes an
// armed halt line, so one stop line covers both.
func (c *EventChannel) recvPending() *Envelope {
	c.hltMu.Lock()
	stop := c.halt
	c.hltMu.Unlock()
	if stop == nil {
		stop = c.done
	}
	select {
	case env := <-c.pending:
		return env
	case <-stop:
		return nil
	}
}

// hrtTrack is the trace track of the HRT thread driving this channel.
func (c *EventChannel) hrtTrack() telemetry.Track {
	return telemetry.Track{Core: int(c.hrtCore), Name: "hrt"}
}

// svcTrack is the trace track of the ROS partner thread servicing this
// channel. Naming it per channel keeps each partner's span stack private,
// so parent/child inference never depends on goroutine interleaving.
func (c *EventChannel) svcTrack() telemetry.Track {
	return telemetry.Track{Core: int(c.rosCore), Name: c.svcName}
}

// Forward sends an envelope from the HRT side and blocks until the ROS
// side completes it. clk is the HRT thread's clock; it pays the full
// request leg and is synchronized to the reply's arrival.
//
// Cost structure of one round trip (the ~25K-cycle asynchronous path of
// Figure 2): post to the shared page, hypercall, VMM records the raise and
// waits for a user-mode injection window in the ROS, frame injection into
// the partner thread, partner wakeup; then on completion a post, a
// hypercall, injection back into the HRT, and guest re-entry.
func (c *EventChannel) Forward(clk *cycles.Clock, env *Envelope) (Reply, error) {
	if closed(c.done) {
		return Reply{}, errChannelClosed
	}
	seq := c.seq.Add(1)
	env.Seq = seq
	env.flow = flowID(c.id, seq)

	tr := c.hvm.tracer
	start := clk.Now()
	// Attr-carrying span starts are guarded: building the variadic attr
	// slice costs a heap allocation even when tracing is off.
	var sp *telemetry.Span
	if tr.Enabled() {
		sp = tr.Begin(c.hrtTrack(), "evtchan", forwardSpanName(env.Kind), start,
			telemetry.Attr{Key: "req", Val: env.ReqID})
		sp.LinkOut(env.flow)
	}
	if env.reply == nil {
		env.reply = make(chan Reply, 1)
	}
	c.hvm.recorder.Record(start, telemetry.RecDoorbell, c.id, env.ReqID, seq, uint64(env.Kind))

	r, dup, err := c.request(clk, env)
	if err != nil {
		sp.EndAt(clk.Now())
		return Reply{}, err
	}
	// Reply leg: injection back into the HRT plus guest re-entry.
	cost := c.hvm.cost
	inj := tr.Begin(c.hrtTrack(), "evtchan", "reply-inject", r.Departure)
	clk.SyncTo(r.Departure + cost.InterruptInject + cost.VMEntry)
	inj.EndAt(clk.Now())
	sp.EndAt(clk.Now())

	kind := env.Kind
	if !dup {
		// The partner's Complete has run (it released the reply) and no
		// duplicate waits in the redelivery queue, so the envelope's round
		// trip is over and it can be recycled.
		c.releaseEnv(env)
	}
	if kind > 0 && kind < numEventKinds {
		c.fwdCtr[kind].Inc()
		c.fwdLat[kind].Observe(clk.Now() - start)
	} else {
		m := c.hvm.metrics
		m.Counter("forward." + kind.String()).Inc()
		m.LatencyHistogram("forward." + kind.String() + ".latency").Observe(clk.Now() - start)
	}
	return r, nil
}

// request is the request leg: post, hypercall and VMM record per attempt,
// then injection into the partner. The fault plane may delay, drop,
// corrupt or duplicate an attempt. The sender learns of a lost or
// corrupted delivery the way real hardware does — its virtual poll
// deadline expires with no completion — and resends with exponential
// backoff. The last attempt is never faulted, and a nil injector makes
// the first attempt the last, with no rolls. dup reports that a
// duplicate of env waits in the redelivery queue.
func (c *EventChannel) request(clk *cycles.Clock, env *Envelope) (r Reply, dup bool, err error) {
	cost, tr, fi := c.hvm.cost, c.hvm.tracer, c.hvm.faults
	timeout, max := fi.RetryTimeout(), fi.MaxAttempts()
	quiet := c.reliable.Load() // degraded mode: no further transport faults
	for attempt := 0; ; attempt++ {
		last := quiet || attempt >= max-1
		leg := tr.Begin(c.hrtTrack(), "evtchan", "request-leg", clk.Now())
		clk.Advance(cost.EventChannelPost)
		clk.Advance(cost.HypercallRoundTrip())
		clk.Advance(cost.VMMRecord)
		c.hvm.countExit("evtchan")
		env.Arrival = clk.Now() + cost.InjectWindowROS + cost.SignalInjectROS
		if !quiet && fi.Roll(faults.DelayInject, c.id, env.Seq, attempt, clk.Now()) {
			env.Arrival += fi.Delay()
		}
		c.win.seal(c.id, env)
		leg.EndAt(env.Arrival)

		dropped := !last && fi.Roll(faults.DropNotify, c.id, env.Seq, attempt, clk.Now())
		corrupted := !last && fi.Roll(faults.CorruptFrame, c.id, env.Seq, attempt, clk.Now())
		var frame *Envelope
		switch {
		case dropped:
			// The VMM lost the notification: nothing reaches the partner.
		case corrupted:
			// The frame arrives damaged; the partner's checksum catches it
			// and discards, so this attempt also goes unanswered.
			bad := *env
			bad.Checksum ^= 0xbad
			frame = &bad
		default:
			if !quiet && fi.Roll(faults.DupNotify, c.id, env.Seq, attempt, clk.Now()) {
				// Second delivery of the same frame; the receiver coalesces
				// it by seqno. It rides the redelivery queue, drained
				// before the wire. A stalled partner must not grow the
				// window without limit: past the plan's bound the
				// duplicate is dropped (dedup would discard it anyway) and
				// the channel degrades to reliable transport, so no
				// further injected faults can push it past the bound.
				if dup = c.win.queueDup(env, fi.RetransmitBound()); !dup {
					c.hvm.metrics.Counter("faults.retransmit.rejected").Inc()
					c.ForceReliable()
				}
			}
			frame = env
		}
		if frame != nil {
			// The send gives way to Close: a queued duplicate can complete
			// the request, and a completed thread exit closes the channel,
			// before the frame lands. Only a closed channel with no reply
			// waiting is an error.
			select {
			case c.pending <- frame:
			case <-c.done:
				if len(env.reply) == 0 {
					return Reply{}, dup, errChannelClosed
				}
			}
		}
		if frame == env {
			return <-env.reply, dup, nil
		}
		// Unanswered attempt: wait out the poll deadline, then retransmit.
		clk.Advance(timeout)
		timeout *= 2
		env.Retransmits++
		c.hvm.metrics.Counter("faults.retransmit").Inc()
		// The retransmit re-emits the envelope's flow id, so Perfetto draws
		// the arrow from this marker to the service span that finally
		// accepts the frame.
		tr.InstantFlow(c.hrtTrack(), "evtchan", "retransmit", clk.Now(), 0, env.flow,
			telemetry.Attr{Key: "seq", Val: env.Seq},
			telemetry.Attr{Key: "req", Val: env.ReqID},
			telemetry.Attr{Key: "attempt", Val: uint64(env.Retransmits)})
		c.hvm.recorder.Record(clk.Now(), telemetry.RecRetransmit, c.id, env.ReqID,
			env.Seq, uint64(env.Retransmits))
	}
}

// Recv blocks the ROS partner thread until a request arrives, then
// synchronizes the partner's clock to the arrival time plus its own wakeup
// cost. It returns nil when the channel is closed or the partner is
// interrupted. Redelivered envelopes (duplicates, watchdog replay) drain
// before the wire, corrupted frames are caught by their checksum and
// discarded, and a duplicate of an already-completed seqno is coalesced.
// With the fault plane armed an accepted envelope stays in flight until
// Complete, so a partner death between the two is recoverable.
func (c *EventChannel) Recv(clk *cycles.Clock) *Envelope {
	cost, m, fi := c.hvm.cost, c.hvm.metrics, c.hvm.faults
	for {
		env := c.win.take()
		if env == nil {
			if env = c.recvPending(); env == nil {
				return nil
			}
		}
		clk.SyncTo(env.Arrival)
		if !c.win.intact(c.id, env) {
			// Reading the damaged frame costs the partner one post; the
			// sender's deadline handles the rest.
			clk.Advance(cost.EventChannelPost)
			m.Counter("faults.corrupt.detected").Inc()
			c.hvm.recorder.Record(clk.Now(), telemetry.RecCorrupt, c.id, env.ReqID, env.Seq, 0)
			continue
		}
		if !c.win.accept(env) {
			m.Counter("faults.dedup").Inc()
			c.hvm.recorder.Record(clk.Now(), telemetry.RecDedup, c.id, env.ReqID, env.Seq, 0)
			continue
		}
		if tr := c.hvm.tracer; tr.Enabled() {
			env.span = tr.Begin(c.svcTrack(), "evtchan", serviceSpanName(env.Kind), env.Arrival,
				telemetry.Attr{Key: "req", Val: env.ReqID})
			env.span.LinkIn(env.flow)
		}
		c.hvm.recorder.Record(env.Arrival, telemetry.RecDeliver, c.id, env.ReqID, env.Seq, 0)
		clk.Advance(cost.ContextSwitch) // partner wakes from its wait
		clk.Advance(cost.EventChannelPost)
		if !c.reliable.Load() && fi.Roll(faults.PartnerStall, c.id, env.Seq, 0, clk.Now()) {
			clk.Advance(fi.Stall())
		}
		return env
	}
}

// Complete finishes a received envelope: the partner posts the result,
// pays its completion hypercall, and stamps the departure time.
func (c *EventChannel) Complete(clk *cycles.Clock, env *Envelope, r Reply) {
	cost := c.hvm.cost
	clk.Advance(cost.EventChannelPost)
	clk.Advance(cost.HypercallRoundTrip())
	c.hvm.countExit("evtchan-complete")
	r.Departure = clk.Now()
	env.span.EndAt(clk.Now())
	env.span = nil
	c.hvm.recorder.Record(clk.Now(), telemetry.RecComplete, c.id, env.ReqID, env.Seq, 0)
	// Mark the seqno served *before* releasing the sender, so a
	// duplicate delivery can never race past the dedup check.
	c.win.complete(env.Seq)
	env.reply <- r
}

// Requeue moves every envelope a dead partner left in flight (received
// but never completed) onto the redelivery queue, ordered by seqno so
// replay preserves program order. The watchdog calls this after a respawn
// and before the new partner starts serving; `at` is the respawn's
// virtual time, used only to stamp the flight-recorder replay events.
// Returns the replayed envelopes' identifying ids in replay order.
func (c *EventChannel) Requeue(at cycles.Cycles) []Replayed {
	out := c.win.requeue()
	for _, r := range out {
		c.hvm.recorder.Record(at, telemetry.RecRequeue, c.id, r.ReqID, r.Seq, 0)
	}
	return out
}

// Window snapshots the channel's retransmission window for a checkpoint.
func (c *EventChannel) Window() ChannelWindow {
	w := c.win.snapshot()
	w.NextSeq = c.seq.Load() + 1
	return w
}

// ForceReliable suppresses further fault injection on this channel; the
// degraded ROS-only mode uses it so residual control traffic (the thread
// exit notification) cannot be lost after the recovery budget is spent.
func (c *EventChannel) ForceReliable() { c.reliable.Store(true) }

// Close tears the channel down (HRT thread exited and the partner
// finished its cleanup). Idempotent.
func (c *EventChannel) Close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.InterruptPartner()
	})
}
