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

	// pooled marks an envelope acquired from its channel's free list, so
	// only those are recycled (caller-constructed envelopes are left
	// alone).
	pooled bool
	// served and result hold the completion once Complete has run; the
	// sender reads them after its delivery returns.
	served bool
	result Reply

	// flow is the deterministic cross-track link id stitching the HRT
	// forward span to the ROS service span; span is the open service
	// span between delivery and Complete.
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
// group: the HRT thread on one end, its ROS partner on the other. The
// VMM "only expects that the execution group adheres to a strict
// protocol for event requests and completion" (section 3.2), so the
// partner is a bound handler, not a thread of control: Forward delivers
// each frame that reaches the partner at the point where it is sent,
// and the handler runs there against the partner's own clock.
type EventChannel struct {
	hvm     *HVM
	id      uint64
	hrtCore machine.CoreID
	rosCore machine.CoreID
	// svcName is the partner-side trace track name, formatted once.
	svcName string

	// down marks the channel torn down (Close).
	down atomic.Bool

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

	// svc is the service lock: one delivery at a time, since nested
	// HRT threads share their top-level ancestor's channel. It guards
	// the bound partner, srvClk and srvFn.
	svc    sync.Mutex
	srvClk *cycles.Clock
	srvFn  Handler

	// Envelope recycling: one Forward is outstanding per channel in the
	// steady state, so a one-slot free list makes the round trip
	// allocation-free.
	fmu     sync.Mutex
	freeEnv *Envelope

	// Cached per-kind metric handles, resolved once at channel creation
	// instead of a registry lookup (and two string concats) per Forward.
	fwdCtr [numEventKinds]*telemetry.Counter
	fwdLat [numEventKinds]*telemetry.Histogram
}

// Handler is the partner's per-envelope body. It runs at delivery, on
// the forwarding goroutine and under the service lock, after the
// channel has charged the partner's wakeup, and ends with Complete. A
// partner that dies mid-service returns without completing: env stays
// in flight, and once Requeue puts it back the delivery loop hands it
// to whatever partner is bound by then.
type Handler func(env *Envelope)

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
		win:     newRetxWindow(h.faults, h.metrics),
	}
	c.svcName = fmt.Sprintf("ros:svc:%d", c.id)
	for k := EventKind(1); k < numEventKinds; k++ {
		c.fwdCtr[k] = h.metrics.Counter("forward." + k.String())
		c.fwdLat[k] = h.metrics.LatencyHistogram("forward." + k.String() + ".latency")
	}
	return c
}

// Bind attaches the partner that serves the channel: clk, the partner
// thread's clock, pays every ROS-side charge of a delivery, and h is
// its per-envelope body. A rebind (respawn, degrade, restore) takes
// effect at the next envelope. Callers bind before the first Forward
// or while they hold the service: from inside a handler or under Hold.
func (c *EventChannel) Bind(clk *cycles.Clock, h Handler) {
	c.srvClk, c.srvFn = clk, h
}

// Hold runs fn with the service lock held, so no delivery runs while
// it does: a spawn holds it across the HRT thread's creation, a
// migration across checkpoint and restore.
func (c *EventChannel) Hold(fn func()) {
	c.svc.Lock()
	defer c.svc.Unlock()
	fn()
}

// NewEnvelope returns a zeroed envelope for the next Forward on this
// channel, recycling the scratch envelope when one is free.
func (c *EventChannel) NewEnvelope() *Envelope {
	c.fmu.Lock()
	env := c.freeEnv
	c.freeEnv = nil
	c.fmu.Unlock()
	if env == nil {
		return &Envelope{pooled: true}
	}
	*env = Envelope{pooled: true}
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

// hrtTrack is the trace track of the HRT thread driving this channel.
func (c *EventChannel) hrtTrack() telemetry.Track {
	return telemetry.Track{Core: int(c.hrtCore), Name: "hrt"}
}

// ForwardFault forwards one page fault at addr: the partner replicates
// the access, and the reply's FaultOK reports whether the ROS resolved
// it. reqID is the causal request id the fault handler allocated.
func (c *EventChannel) ForwardFault(clk *cycles.Clock, addr uint64, write bool, reqID uint64) (Reply, error) {
	env := c.NewEnvelope()
	env.Kind = EvPageFault
	env.FaultAddr, env.FaultWrite = addr, write
	env.ReqID = reqID
	return c.Forward(clk, env)
}

// svcTrack is the trace track of the ROS partner thread servicing this
// channel. Naming it per channel keeps each partner's span stack private,
// so parent/child inference never depends on goroutine interleaving.
func (c *EventChannel) svcTrack() telemetry.Track {
	return telemetry.Track{Core: int(c.rosCore), Name: c.svcName}
}

// Forward sends an envelope from the HRT side and returns once the ROS
// side has completed it: each frame that reaches the partner is served
// at the point where it is sent. clk is the HRT thread's clock; it pays
// the full request leg and is synchronized to the reply's arrival.
//
// Cost structure of one round trip (the ~25K-cycle asynchronous path of
// Figure 2): post to the shared page, hypercall, VMM records the raise and
// waits for a user-mode injection window in the ROS, frame injection into
// the partner thread, partner wakeup; then on completion a post, a
// hypercall, injection back into the HRT, and guest re-entry.
func (c *EventChannel) Forward(clk *cycles.Clock, env *Envelope) (Reply, error) {
	if c.down.Load() {
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
		// The partner's Complete has run and no duplicate of env was
		// queued for redelivery, so nothing holds the envelope any more
		// and it can be recycled.
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
// duplicate of env was queued for redelivery.
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
		c.hvm.countExit(exitEvtchan)
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
				// before the frame itself. A stalled partner must not grow the
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
			c.deliver(frame)
		}
		if env.served {
			return env.result, dup, nil
		}
		if frame == env || c.down.Load() {
			// Delivered but never completed: the channel closed first.
			return Reply{}, dup, errChannelClosed
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

// deliver hands frame to the bound partner at the point where it is
// sent. The redelivery queue drains first, as a waking partner thread
// would find it, and a closed channel delivers nothing more.
func (c *EventChannel) deliver(frame *Envelope) {
	c.svc.Lock()
	defer c.svc.Unlock()
	for !c.down.Load() {
		env := c.win.take()
		if env == nil {
			if env, frame = frame, nil; env == nil {
				break
			}
		}
		c.serve(env)
	}
}

// serve runs one delivery on the partner's clock: the partner wakes at
// the frame's arrival, discards a frame its checksum rejects or a
// duplicate of a completed seqno, pays its wakeup, and runs the
// handler. With the fault plane armed an accepted envelope stays in
// flight until Complete, so a partner death in between is recoverable.
func (c *EventChannel) serve(env *Envelope) {
	cost, m, fi := c.hvm.cost, c.hvm.metrics, c.hvm.faults
	clk := c.srvClk
	clk.SyncTo(env.Arrival)
	if !c.win.intact(c.id, env) {
		// Reading the damaged frame costs the partner one post; the
		// sender's deadline handles the rest.
		clk.Advance(cost.EventChannelPost)
		m.Counter("faults.corrupt.detected").Inc()
		c.hvm.recorder.Record(clk.Now(), telemetry.RecCorrupt, c.id, env.ReqID, env.Seq, 0)
		return
	}
	if !c.win.accept(env) {
		m.Counter("faults.dedup").Inc()
		c.hvm.recorder.Record(clk.Now(), telemetry.RecDedup, c.id, env.ReqID, env.Seq, 0)
		return
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
	c.srvFn(env)
}

// Complete finishes a received envelope: the partner posts the result,
// pays its completion hypercall, and stamps the departure time.
func (c *EventChannel) Complete(clk *cycles.Clock, env *Envelope, r Reply) {
	cost := c.hvm.cost
	clk.Advance(cost.EventChannelPost)
	clk.Advance(cost.HypercallRoundTrip())
	c.hvm.countExit(exitEvtchanComplete)
	r.Departure = clk.Now()
	env.span.EndAt(clk.Now())
	env.span = nil
	c.hvm.recorder.Record(clk.Now(), telemetry.RecComplete, c.id, env.ReqID, env.Seq, 0)
	c.win.complete(env.Seq)
	env.result, env.served = r, true
}

// Requeue moves every envelope a dead partner left in flight (received
// but never completed) onto the redelivery queue, ordered by seqno so
// replay preserves program order. Recovery calls this after binding the
// next partner, which the delivery loop then drains it to; `at` is the
// respawn's
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
func (c *EventChannel) Close() { c.down.Store(true) }
