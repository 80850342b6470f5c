package hvm

import (
	"fmt"
	"sort"
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

	mu      sync.Mutex
	pending chan *Envelope
	closed  bool

	// seq numbers this channel's forwards; combined with the channel id
	// it yields flow ids that depend only on program order, never on
	// goroutine scheduling.
	seq atomic.Uint64

	// reliable suppresses fault injection on this channel: set when the
	// group degrades to ROS-only execution, so the residual control
	// traffic (thread exit) cannot be lost again.
	reliable atomic.Bool

	// Receiver-side recovery state, present only when the fault plane is
	// armed. completed records serviced seqnos for duplicate coalescing;
	// inflight tracks envelopes received but not yet completed (what a
	// dead partner leaves behind); redeliver is the watchdog's replay
	// queue, drained before pending.
	rmu       sync.Mutex
	completed map[uint64]bool
	inflight  map[uint64]*Envelope
	redeliver []*Envelope
	// replayScratch is Requeue's reusable staging slice: respawn storms
	// rebuild the redelivery queue without allocating a fresh slice per
	// respawn.
	replayScratch []*Envelope

	// Clean-path envelope recycling: one Forward is outstanding per
	// channel in the steady state, so a one-slot free list (with the
	// envelope's reply channel riding along) makes the round trip
	// allocation-free. Fault-armed forwards never recycle — inflight and
	// redeliver can hold references past Forward's return.
	fmu     sync.Mutex
	freeEnv *Envelope

	// Cached per-kind metric handles, resolved once at channel creation
	// instead of a registry lookup (and two string concats) per Forward.
	fwdCtr [numEventKinds]*telemetry.Counter
	fwdLat [numEventKinds]*telemetry.Histogram
	// retransDepth gauges the retransmission window (redeliver queue +
	// in-flight set); resolved once when the fault plane is armed.
	retransDepth *telemetry.Gauge

	// Partner-interrupt plumbing for grid migration. halt, when armed,
	// lets the grid stop the partner's Recv loop without closing the
	// channel: the channel object — pending queue, seqno counter, and
	// the whole retransmission window — survives the move, and the
	// restored partner on the target node keeps serving it. halt is nil
	// on non-grid groups, so the ordinary receive path stays a plain
	// channel receive.
	hltMu sync.Mutex
	halt  chan struct{}
}

// NewEventChannel creates the channel for an execution group whose HRT
// thread runs on hrtCore and whose partner runs on rosCore.
func (h *HVM) NewEventChannel(hrtCore, rosCore machine.CoreID) *EventChannel {
	c := &EventChannel{
		hvm:     h,
		id:      atomic.AddUint64(&h.channelSeq, 1),
		hrtCore: hrtCore,
		rosCore: rosCore,
		pending: make(chan *Envelope, 1),
	}
	c.svcName = fmt.Sprintf("ros:svc:%d", c.id)
	if h.faults != nil {
		// Duplicate deliveries and partner-death windows can park several
		// envelopes at once; a deeper queue keeps the sender from blocking
		// on a frame the dead partner will never drain.
		c.pending = make(chan *Envelope, 64)
		c.completed = make(map[uint64]bool)
		c.inflight = make(map[uint64]*Envelope)
	}
	for k := EventKind(1); k < numEventKinds; k++ {
		c.fwdCtr[k] = h.metrics.Counter("forward." + k.String())
		c.fwdLat[k] = h.metrics.LatencyHistogram("forward." + k.String() + ".latency")
	}
	if h.faults != nil {
		c.retransDepth = h.metrics.Gauge("faults.retransmit.depth")
	}
	return c
}

// NewEnvelope returns a zeroed envelope for the next Forward on this
// channel, recycling the clean-path scratch envelope (and its reply
// channel) when one is free.
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
// restored group re-arms it before its new partner starts serving.
func (c *EventChannel) ArmPartnerInterrupt() {
	c.hltMu.Lock()
	if c.halt == nil || closed(c.halt) {
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

// closed reports whether a halt line has been closed.
func closed(h chan struct{}) bool {
	select {
	case <-h:
		return true
	default:
		return false
	}
}

func (c *EventChannel) haltChan() chan struct{} {
	c.hltMu.Lock()
	h := c.halt
	c.hltMu.Unlock()
	return h
}

// recvPending blocks for the next wire delivery, honoring the partner
// interrupt when one is armed. Non-grid channels take the plain receive.
func (c *EventChannel) recvPending() (*Envelope, bool) {
	h := c.haltChan()
	if h == nil {
		env, ok := <-c.pending
		return env, ok
	}
	select {
	case env, ok := <-c.pending:
		return env, ok
	case <-h:
		return nil, false
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
	cost := c.hvm.cost
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Reply{}, fmt.Errorf("hvm: event channel closed")
	}
	c.mu.Unlock()
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

	var r Reply
	clean := c.hvm.faults == nil
	if !clean {
		r = c.sendFaulted(clk, env, c.hvm.faults)
	} else {
		leg := tr.Begin(c.hrtTrack(), "evtchan", "request-leg", clk.Now())
		clk.Advance(cost.EventChannelPost)
		clk.Advance(cost.HypercallRoundTrip())
		clk.Advance(cost.VMMRecord)
		c.hvm.countExit("evtchan")
		env.Arrival = clk.Now() + cost.InjectWindowROS + cost.SignalInjectROS
		leg.EndAt(env.Arrival)
		c.pending <- env
		r = <-env.reply
	}
	// Reply leg: injection back into the HRT plus guest re-entry.
	inj := tr.Begin(c.hrtTrack(), "evtchan", "reply-inject", r.Departure)
	clk.SyncTo(r.Departure + cost.InterruptInject + cost.VMEntry)
	inj.EndAt(clk.Now())
	sp.EndAt(clk.Now())

	kind := env.Kind
	if clean {
		// The partner's Complete has run (it released the reply), so the
		// envelope's round trip is over and it can be recycled.
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

// frameChecksum is the integrity word written with a request frame.
func frameChecksum(c *EventChannel, env *Envelope) uint64 {
	return faults.Checksum(
		c.id, env.Seq, uint64(env.Kind),
		uint64(env.Call.Num),
		env.Call.Args[0], env.Call.Args[1], env.Call.Args[2],
		env.Call.Args[3], env.Call.Args[4], env.Call.Args[5],
		faults.HashString(env.Call.Path),
		env.FaultAddr, boolWord(env.FaultWrite), env.ExitCode)
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sendFaulted is the request leg under an armed fault plane: the same
// per-attempt virtual costs as the clean leg, plus a retransmission loop
// driven by sender-side rolls. The sender learns of a lost or corrupted
// delivery the way real hardware does — its virtual poll deadline expires
// with no completion — and resends with exponential backoff. The final
// attempt is forced clean so a request always terminates.
func (c *EventChannel) sendFaulted(clk *cycles.Clock, env *Envelope, fi *faults.Injector) Reply {
	cost := c.hvm.cost
	tr := c.hvm.tracer
	timeout := fi.RetryTimeout()
	max := fi.MaxAttempts()
	quiet := c.reliable.Load() // degraded mode: no further transport faults
	for attempt := 0; ; attempt++ {
		last := quiet || attempt >= max-1
		leg := tr.Begin(c.hrtTrack(), "evtchan", "request-leg", clk.Now())
		clk.Advance(cost.EventChannelPost)
		clk.Advance(cost.HypercallRoundTrip())
		clk.Advance(cost.VMMRecord)
		c.hvm.countExit("evtchan")
		arrival := clk.Now() + cost.InjectWindowROS + cost.SignalInjectROS
		if !quiet && fi.Roll(faults.DelayInject, c.id, env.Seq, attempt, clk.Now()) {
			arrival += fi.Delay()
		}
		env.Arrival = arrival
		env.Checksum = frameChecksum(c, env)
		leg.EndAt(arrival)

		dropped := !last && fi.Roll(faults.DropNotify, c.id, env.Seq, attempt, clk.Now())
		corrupted := !last && fi.Roll(faults.CorruptFrame, c.id, env.Seq, attempt, clk.Now())
		switch {
		case dropped:
			// The VMM lost the notification: nothing reaches the partner.
		case corrupted:
			// The frame arrives damaged; the partner's checksum catches it
			// and discards, so this attempt also goes unanswered.
			bad := *env
			bad.Checksum ^= 0xbad
			c.pending <- &bad
		default:
			if !quiet && fi.Roll(faults.DupNotify, c.id, env.Seq, attempt, clk.Now()) {
				// Second delivery of the same frame; the receiver coalesces
				// by seqno. It rides the redeliver queue rather than the
				// wire so a completed request (which may close the channel)
				// never races a still-in-flight duplicate send.
				c.rmu.Lock()
				depth := len(c.redeliver) + len(c.inflight)
				if bound := fi.RetransmitBound(); bound > 0 && depth >= bound {
					// A stalled partner must not grow the window without
					// limit: drop the duplicate (dedup would discard it
					// anyway) and degrade the channel to reliable
					// transport — the existing graceful path — so no
					// further injected faults can push it past the bound.
					c.rmu.Unlock()
					c.hvm.metrics.Counter("faults.retransmit.rejected").Inc()
					c.ForceReliable()
					quiet = true
				} else {
					c.redeliver = append(c.redeliver, env)
					depth++
					c.rmu.Unlock()
					c.noteWindowDepth(depth)
				}
			}
			c.pending <- env
			return <-env.reply
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
// cost. It returns nil when the channel is closed.
func (c *EventChannel) Recv(clk *cycles.Clock) *Envelope {
	if fi := c.hvm.faults; fi != nil {
		return c.recvFaulted(clk, fi)
	}
	env, ok := c.recvPending()
	if !ok {
		return nil
	}
	clk.SyncTo(env.Arrival)
	if tr := c.hvm.tracer; tr.Enabled() {
		env.span = tr.Begin(c.svcTrack(), "evtchan", serviceSpanName(env.Kind), env.Arrival,
			telemetry.Attr{Key: "req", Val: env.ReqID})
		env.span.LinkIn(env.flow)
	}
	c.hvm.recorder.Record(env.Arrival, telemetry.RecDeliver, c.id, env.ReqID, env.Seq, 0)
	clk.Advance(c.hvm.cost.ContextSwitch) // partner wakes from its wait
	clk.Advance(c.hvm.cost.EventChannelPost)
	return env
}

// recvFaulted receives under an armed fault plane: redelivered envelopes
// (watchdog replay) drain before fresh ones, corrupted frames are caught
// by their checksum and discarded, and duplicate deliveries of an
// already-completed seqno are coalesced. Accepted envelopes are tracked
// as in-flight until Complete, so a partner death between the two is
// recoverable.
func (c *EventChannel) recvFaulted(clk *cycles.Clock, fi *faults.Injector) *Envelope {
	m := c.hvm.metrics
	for {
		env := c.take()
		if env == nil {
			return nil
		}
		clk.SyncTo(env.Arrival)
		if env.Checksum != 0 && env.Checksum != frameChecksum(c, env) {
			// Reading the damaged frame costs the partner one post; the
			// sender's deadline handles the rest.
			clk.Advance(c.hvm.cost.EventChannelPost)
			m.Counter("faults.corrupt.detected").Inc()
			c.hvm.recorder.Record(clk.Now(), telemetry.RecCorrupt, c.id, env.ReqID, env.Seq, 0)
			continue
		}
		c.rmu.Lock()
		if c.completed[env.Seq] {
			c.rmu.Unlock()
			m.Counter("faults.dedup").Inc()
			c.hvm.recorder.Record(clk.Now(), telemetry.RecDedup, c.id, env.ReqID, env.Seq, 0)
			continue
		}
		c.inflight[env.Seq] = env
		depth := len(c.redeliver) + len(c.inflight)
		c.rmu.Unlock()
		c.noteWindowDepth(depth)
		if tr := c.hvm.tracer; tr.Enabled() {
			env.span = tr.Begin(c.svcTrack(), "evtchan", serviceSpanName(env.Kind), env.Arrival,
				telemetry.Attr{Key: "req", Val: env.ReqID})
			env.span.LinkIn(env.flow)
		}
		c.hvm.recorder.Record(env.Arrival, telemetry.RecDeliver, c.id, env.ReqID, env.Seq, 0)
		clk.Advance(c.hvm.cost.ContextSwitch)
		clk.Advance(c.hvm.cost.EventChannelPost)
		if !c.reliable.Load() && fi.Roll(faults.PartnerStall, c.id, env.Seq, 0, clk.Now()) {
			clk.Advance(fi.Stall())
		}
		return env
	}
}

// noteWindowDepth publishes the retransmission-window occupancy
// (redeliver queue + in-flight set) to the faults.retransmit.depth
// gauge. Called outside rmu with a depth computed under it.
func (c *EventChannel) noteWindowDepth(depth int) {
	if c.retransDepth != nil {
		c.retransDepth.Set(uint64(depth))
	}
}

// take pops the next delivery: replayed envelopes first, then the wire.
func (c *EventChannel) take() *Envelope {
	c.rmu.Lock()
	if len(c.redeliver) > 0 {
		env := c.redeliver[0]
		c.redeliver = c.redeliver[1:]
		depth := len(c.redeliver) + len(c.inflight)
		c.rmu.Unlock()
		c.noteWindowDepth(depth)
		return env
	}
	c.rmu.Unlock()
	env, ok := c.recvPending()
	if !ok {
		return nil
	}
	return env
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
	if c.hvm.faults != nil {
		// Mark the seqno served *before* releasing the sender, so a
		// duplicate delivery can never race past the dedup check.
		c.rmu.Lock()
		c.completed[env.Seq] = true
		delete(c.inflight, env.Seq)
		depth := len(c.redeliver) + len(c.inflight)
		c.rmu.Unlock()
		c.noteWindowDepth(depth)
	}
	env.reply <- r
}

// Replayed describes one envelope Requeue put back for redelivery: its
// seqno, the causal request id it carries, and its cross-track flow id,
// so the watchdog can record the replay and flow-link its respawn
// marker back to the original forward.
type Replayed struct {
	Seq   uint64
	ReqID uint64
	Flow  uint64
}

// Requeue moves every envelope a dead partner left in flight (received
// but never completed) onto the redelivery queue, ordered by seqno so
// replay preserves program order. The watchdog calls this after a respawn
// and before the new partner starts serving; `at` is the respawn's
// virtual time, used only to stamp the flight-recorder replay events.
// Returns the replayed envelopes' identifying ids in replay order.
func (c *EventChannel) Requeue(at cycles.Cycles) []Replayed {
	c.rmu.Lock()
	if len(c.inflight) == 0 {
		c.rmu.Unlock()
		return nil
	}
	// Stage the replay set in the reusable scratch slice, then append the
	// existing queue behind it and swap the two slices: a respawn storm
	// recycles the same two backing arrays instead of allocating a fresh
	// queue per respawn. The inflight map is cleared, not re-made, for the
	// same reason.
	replay := c.replayScratch[:0]
	for _, env := range c.inflight {
		replay = append(replay, env)
	}
	clear(c.inflight)
	sort.Slice(replay, func(i, j int) bool { return replay[i].Seq < replay[j].Seq })
	nreplay := len(replay)
	replay = append(replay, c.redeliver...)
	c.replayScratch = c.redeliver[:0]
	c.redeliver = replay
	out := make([]Replayed, nreplay)
	for i, env := range replay[:nreplay] {
		out[i] = Replayed{Seq: env.Seq, ReqID: env.ReqID, Flow: env.flow}
	}
	c.rmu.Unlock()
	for _, r := range out {
		c.hvm.recorder.Record(at, telemetry.RecRequeue, c.id, r.ReqID, r.Seq, 0)
	}
	return out
}

// ChannelWindow is the checkpointed seqno/retransmission window of one
// event channel: everything a restored partner needs to know about the
// channel's delivery state. The envelopes themselves live in the channel
// object, which survives a migration as-is — the window is recorded for
// checkpoint fidelity (costing, flight events, and the restore-side
// replay accounting), not to rebuild the queues.
type ChannelWindow struct {
	// NextSeq is the sequence number the next Forward will be stamped
	// with (last issued + 1).
	NextSeq uint64
	// Completed counts seqnos already serviced (the dedup set size).
	Completed int
	// Inflight lists seqnos received but not completed at checkpoint
	// time; the restore replays them in ascending order via Requeue.
	Inflight []uint64
	// Redeliver is the depth of the duplicate-redelivery queue.
	Redeliver int
}

// Window snapshots the channel's retransmission window for a checkpoint.
func (c *EventChannel) Window() ChannelWindow {
	w := ChannelWindow{NextSeq: c.seq.Load() + 1}
	c.rmu.Lock()
	w.Completed = len(c.completed)
	w.Redeliver = len(c.redeliver)
	for seq := range c.inflight {
		w.Inflight = append(w.Inflight, seq)
	}
	c.rmu.Unlock()
	sort.Slice(w.Inflight, func(i, j int) bool { return w.Inflight[i] < w.Inflight[j] })
	return w
}

// ForceReliable suppresses further fault injection on this channel; the
// degraded ROS-only mode uses it so residual control traffic (the thread
// exit notification) cannot be lost after the recovery budget is spent.
func (c *EventChannel) ForceReliable() { c.reliable.Store(true) }

// Close tears the channel down (HRT thread exited and the partner
// finished its cleanup).
func (c *EventChannel) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.pending)
	}
}

// Cores returns the two endpoints' cores.
func (c *EventChannel) Cores() (hrt, ros machine.CoreID) { return c.hrtCore, c.rosCore }

// SyncChannel is the post-merger synchronous path: a cacheline-sized
// protocol word at a user virtual address both worlds can see, polled by
// the HRT, requiring no VMM intervention per call (section 4.3). Its
// round-trip cost depends only on whether the two cores share a socket
// (Figure 2's two synchronous rows).
type SyncChannel struct {
	hvm        *HVM
	id         uint64
	va         uint64
	rosCore    machine.CoreID
	hrtCore    machine.CoreID
	sameSocket bool

	mu     sync.Mutex
	serve  chan syncReq
	closed bool
	// replyFree recycles the one-slot reply channel between invocations
	// (one call is outstanding per channel in the steady state).
	replyFree chan syncRep
	// calls is atomic, like EventChannel.forwarded: the caller invokes
	// while the evaluation harness reads mid-run.
	calls atomic.Uint64

	// Metric handles resolved once at setup, not per invocation.
	invokeCtr *telemetry.Counter
	invokeLat *telemetry.Histogram
}

type syncReq struct {
	fn    uint64
	args  []uint64
	stamp cycles.Cycles
	flow  uint64
	reply chan syncRep
}

type syncRep struct {
	ret   uint64
	stamp cycles.Cycles
}

// SetupSync is the single hypercall that initiates synchronous operation
// after a merger: it tells the HRT which virtual address will be used for
// future synchronization. Subsequent invocations bypass the VMM entirely.
func (h *HVM) SetupSync(clk *cycles.Clock, va uint64, rosCore, hrtCore machine.CoreID) (*SyncChannel, error) {
	if !h.Booted() {
		return nil, fmt.Errorf("hvm: cannot set up sync channel before HRT boot")
	}
	h.hypercall(clk, "sync-setup")
	return &SyncChannel{
		hvm:        h,
		id:         atomic.AddUint64(&h.channelSeq, 1),
		va:         va,
		rosCore:    rosCore,
		hrtCore:    hrtCore,
		sameSocket: h.machine.SameSocket(rosCore, hrtCore),
		serve:      make(chan syncReq),
		invokeCtr:  h.metrics.Counter("sync.invokes"),
		invokeLat:  h.metrics.LatencyHistogram("sync.invoke.latency"),
	}, nil
}

// VA returns the synchronization address registered at setup.
func (s *SyncChannel) VA() uint64 { return s.va }

// Invoke calls function fn in the HRT synchronously from the ROS side:
// the caller writes the request into the shared cacheline and spins; the
// HRT's poller picks it up, runs the function, and writes the result back.
// No hypercalls, no VMM exits.
func (s *SyncChannel) Invoke(clk *cycles.Clock, fn uint64, args ...uint64) (uint64, error) {
	cost := s.hvm.cost
	line := cost.CachelineCrossSocket
	if s.sameSocket {
		line = cost.CachelineSameSocket
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fmt.Errorf("hvm: sync channel closed")
	}
	rc := s.replyFree
	s.replyFree = nil
	s.mu.Unlock()
	if rc == nil {
		rc = make(chan syncRep, 1)
	}
	seq := s.calls.Add(1)

	start := clk.Now()
	flow := flowID(s.id, seq)
	var sp *telemetry.Span
	if tr := s.hvm.tracer; tr.Enabled() {
		sp = tr.Begin(telemetry.Track{Core: int(s.rosCore), Name: "ros:main"},
			"sync", "sync-invoke", start, telemetry.Attr{Key: "fn", Val: fn})
		sp.LinkOut(flow)
	}

	// Request leg: half the fixed protocol overhead plus one cacheline
	// transfer to the polling core. If no poller is waiting yet, the
	// request simply sits in the line until one arrives.
	clk.Advance(cost.SyncProtocolOverhead / 2)
	req := syncReq{fn: fn, args: args, stamp: clk.Now() + line, flow: flow, reply: rc}
	s.serve <- req
	rep := <-req.reply
	clk.SyncTo(rep.stamp + line)
	clk.Advance(cost.SyncProtocolOverhead - cost.SyncProtocolOverhead/2)
	sp.EndAt(clk.Now())
	s.mu.Lock()
	if s.replyFree == nil {
		s.replyFree = rc
	}
	s.mu.Unlock()
	s.invokeCtr.Inc()
	s.invokeLat.Observe(clk.Now() - start)
	return rep.ret, nil
}

// Poll services one synchronous invocation on the HRT side using fns to
// resolve function pointers; it blocks until a request arrives or the
// channel closes (returning false).
func (s *SyncChannel) Poll(clk *cycles.Clock, fns func(fn uint64, args []uint64) uint64) bool {
	req, ok := <-s.serve
	if !ok {
		return false
	}
	clk.SyncTo(req.stamp)
	var sp *telemetry.Span
	if tr := s.hvm.tracer; tr.Enabled() {
		sp = tr.Begin(telemetry.Track{Core: int(s.hrtCore), Name: "hrt"},
			"sync", "sync-poll", req.stamp, telemetry.Attr{Key: "fn", Val: req.fn})
		sp.LinkIn(req.flow)
	}
	ret := fns(req.fn, req.args)
	sp.EndAt(clk.Now())
	req.reply <- syncRep{ret: ret, stamp: clk.Now()}
	return true
}

// Close shuts the channel down.
func (s *SyncChannel) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.serve)
	}
}

// Calls reports how many synchronous invocations have been issued. It is
// race-free against concurrent Invoke calls.
func (s *SyncChannel) Calls() uint64 { return s.calls.Load() }
