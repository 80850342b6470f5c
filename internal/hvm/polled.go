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

// errPolledDown reports that a polled channel was torn down before or
// during a call: another thread of the group demoted it, or the group
// shut down. The router catches it and forwards the call over the event
// channel instead.
var errPolledDown = errors.New("hvm: polled channel down")

// Poller is the ROS side of a polled channel: the dedicated poller's
// clock, which pays the poll, service and reply charges of every frame,
// and the service each frame receives. Serve executes a system call;
// Touch replicates a forwarded page fault's access, so the ROS fault path
// runs as it would natively, and reports whether the ROS resolved it. An
// execution group's poller is a context of the group's own ROS thread
// with a clock of its own, so both serve each frame as the group.
type Poller struct {
	Clock *cycles.Clock
	Serve func(linuxabi.Call) linuxabi.Result
	Touch func(addr uint64, write bool) bool
}

// frame is one request a polled channel carries: a system call, or, when
// fault is set, a page fault at addr. Both ride the same protocol at the
// same price; they differ in their service and their telemetry.
type frame struct {
	call  linuxabi.Call
	fault bool
	addr  uint64
	write bool
}

// PolledChannel is the section 4.3 synchronous system-call channel
// ("a simple memory-based protocol to communicate ... without VMM
// intervention"), tier 2's polled transport: the HRT posts a request
// descriptor at an agreed address and spins, a dedicated ROS poller
// executes the call against the kernel and posts the result back. A
// round trip is two cacheline transfers plus the protocol overhead
// (~790/1060 cycles, Figure 2's synchronous rows) instead of the
// ~25K-cycle asynchronous event-channel round trip. The poller is bound
// state, not a thread of control: Invoke serves each frame inline at the
// point it is posted, so virtual time on both sides is governed by the
// frame stamps alone.
type PolledChannel struct {
	hvm    *HVM
	id     uint64
	line   cycles.Cycles // one cacheline transfer between the two cores
	poller Poller

	// send and reap split the protocol overhead around the round trip:
	// send before each post, reap after the reply lands.
	send, reap cycles.Cycles

	// mu serializes invokes: the protocol has one request outstanding
	// per channel, and the poller serves one frame at a time.
	mu   sync.Mutex
	seq  uint64 // last call's sequence number (mu-guarded)
	dead atomic.Bool

	// Telemetry handles resolved once at setup, not per call; the fault
	// frames' pair on the first fault frame (mu-guarded), so a channel
	// that never carries one registers no fault metric.
	hrtTrack, serveTrack telemetry.Track
	callCtr, faultCtr    *telemetry.Counter
	callLat, faultLat    *telemetry.Histogram
}

// OpenPolled establishes a polled channel with its setup hypercall,
// charged to clk, and binds poller as its ROS side: the VMM pins the
// shared page and tells the HRT where it lives. Every steady-state
// crossing after that bypasses the VMM.
func (h *HVM) OpenPolled(clk *cycles.Clock, rosCore, hrtCore machine.CoreID, poller Poller) (*PolledChannel, error) {
	if !h.Booted() {
		return nil, errors.New("hvm: cannot set up sync syscall channel before HRT boot")
	}
	h.hypercall(clk, "sync-syscall-setup")
	return h.newPolled(rosCore, hrtCore, poller), nil
}

// newPolled builds the channel without any setup charge.
func (h *HVM) newPolled(rosCore, hrtCore machine.CoreID, poller Poller) *PolledChannel {
	half := h.cost.SyncProtocolOverhead / 2
	p := &PolledChannel{
		hvm:      h,
		id:       atomic.AddUint64(&h.channelSeq, 1),
		line:     h.cost.CachelineCrossSocket,
		poller:   poller,
		send:     half,
		reap:     h.cost.SyncProtocolOverhead - half,
		hrtTrack: telemetry.Track{Core: int(hrtCore), Name: "hrt"},
		callCtr:  h.metrics.Counter("sync.syscalls"),
		callLat:  h.metrics.LatencyHistogram("sync.syscall.latency"),
	}
	if h.machine.SameSocket(rosCore, hrtCore) {
		p.line = h.cost.CachelineSameSocket
	}
	p.serveTrack = telemetry.Track{Core: int(rosCore), Name: fmt.Sprintf("ros:syncsvc:%d", p.id)}
	return p
}

// ClosePolled tears the channel down and releases the dedicated poller.
// The sync channel has no teardown hypercall: the HRT simply stops
// posting.
func (h *HVM) ClosePolled(_ *cycles.Clock, p *PolledChannel) { p.Close() }

// Invoke forwards one system call, spinning until the polling partner
// completes it. reqID is the causal request id from the syscall entry (0
// for control traffic without one). It returns errPolledDown when the
// channel died before or during the call; the caller still owns the
// request and must re-route it.
func (p *PolledChannel) Invoke(clk *cycles.Clock, call linuxabi.Call, reqID uint64) (linuxabi.Result, error) {
	return p.roundTrip(clk, frame{call: call}, reqID)
}

// roundTrip carries one frame, a system call or a fault, as Invoke
// describes: post, poll, service, reply, reap. A fault frame's result is
// faultResult's.
func (p *PolledChannel) roundTrip(clk *cycles.Clock, fr frame, reqID uint64) (linuxabi.Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead.Load() {
		return linuxabi.Result{}, errPolledDown
	}
	p.seq++
	seq := p.seq
	ctr, lat, rec := p.callCtr, p.callLat, telemetry.RecSyncCall
	if fr.fault {
		if p.faultCtr == nil {
			p.faultCtr = p.hvm.metrics.Counter("sync.faults")
			p.faultLat = p.hvm.metrics.LatencyHistogram("sync.fault.latency")
		}
		ctr, lat, rec = p.faultCtr, p.faultLat, telemetry.RecPolledFault
	}

	start := clk.Now()
	flow := flowID(p.id, seq)
	var sp *telemetry.Span
	if tr := p.hvm.tracer; tr.Enabled() {
		if fr.fault {
			sp = tr.Begin(p.hrtTrack, "sync", "sync-fault", start,
				telemetry.Attr{Key: "addr", Val: fr.addr},
				telemetry.Attr{Key: "req", Val: reqID})
		} else {
			sp = tr.Begin(p.hrtTrack, "sync", "sync-syscall", start,
				telemetry.Attr{Key: "num", Val: uint64(fr.call.Num)},
				telemetry.Attr{Key: "req", Val: reqID})
		}
		sp.LinkOut(flow)
	}

	// Poll-deadline policy, as on the event channel: a dropped or
	// corrupted request frame goes unanswered, the caller's virtual
	// deadline expires, and it reposts with backoff. Shared memory cannot
	// duplicate a frame, so only drop and corrupt apply. The final
	// attempt is never faulted, and with the fault plane off the first
	// one is that.
	var res linuxabi.Result
	var replied cycles.Cycles
	retx := 0
	fi := p.hvm.faults
	timeout, max := fi.RetryTimeout(), fi.MaxAttempts()
	for attempt := 0; ; attempt++ {
		last := attempt >= max-1
		clk.Advance(p.send)
		posted := clk.Now() + p.line
		if last || !fi.Roll(faults.DropNotify, p.id, seq, attempt, clk.Now()) {
			corrupt := !last && fi.Roll(faults.CorruptFrame, p.id, seq, attempt, clk.Now())
			if p.dead.Load() {
				sp.EndAt(clk.Now())
				return linuxabi.Result{}, errPolledDown
			}
			var ok bool
			if res, replied, ok = p.serve(fr, posted, flow, corrupt); ok {
				break
			}
		}
		clk.Advance(timeout)
		timeout *= 2
		retx++
		p.hvm.metrics.Counter("faults.retransmit").Inc()
		p.hvm.tracer.InstantFlow(p.hrtTrack, "sync", "retransmit", clk.Now(), 0, flow,
			telemetry.Attr{Key: "seq", Val: seq},
			telemetry.Attr{Key: "req", Val: reqID},
			telemetry.Attr{Key: "attempt", Val: uint64(retx)})
		p.hvm.recorder.Record(clk.Now(), telemetry.RecRetransmit, p.id, reqID, seq, uint64(retx))
	}
	clk.SyncTo(replied + p.line)
	clk.Advance(p.reap)
	sp.EndAt(clk.Now())
	ctr.Inc()
	lat.Observe(clk.Now() - start)
	p.hvm.recorder.Record(clk.Now(), rec, p.id, reqID, seq, uint64(retx))
	return res, nil
}

// serve is the poller's side of one frame posted at virtual time
// posted: the poll iteration that finds it, the service, and the reply
// post, all on the poller's clock. It returns the result and the time
// the reply was posted. A corrupt frame is discarded without an answer
// (ok false), and the caller's poll deadline reposts it; only an
// accepted frame reaches the service, so a fault's access is replicated
// exactly once however many attempts its frame took.
func (p *PolledChannel) serve(fr frame, posted cycles.Cycles, flow uint64, corrupt bool) (res linuxabi.Result, replied cycles.Cycles, ok bool) {
	clk := p.poller.Clock
	clk.SyncTo(posted)
	if corrupt {
		p.hvm.metrics.Counter("faults.corrupt.detected").Inc()
		return res, 0, false
	}
	var sp *telemetry.Span
	if tr := p.hvm.tracer; tr.Enabled() {
		if fr.fault {
			sp = tr.Begin(p.serveTrack, "sync", "serve-fault", posted,
				telemetry.Attr{Key: "addr", Val: fr.addr})
		} else {
			sp = tr.Begin(p.serveTrack, "sync", "serve-syscall", posted,
				telemetry.Attr{Key: "num", Val: uint64(fr.call.Num)})
		}
		sp.LinkIn(flow)
	}
	if fr.fault {
		res = faultResult(p.poller.Touch(fr.addr, fr.write))
	} else {
		res = p.poller.Serve(fr.call)
	}
	sp.EndAt(clk.Now())
	return res, clk.Now(), true
}

// faultResult is a fault frame's result: OK when the ROS resolved the
// access, EFAULT when it did not.
func faultResult(resolved bool) linuxabi.Result {
	if resolved {
		return linuxabi.Result{Err: linuxabi.OK}
	}
	return linuxabi.Result{Ret: ^uint64(0), Err: linuxabi.EFAULT}
}

// Close shuts the channel down; idempotent, callable from either side.
func (p *PolledChannel) Close() { p.dead.Store(true) }
