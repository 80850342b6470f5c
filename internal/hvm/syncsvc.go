package hvm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/telemetry"
)

// SyncSyscallChannel applies the post-merger synchronous protocol
// (section 4.3: "a simple memory-based protocol to communicate ...
// without VMM intervention") to system-call forwarding: the HRT writes a
// request descriptor at the agreed virtual address and spins; a dedicated
// ROS thread polls, executes the call against the kernel, and writes the
// result back. Per call this costs two cacheline transfers plus protocol
// overhead (~790/1060 cycles) instead of the ~25K-cycle asynchronous
// event-channel round trip — in exchange for burning a ROS thread on
// polling.
type SyncSyscallChannel struct {
	hvm        *HVM
	id         uint64
	va         uint64
	rosCore    machine.CoreID
	hrtCore    machine.CoreID
	sameSocket bool

	mu     sync.Mutex
	serve  chan syncSysReq
	closed bool
	// replyFree recycles the one-slot reply channel between calls, as in
	// SyncChannel.
	replyFree chan syncSysRep
	// calls is atomic, like EventChannel.forwarded: the HRT thread
	// invokes while the evaluation harness reads mid-run.
	calls atomic.Uint64

	// Metric handles resolved once at setup, not per call.
	callCtr *telemetry.Counter
	callLat *telemetry.Histogram
}

type syncSysReq struct {
	call  linuxabi.Call
	stamp cycles.Cycles
	flow  uint64
	reply chan syncSysRep
	// corrupt marks a request word damaged in flight; the poller detects
	// it (bad checksum) and keeps polling without answering.
	corrupt bool
}

type syncSysRep struct {
	res   linuxabi.Result
	stamp cycles.Cycles
}

// SetupSyncSyscalls establishes the channel with a single hypercall, like
// SetupSync. va is the agreed synchronization address in the merged
// address space.
func (h *HVM) SetupSyncSyscalls(clk *cycles.Clock, va uint64, rosCore, hrtCore machine.CoreID) (*SyncSyscallChannel, error) {
	if !h.Booted() {
		return nil, fmt.Errorf("hvm: cannot set up sync syscall channel before HRT boot")
	}
	h.hypercall(clk, "sync-syscall-setup")
	return &SyncSyscallChannel{
		hvm:        h,
		id:         atomic.AddUint64(&h.channelSeq, 1),
		va:         va,
		rosCore:    rosCore,
		hrtCore:    hrtCore,
		sameSocket: h.machine.SameSocket(rosCore, hrtCore),
		serve:      make(chan syncSysReq),
		callCtr:    h.metrics.Counter("sync.syscalls"),
		callLat:    h.metrics.LatencyHistogram("sync.syscall.latency"),
	}, nil
}

func (s *SyncSyscallChannel) line() cycles.Cycles {
	if s.sameSocket {
		return s.hvm.cost.CachelineSameSocket
	}
	return s.hvm.cost.CachelineCrossSocket
}

// Invoke forwards one system call from the HRT side, spinning until the
// polling partner completes it. reqID is the causal request id from the
// syscall entry (0 for control traffic without one).
func (s *SyncSyscallChannel) Invoke(clk *cycles.Clock, call linuxabi.Call, reqID uint64) (linuxabi.Result, error) {
	res, _, err := s.invoke(clk, call, reqID)
	return res, err
}

// invoke is Invoke plus the retransmission count, which the router's
// fault policy reads to detect a lossy period.
func (s *SyncSyscallChannel) invoke(clk *cycles.Clock, call linuxabi.Call, reqID uint64) (linuxabi.Result, int, error) {
	cost := s.hvm.cost
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return linuxabi.Result{}, 0, fmt.Errorf("hvm: sync syscall channel closed")
	}
	rc := s.replyFree
	s.replyFree = nil
	s.mu.Unlock()
	if rc == nil {
		rc = make(chan syncSysRep, 1)
	}
	seq := s.calls.Add(1)

	start := clk.Now()
	flow := flowID(s.id, seq)
	var sp *telemetry.Span
	if tr := s.hvm.tracer; tr.Enabled() {
		sp = tr.Begin(telemetry.Track{Core: int(s.hrtCore), Name: "hrt"},
			"sync", "sync-syscall", start,
			telemetry.Attr{Key: "num", Val: uint64(call.Num)},
			telemetry.Attr{Key: "req", Val: reqID})
		sp.LinkOut(flow)
	}

	var rep syncSysRep
	retx := 0
	if fi := s.hvm.faults; fi != nil {
		// Poll-deadline policy, same as the event channel: a dropped or
		// corrupted request word goes unanswered, the caller's virtual
		// deadline expires, and it rewrites the line with backoff. The
		// cacheline protocol cannot duplicate a request, so only drop and
		// corrupt apply here.
		timeout := fi.RetryTimeout()
		max := fi.MaxAttempts()
	send:
		for attempt := 0; ; attempt++ {
			last := attempt >= max-1
			clk.Advance(cost.SyncProtocolOverhead / 2)
			// A lost or damaged request is never answered, so the
			// reply channel is still empty for the resend.
			req := syncSysReq{call: call, stamp: clk.Now() + s.line(), flow: flow, reply: rc}
			dropped := !last && fi.Roll(faults.DropNotify, s.id, seq, attempt, clk.Now())
			if !dropped {
				req.corrupt = !last && fi.Roll(faults.CorruptFrame, s.id, seq, attempt, clk.Now())
				s.serve <- req
				if !req.corrupt {
					rep = <-req.reply
					break send
				}
			}
			clk.Advance(timeout)
			timeout *= 2
			retx++
			s.hvm.metrics.Counter("faults.retransmit").Inc()
			s.hvm.tracer.InstantFlow(telemetry.Track{Core: int(s.hrtCore), Name: "hrt"},
				"sync", "retransmit", clk.Now(), 0, flow,
				telemetry.Attr{Key: "seq", Val: seq},
				telemetry.Attr{Key: "req", Val: reqID},
				telemetry.Attr{Key: "attempt", Val: uint64(retx)})
			s.hvm.recorder.Record(clk.Now(), telemetry.RecRetransmit, s.id, reqID, seq, uint64(retx))
		}
	} else {
		clk.Advance(cost.SyncProtocolOverhead / 2)
		req := syncSysReq{call: call, stamp: clk.Now() + s.line(), flow: flow, reply: rc}
		s.serve <- req
		rep = <-req.reply
	}
	clk.SyncTo(rep.stamp + s.line())
	clk.Advance(cost.SyncProtocolOverhead - cost.SyncProtocolOverhead/2)
	sp.EndAt(clk.Now())
	s.mu.Lock()
	if s.replyFree == nil {
		s.replyFree = rc
	}
	s.mu.Unlock()
	s.callCtr.Inc()
	s.callLat.Observe(clk.Now() - start)
	s.hvm.recorder.Record(clk.Now(), telemetry.RecSyncCall, s.id, reqID, seq, uint64(retx))
	return rep.res, retx, nil
}

// Serve handles one forwarded call on the polling ROS thread; it blocks
// until a request arrives and returns false when the channel closes.
// Requests that arrived damaged are discarded without an answer — the
// caller's poll deadline resends them.
func (s *SyncSyscallChannel) Serve(clk *cycles.Clock, handler func(linuxabi.Call) linuxabi.Result) bool {
	for {
		req, ok := <-s.serve
		if !ok {
			return false
		}
		clk.SyncTo(req.stamp)
		if req.corrupt {
			s.hvm.metrics.Counter("faults.corrupt.detected").Inc()
			continue
		}
		var sp *telemetry.Span
		if tr := s.hvm.tracer; tr.Enabled() {
			sp = tr.Begin(telemetry.Track{Core: int(s.rosCore), Name: fmt.Sprintf("ros:syncsvc:%d", s.id)},
				"sync", "serve-syscall", req.stamp, telemetry.Attr{Key: "num", Val: uint64(req.call.Num)})
			sp.LinkIn(req.flow)
		}
		res := handler(req.call)
		sp.EndAt(clk.Now())
		req.reply <- syncSysRep{res: res, stamp: clk.Now()}
		return true
	}
}

// Close shuts the channel down; the poller's Serve returns false.
func (s *SyncSyscallChannel) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.serve)
	}
}

// Calls reports how many calls crossed. It is race-free against
// concurrent Invoke calls.
func (s *SyncSyscallChannel) Calls() uint64 { return s.calls.Load() }

// VA returns the agreed synchronization address.
func (s *SyncSyscallChannel) VA() uint64 { return s.va }
