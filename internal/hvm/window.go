package hvm

import (
	"sort"
	"sync"

	"multiverse/internal/faults"
	"multiverse/internal/telemetry"
)

// retxWindow is an event channel's receiver-side recovery state: the
// seqnos already serviced (duplicate coalescing), the envelopes received
// but not yet completed (what a dead partner leaves behind), and the
// redelivery queue a delivery drains before its own frame. It exists only
// while the fault plane is armed. Every method is nil-safe, and the nil
// window is the fault-free channel: nothing is ever redelivered and
// every delivery is fresh.
type retxWindow struct {
	mu        sync.Mutex
	completed map[uint64]bool
	inflight  map[uint64]*Envelope
	redeliver []*Envelope
	// scratch is requeue's reusable staging slice: respawn storms rebuild
	// the redelivery queue without allocating a fresh slice per respawn.
	scratch []*Envelope
	// depth gauges the window's occupancy (redeliver queue + in-flight
	// set).
	depth *telemetry.Gauge
}

// newRetxWindow builds the window of a channel on an armed fault plane,
// or returns nil when fi is nil.
func newRetxWindow(fi *faults.Injector, m *telemetry.Registry) *retxWindow {
	if fi == nil {
		return nil
	}
	return &retxWindow{
		completed: make(map[uint64]bool),
		inflight:  make(map[uint64]*Envelope),
		depth:     m.Gauge("faults.retransmit.depth"),
	}
}

// seal stamps env's integrity word for channel id. Only an armed plane
// corrupts frames, so a nil window leaves the word unset.
func (w *retxWindow) seal(id uint64, env *Envelope) {
	if w != nil {
		env.Checksum = frameChecksum(id, env)
	}
}

// intact reports whether env's integrity word matches its contents; a
// nil window checks nothing.
func (w *retxWindow) intact(id uint64, env *Envelope) bool {
	return w == nil || env.Checksum == frameChecksum(id, env)
}

// frameChecksum is the integrity word of a request frame on channel id.
func frameChecksum(id uint64, env *Envelope) uint64 {
	return faults.Checksum(
		id, env.Seq, uint64(env.Kind),
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

// unlock releases mu and publishes the window's occupancy to the gauge.
func (w *retxWindow) unlock() {
	d := len(w.redeliver) + len(w.inflight)
	w.mu.Unlock()
	w.depth.Set(uint64(d))
}

// take pops the next redelivery, or nil when the queue is empty.
func (w *retxWindow) take() *Envelope {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	if len(w.redeliver) == 0 {
		w.mu.Unlock()
		return nil
	}
	env := w.redeliver[0]
	w.redeliver = w.redeliver[1:]
	w.unlock()
	return env
}

// accept admits a delivery into the in-flight set; false means its seqno
// is already completed and the delivery is a duplicate.
func (w *retxWindow) accept(env *Envelope) bool {
	if w == nil {
		return true
	}
	w.mu.Lock()
	if w.completed[env.Seq] {
		w.mu.Unlock()
		return false
	}
	w.inflight[env.Seq] = env
	w.unlock()
	return true
}

// complete marks seq served and drops it from the in-flight set.
func (w *retxWindow) complete(seq uint64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.completed[seq] = true
	delete(w.inflight, seq)
	w.unlock()
}

// queueDup queues a duplicate delivery of env; false means the window is
// at bound (> 0) and the duplicate was not queued.
func (w *retxWindow) queueDup(env *Envelope, bound int) bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	if bound > 0 && len(w.redeliver)+len(w.inflight) >= bound {
		w.mu.Unlock()
		return false
	}
	w.redeliver = append(w.redeliver, env)
	w.unlock()
	return true
}

// Replayed describes one envelope Requeue put back for redelivery: its
// seqno, the causal request id it carries, and its cross-track flow id,
// so recovery can record the replay and flow-link its respawn
// marker back to the original forward.
type Replayed struct {
	Seq   uint64
	ReqID uint64
	Flow  uint64
}

// requeue moves the in-flight set to the head of the redelivery queue in
// seqno order and returns what it moved.
func (w *retxWindow) requeue() []Replayed {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.inflight) == 0 {
		return nil
	}
	// Stage the replay set in the reusable scratch slice, then append the
	// existing queue behind it and swap the two slices: a respawn storm
	// recycles the same two backing arrays instead of allocating a fresh
	// queue per respawn. The inflight map is cleared, not re-made, for the
	// same reason.
	replay := w.scratch[:0]
	for _, env := range w.inflight {
		replay = append(replay, env)
	}
	clear(w.inflight)
	sort.Slice(replay, func(i, j int) bool { return replay[i].Seq < replay[j].Seq })
	nreplay := len(replay)
	replay = append(replay, w.redeliver...)
	w.scratch = w.redeliver[:0]
	w.redeliver = replay
	out := make([]Replayed, nreplay)
	for i, env := range replay[:nreplay] {
		out[i] = Replayed{Seq: env.Seq, ReqID: env.ReqID, Flow: env.flow}
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

// snapshot fills the window fields of a checkpoint (all but NextSeq).
func (w *retxWindow) snapshot() ChannelWindow {
	var cw ChannelWindow
	if w == nil {
		return cw
	}
	w.mu.Lock()
	cw.Completed = len(w.completed)
	cw.Redeliver = len(w.redeliver)
	for seq := range w.inflight {
		cw.Inflight = append(cw.Inflight, seq)
	}
	w.mu.Unlock()
	sort.Slice(cw.Inflight, func(i, j int) bool { return cw.Inflight[i] < cw.Inflight[j] })
	return cw
}
