package telemetry

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"

	"multiverse/internal/cycles"
)

// EventCode identifies one kind of flight-recorder event. Codes are
// stable small integers so a recorded ring is cheap to fill and the
// dump format is greppable.
type EventCode uint8

// Flight-recorder event codes. The Site/A/B meanings per code are
// documented next to each constant; Req is always the causal request id
// (0 when the event is not attributable to a single syscall).
const (
	RecNone        EventCode = iota
	RecDoorbell              // channel forward posted; Site=channel, A=seq, B=event kind
	RecDeliver               // partner picked up an envelope; Site=channel, A=seq
	RecComplete              // envelope completed + reply sent; Site=channel, A=seq
	RecRetransmit            // sender timed out and re-sent; Site=channel, A=seq, B=attempt
	RecDedup                 // receiver dropped a duplicate; Site=channel, A=seq
	RecCorrupt               // receiver dropped a corrupt frame; Site=channel, A=seq
	RecSyncCall              // sync-channel invoke; Site=channel, A=seq, B=retransmits
	RecTierLocal             // router served locally; Site=hrt core, A=syscall num
	RecTierCache             // router cache hit; Site=hrt core, A=syscall num
	RecPromote               // router promoted channel to sync; Site=hrt core
	RecDemote                // router demoted channel to async; Site=hrt core
	RecFaultRoll             // injector fired; Site=roll site id, A=fault kind, B=seq
	RecRequeue               // respawn replayed an inflight envelope; Site=channel, A=seq
	RecRespawn               // recovery respawned a partner; Site=group, A=generation, B=replayed
	RecDegrade               // recovery budget exhausted, ROS-only; Site=group, A=recoveries
	RecPanic                 // contained HRT panic; Site=thread, A=syscall count
	RecThreadPanic           // real host panic recovered in Thread.Run; Site=thread
	RecWedge                 // ErrGroupWedged fired; Site=group
	RecMergeDelta            // merger applied a delta; Site=core, A=entries
	RecRemerge               // fault-path re-merge; Site=thread, A=fault address
	RecCheckpoint            // group state serialized for migration; Site=group, A=delta slots, B=inflight seqnos
	RecRestore               // group restored on a grid node; Site=group, A=source node, B=target node
	RecDrain                 // node drained; Site=node, A=groups migrated off
	RecNodeKill              // node-kill injected; Site=node, A=victim groups
	RecMigrateDone           // migration completed; Site=group, A=latency (virtual cycles), B=target node
	RecPolledFault           // page fault served over a polled rung; Site=channel, A=seq, B=retransmits
)

var recNames = map[EventCode]string{
	RecDoorbell:    "doorbell",
	RecDeliver:     "deliver",
	RecComplete:    "complete",
	RecRetransmit:  "retransmit",
	RecDedup:       "dedup",
	RecCorrupt:     "corrupt-drop",
	RecSyncCall:    "sync-call",
	RecTierLocal:   "tier-local",
	RecTierCache:   "tier-cache",
	RecPromote:     "promote",
	RecDemote:      "demote",
	RecFaultRoll:   "fault-roll",
	RecRequeue:     "requeue",
	RecRespawn:     "respawn",
	RecDegrade:     "degrade",
	RecPanic:       "panic-contained",
	RecThreadPanic: "thread-panic",
	RecWedge:       "wedged",
	RecMergeDelta:  "merge-delta",
	RecRemerge:     "remerge",

	RecCheckpoint:  "checkpoint",
	RecRestore:     "restore",
	RecDrain:       "drain",
	RecNodeKill:    "node-kill",
	RecMigrateDone: "migrate-complete",
	RecPolledFault: "polled-fault",
}

// String returns the dump name of the code.
func (c EventCode) String() string {
	if n, ok := recNames[c]; ok {
		return n
	}
	return fmt.Sprintf("code-%d", uint8(c))
}

// Event is one flight-recorder entry. All fields are plain integers:
// recording is a struct copy under a mutex, no allocation, no
// formatting, and — critically — no virtual-clock interaction, so an
// armed recorder cannot perturb simulated results.
type Event struct {
	VTime cycles.Cycles
	Code  EventCode
	Site  uint64 // channel/thread/group/core id, per code
	Req   uint64 // causal request id, 0 if not attributable
	A, B  uint64 // per-code payload
}

// Recorder is the always-on flight recorder: a fixed-size ring of
// structured events. It keeps the most recent `size` events; Total()
// counts everything ever recorded. A nil *Recorder is the disabled
// default and every method is nil-safe.
//
// The ring is deliberately not lock-free: a single uncontended mutex
// acquisition per event is well under the wall-clock budget, and it
// keeps torn reads out of the dump path without atomics gymnastics.
type Recorder struct {
	mu     sync.Mutex
	chunks [][]Event // the ring, in recChunk pieces allocated on first use
	size   int
	next   int // ring position of the next event
	total  uint64

	dumpW    io.Writer
	dumped   bool
	lastWhy  string
	lastDump string
}

// DefaultRecorderSize is the ring capacity used when callers pass 0.
const DefaultRecorderSize = 8192

// recChunk is how many events one piece of the ring holds: a run that
// records few events allocates one 6 KB piece, not the whole ring. A
// hybrid boot records its merge, so every hybrid boot pays one piece.
const recChunk = 128

// NewRecorder returns a recorder holding the last `size` events
// (DefaultRecorderSize when size <= 0).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	return &Recorder{size: size, chunks: make([][]Event, (size+recChunk-1)/recChunk)}
}

// Record appends one event, overwriting the oldest when full.
func (r *Recorder) Record(at cycles.Cycles, code EventCode, site, req, a, b uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	c := r.chunks[r.next/recChunk]
	if c == nil {
		c = make([]Event, min(recChunk, r.size-r.next))
		r.chunks[r.next/recChunk] = c
	}
	c[r.next%recChunk] = Event{VTime: at, Code: code, Site: site, Req: req, A: a, B: b}
	if r.next++; r.next == r.size {
		r.next = 0
	}
	r.total++
	r.mu.Unlock()
}

// at returns the event at ring position pos.
func (r *Recorder) at(pos int) Event { return r.chunks[pos/recChunk][pos%recChunk] }

// Total returns the number of events ever recorded (including ones the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns the retained events sorted by virtual time, ties
// broken on (Site, Req, Code, A, B). Sorting by VTime makes the dump a
// causal timeline even when events were appended from different host
// goroutines; the tie key covers every rendered field, so a fixed set
// of events comes back in one order whatever the append order was.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	n, start := r.size, r.next // a full ring starts at its oldest event
	if r.total < uint64(r.size) {
		n, start = int(r.total), 0
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = r.at((start + i) % r.size)
	}
	r.mu.Unlock()
	slices.SortFunc(out, func(x, y Event) int {
		return cmp.Or(cmp.Compare(x.VTime, y.VTime), cmp.Compare(x.Site, y.Site),
			cmp.Compare(x.Req, y.Req), cmp.Compare(x.Code, y.Code),
			cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return out
}

// SetAutoDumpWriter directs automatic dumps (AutoDump) at w. When no
// writer is set the dump text is still rendered and retained for
// LastDump, so tests and post-mortem tooling can read it without the
// recorder spamming stderr during expected-failure runs.
func (r *Recorder) SetAutoDumpWriter(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.dumpW = w
	r.mu.Unlock()
}

// AutoDump renders the ring once per run on the first failure trigger
// (contained HRT panic, group wedge, recovery-budget exhaustion).
// Subsequent calls are no-ops: the first trigger is the interesting
// one, and a cascading failure must not dump the ring N times.
func (r *Recorder) AutoDump(reason string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.dumped {
		r.mu.Unlock()
		return
	}
	r.dumped = true
	w := r.dumpW
	r.mu.Unlock()

	text := r.renderDump(reason)
	r.mu.Lock()
	r.lastWhy = reason
	r.lastDump = text
	r.mu.Unlock()
	if w != nil {
		io.WriteString(w, text)
	}
}

// LastDump returns the reason and text of the automatic dump, if one
// fired ("" otherwise).
func (r *Recorder) LastDump() (reason, text string) {
	if r == nil {
		return "", ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastWhy, r.lastDump
}

// DumpTo renders the ring to w unconditionally (the explicit
// `mvrun -flight` end-of-run path).
func (r *Recorder) DumpTo(w io.Writer, reason string) error {
	if r == nil {
		return nil
	}
	_, err := io.WriteString(w, r.renderDump(reason))
	return err
}

func (r *Recorder) renderDump(reason string) string {
	evs := r.Events()
	total := r.Total()
	out := fmt.Sprintf("=== flight recorder dump: %s ===\n", reason)
	out += fmt.Sprintf("events retained=%d total=%d\n", len(evs), total)
	for _, e := range evs {
		out += fmt.Sprintf("vt=%-12d %-16s site=%-6d req=%#-18x a=%-8d b=%d\n",
			uint64(e.VTime), e.Code.String(), e.Site, e.Req, e.A, e.B)
	}
	out += "=== end flight recorder dump ===\n"
	return out
}
