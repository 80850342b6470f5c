package legion

import (
	"multiverse/internal/cycles"
	"multiverse/internal/machine"
)

// Chunked partitioning splits every launch: [0, n) becomes up to maxChunks
// contiguous chunks of at least minChunk indices. The layout is a function
// of n ONLY — never of the worker count, the mode or who runs what — so
// per-chunk partial sums land in the same accumulator slots whatever the
// steal pattern, and reductions are bit-identical between a 1-worker
// serial run, a static split and a stealing run.
const (
	minChunk  = 64
	maxChunks = 64
)

// chunk is one contiguous index range with its reduction accumulator slot.
type chunk struct {
	lo, hi int
	slot   int
}

// chunkRanges splits [0, n) into the canonical chunk decomposition.
func chunkRanges(n int) []chunk {
	if n <= 0 {
		return nil
	}
	nchunks := (n + minChunk - 1) / minChunk
	if nchunks > maxChunks {
		nchunks = maxChunks
	}
	out := make([]chunk, nchunks)
	for i := 0; i < nchunks; i++ {
		out[i] = chunk{lo: i * n / nchunks, hi: (i + 1) * n / nchunks, slot: i}
	}
	return out
}

// deque models a Chase–Lev work-stealing deque over a contiguous chunk
// run: the owner pops from the bottom, thieves take from the top. The
// executor drives every deque from one goroutine, so the model needs no
// atomics — the concurrency is in virtual time, where it belongs.
type deque struct {
	chunks []chunk
	top    int // next chunk a thief would take
	bot    int // one past the next chunk the owner would take
}

func (d *deque) reset(cs []chunk) { d.chunks = cs; d.top = 0; d.bot = len(cs) }
func (d *deque) size() int        { return d.bot - d.top }
func (d *deque) popBottom() chunk { d.bot--; return d.chunks[d.bot] }
func (d *deque) stealTop() chunk  { c := d.chunks[d.top]; d.top++; return c }

// stealLaunch executes one index launch of nchunks dealt chunks under the
// work-stealing scheduler as a deterministic discrete-event simulation:
// the worker able to act at the earliest virtual time (ties to the lowest
// id) repeatedly pops its own bottom chunk — or, with an empty deque,
// steals the top chunk of the fullest victim, paying the Chase–Lev steal
// plus an IPI-class kick when the victim lives on another core. Each burst serializes on its core's
// free time through the scheduler, so same-core workers never overlap in
// virtual time, and the whole schedule depends only on clock arithmetic —
// host goroutine interleaving cannot touch it.
//
// The executor owns every burst on the worker cores for the duration of a
// launch, so the per-core free stamps are snapshot once, evolved locally
// (BurstStartAt/BurstEndAt), and published once at the end — zero
// scheduler lock round trips per event instead of the ~p+2 the unbatched
// loop paid. On top of that, after the chosen worker finishes a chunk it
// keeps draining in the same scan whenever it provably remains the
// argmin: every other worker's ready time is monotone during the launch,
// so "my new ready time beats the previous scan's runner-up (ties to the
// lower index)" guarantees a fresh scan would pick me again. Chunk order,
// steal decisions, per-chunk queue-delay observations, and halt/wake
// accounting are bit-identical to the one-event-per-scan loop.
func (rt *Runtime) stealLaunch(nchunks int, b body) {
	ws := rt.workers
	p := len(ws)
	// The master pays one deque push per chunk, then publishes the launch.
	rt.sched.ChargeEnqueue(rt.env.Clock(), nchunks)
	stamp := rt.env.Clock().Now()
	for _, w := range ws {
		w.env.Clock().SyncTo(stamp)
	}

	if rt.launchCores == nil {
		rt.launchCores = make([]machine.CoreID, p)
		rt.launchFrees = make([]cycles.Cycles, p)
		for i, w := range ws {
			rt.launchCores[i] = w.core
		}
	}
	frees := rt.launchFrees
	rt.sched.FreeSnapshot(rt.launchCores, frees)

	steals := 0
	remaining := nchunks
	for remaining > 0 {
		best, second := -1, -1
		var bestAt, secondAt cycles.Cycles
		for i, w := range ws {
			at := w.env.Clock().Now()
			if free := frees[i]; free > at {
				at = free
			}
			if best < 0 || at < bestAt {
				second, secondAt = best, bestAt
				best, bestAt = i, at
			} else if second < 0 || at < secondAt {
				second, secondAt = i, at
			}
		}
		w := ws[best]
		for {
			var c chunk
			if w.deque.size() > 0 {
				c = w.deque.popBottom()
			} else {
				v := rt.victimFor(best)
				c = v.deque.stealTop()
				rt.sched.ChargeSteal(w.env.Clock(), v.core != w.core)
				steals++
			}
			rt.sched.BurstStartAt(w.core, w.env.Clock(), w.tid, frees[best])
			rt.sched.ObserveQueueDelay(w.env.Clock().Now() - stamp)
			b.run(w, c)
			end := rt.sched.BurstEndAt(w.core, w.env.Clock())
			for j, other := range ws {
				if other.core == w.core && frees[j] < end {
					frees[j] = end
				}
			}
			remaining--
			if remaining == 0 {
				break
			}
			// Drain check: the whole point of batching. end is both w's
			// clock and its core's free stamp, so end is w's next ready
			// time.
			if second >= 0 && end > secondAt {
				break
			}
			if second >= 0 && end == secondAt && best > second {
				break
			}
		}
	}
	rt.sched.PublishFreeAt(rt.launchCores, frees)
	rt.Steals += steals

	// Completion barrier: the master observes one wake+wait pair per
	// worker and synchronizes past the slowest.
	maxEnd := stamp
	for range ws {
		rt.coster.chargeWake(rt.env)
		rt.coster.chargeWait(rt.env)
		rt.SyncOps += 2
	}
	for _, w := range ws {
		if now := w.env.Clock().Now(); now > maxEnd {
			maxEnd = now
		}
	}
	rt.env.Clock().SyncTo(maxEnd)
}

// victimFor picks the steal victim for thief: the worker with the most
// queued chunks, ties to the lowest id.
func (rt *Runtime) victimFor(thief int) *worker {
	var victim *worker
	for _, w := range rt.workers {
		if w.id == thief || w.deque.size() == 0 {
			continue
		}
		if victim == nil || w.deque.size() > victim.deque.size() {
			victim = w
		}
	}
	return victim
}
