package scheme

import (
	"fmt"
	"sort"

	"multiverse/internal/linuxabi"
	"multiverse/internal/ros"
	"multiverse/internal/telemetry"
)

// The collector stands in for the SenoraGC conservative collector the
// paper's Racket port uses. Its OS discipline is the point of the
// reproduction:
//
//   - the heap is built from mmap'd segments (heap creation dominates the
//     startup syscall profile, Figure 11);
//   - after a collection, surviving segments are write-protected with
//     mprotect; the first mutation in a protected segment takes a SIGSEGV
//     that the registered handler resolves by un-protecting the segment —
//     "mmap(), munmap(), and mprotect() arrange memory protections to
//     create SIGSEGVs for the garbage collector" (Figure 12 discussion);
//   - fully dead segments are returned with munmap;
//   - each collection ends with a getrusage call, as runtime accounting
//     does.
//
// Collection is mark-and-non-moving-sweep at whole-segment granularity:
// cells are never reused individually, so a reachable object missed by
// the root scan (the conservative caveat) can never be corrupted — its
// segment merely stays categorized as live or, if unmapped, drops out of
// barrier bookkeeping.
type GC struct {
	in *Interp

	backend  memBackend          // provides new segments (legacy or AK)
	segments map[uint64]*segment // by base address
	nursery  *segment

	allocBytes uint64 // since last collection
	threshold  uint64
	liveBytes  uint64

	roots      []*Obj
	sinceMajor int

	// epoch is the current collection's mark: collect bumps it, and an
	// object (Obj.mark) or frame (Frame.seen) is marked when its stamp
	// equals it, so marking needs no side table and unmarking is free.
	// Fresh cells and frames hold 0, which no collection uses until the
	// counter wraps after 2^32 collections. minor is the kind of the
	// collection in progress.
	epoch uint32
	minor bool

	// Stats.
	Collections      uint64
	MinorCollections uint64
	MajorCollections uint64
	BarrierFaults    uint64
	SegmentsEver     uint64
	SegmentsFreed    uint64
	MarkedLast       uint64
}

// telemetryScope extracts the telemetry instruments from an OS that
// provides them (the core environments do). The OS interface itself is
// untouched: environments without telemetry yield the zero Scope, whose
// instruments are all no-ops.
func telemetryScope(os OS) telemetry.Scope {
	if ts, ok := os.(interface{ TelemetryScope() telemetry.Scope }); ok {
		return ts.TelemetryScope()
	}
	return telemetry.Scope{}
}

// Segment geometry: 64 KiB segments of 48-byte cells. Each segment's
// cells are stored in page-sized chunks of chunkCells cells (4,080 bytes,
// Go's 4 KiB size class), so host memory follows the cells handed out.
const (
	segBytes   = 64 * 1024
	cellBytes  = 48
	segCells   = segBytes / cellBytes
	pageBytes  = 4096
	chunkCells = pageBytes / cellBytes
	segChunks  = (segCells + chunkCells - 1) / chunkCells
	gcMinHeap  = 8 * segBytes
	// majorEvery is the generational schedule: every Nth collection is a
	// full (major) collection; the others are minor collections that
	// sweep only the young generation, using the write-protection
	// remembered set (dirty old segments) as extra roots.
	majorEvery = 4
	handlerVA  = 0x0000_0000_0041_1000 // where the SIGSEGV handler "lives"
	markCost   = 9                     // cycles per object visited in mark
	sweepCost  = 120                   // cycles per segment in sweep
	allocCost  = 14                    // cycles per cell allocation
)

// A cell's index in its segment must fit Obj.idx.
const _ uint16 = segCells - 1

type segment struct {
	base uint64
	n    int // cells handed out, in address order
	// chunks is the Go-side cell storage: cell i is chunks[i/chunkCells]
	// [i%chunkCells], and a chunk is allocated when the bump allocator
	// enters it.
	chunks    [segChunks]*[chunkCells]Obj
	protected bool
	old       bool       // promoted by a previous collection
	backend   memBackend // the backend that mapped this segment
	lastPage  uint64     // last heap page touched by the bump allocator
}

// dirty reports whether an old segment has been mutated since it was last
// protected — i.e. it is in the remembered set and may point at young
// objects.
func (s *segment) dirty() bool { return s.old && !s.protected }

func (s *segment) full() bool { return s.n >= segCells }

// usedChunks returns how many chunks hold allocated cells.
func (s *segment) usedChunks() int { return (s.n + chunkCells - 1) / chunkCells }

// chunk returns the allocated cells of chunk k < usedChunks().
func (s *segment) chunk(k int) []Obj {
	return s.chunks[k][:min(chunkCells, s.n-k*chunkCells)]
}

// newGC registers the SIGSEGV write-barrier handler and maps the initial
// heap.
func newGC(in *Interp) (*GC, error) {
	g := &GC{
		in:        in,
		backend:   syscallBackend{},
		segments:  make(map[uint64]*segment),
		threshold: gcMinHeap,
	}

	// Register the barrier handler code and install it with
	// rt_sigaction (the startup rt_sigaction traffic of Figure 11).
	in.os.RegisterSignalCode(handlerVA, g.segvHandler)
	res := in.os.Syscall(linuxabi.Call{
		Num:  linuxabi.SysRtSigaction,
		Args: [6]uint64{uint64(linuxabi.SIGSEGV), handlerVA, linuxabi.SAOnStack},
	})
	if !res.Ok() {
		return nil, fmt.Errorf("scheme: installing GC SIGSEGV handler: %v", res.Err)
	}

	// Create the initial heap: generations, nursery, and auxiliary
	// arenas up front — the mmap-dominated heap-creation storm that
	// leads the startup syscall profile (Figure 11).
	for i := 0; i < 16; i++ {
		if _, err := g.newSegment(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// newSegment maps one fresh segment through the current backend and
// makes it the nursery.
func (g *GC) newSegment() (*segment, error) {
	base, err := g.backend.mmap(g.in, segBytes)
	if err != nil {
		return nil, err
	}
	s := &segment{base: base, backend: g.backend}
	g.segments[s.base] = s
	g.nursery = s
	g.SegmentsEver++
	return s, nil
}

// alloc returns a fresh cell, collecting when the allocation budget is
// spent.
func (g *GC) alloc() *Obj {
	g.in.charge(allocCost)
	if g.allocBytes >= g.threshold {
		g.collectAuto()
	}
	s := g.nursery
	if s == nil || s.full() || s.protected {
		ns, err := g.newSegment()
		if err != nil {
			// Heap exhaustion is fatal to the runtime, as it is in a
			// real interpreter without error recovery at this level.
			panic(err)
		}
		s = ns
	}
	addr := s.base + uint64(s.n)*cellBytes
	// Cells come from page-sized chunks: one Go allocation per chunk
	// instead of one per cell, made when the bump pointer enters it, so
	// cell pointers never move and segments that never become the
	// nursery (most of the initial heap) pay nothing.
	c := s.chunks[s.n/chunkCells]
	if c == nil {
		c = new([chunkCells]Obj)
		s.chunks[s.n/chunkCells] = c
	}
	o := &c[s.n%chunkCells]
	o.idx = uint16(s.n)
	o.seg = s
	s.n++
	g.allocBytes += cellBytes

	// First touch of each heap page demand-pages it in (the minor-fault
	// traffic of Figure 10).
	page := addr &^ (pageBytes - 1)
	if page != s.lastPage {
		s.lastPage = page
		if err := g.in.os.Touch(addr, true); err != nil {
			panic(fmt.Sprintf("scheme: heap touch at %#x: %v", addr, err))
		}
	}
	return o
}

// creditBytes accounts payload bytes (strings, vector backing) toward the
// collection budget.
func (g *GC) creditBytes(n int) {
	if n > 0 {
		g.allocBytes += uint64(n)
	}
}

// addRoot registers a permanent root (interned symbols, globals table).
func (g *GC) addRoot(o *Obj) { g.roots = append(g.roots, o) }

// WriteBarrier must be called before mutating a heap object in place
// (set-car!, vector-set!, string-set!). If the object's segment is
// write-protected, the store takes a page fault that the SIGSEGV handler
// resolves by un-protecting the segment.
func (g *GC) WriteBarrier(o *Obj) {
	s := o.seg
	if s == nil || !s.protected {
		return
	}
	addr := s.base + uint64(o.idx)*cellBytes
	if err := g.in.os.Touch(addr, true); err != nil {
		panic(fmt.Sprintf("scheme: write barrier at %#x: %v", addr, err))
	}
}

// segvHandler is the registered SIGSEGV handler: find the segment that
// faulted and un-protect it. ctx.Sys routes its mprotect into the kernel
// context that delivered the signal (natively the faulting thread; under
// Multiverse the ROS partner that replicated the access).
func (g *GC) segvHandler(ctx *ros.SignalContext) {
	g.BarrierFaults++
	telemetryScope(g.in.os).Metrics.Counter("gc.barrier_faults").Inc()
	s := g.segmentOf(ctx.FaultAddr)
	if s == nil || !s.protected {
		// Fault in a region the collector no longer tracks: nothing to
		// fix; the retried access will surface the real failure.
		return
	}
	if _, isAK := s.backend.(*akBackend); isAK {
		// AK-backed segments never reach the ROS SIGSEGV path; their
		// faults resolve in the AeroKernel handler.
		return
	}
	sys := ctx.Sys
	if sys == nil {
		sys = g.in.os.Syscall
	}
	res := sys(linuxabi.Call{
		Num:  linuxabi.SysMprotect,
		Args: [6]uint64{s.base, segBytes, linuxabi.ProtRead | linuxabi.ProtWrite},
	})
	if res.Ok() {
		s.protected = false
	}
}

func (g *GC) segmentOf(addr uint64) *segment {
	base := addr &^ (segBytes - 1)
	if s, ok := g.segments[base]; ok {
		return s
	}
	// Segments are segBytes-sized but mmap may not align them; fall back
	// to a scan.
	for _, s := range g.segments {
		if addr >= s.base && addr < s.base+segBytes {
			return s
		}
	}
	return nil
}

// Collect runs a full (major) mark/sweep collection.
func (g *GC) Collect() { g.collect(false) }

// collectAuto follows the generational schedule.
func (g *GC) collectAuto() {
	minor := g.sinceMajor < majorEvery-1
	g.collect(minor)
}

// collect runs one collection. A minor collection considers only the
// young generation: old segments survive untouched, and the dirty ones —
// those the write barrier un-protected since the last collection — serve
// as additional roots, since only they can point at young objects. This
// is what the mprotect/SIGSEGV discipline is *for*.
func (g *GC) collect(minor bool) {
	g.Collections++
	kind := uint64(0)
	if minor {
		g.MinorCollections++
		g.sinceMajor++
		kind = 1
	} else {
		g.MajorCollections++
		g.sinceMajor = 0
	}
	in := g.in

	// Telemetry: the pause and its phases are spans on the interpreter's
	// execution track. Compute charges are flushed at phase boundaries so
	// the clock reflects each phase's cost; the flushes move no cycles,
	// only push already-accumulated ones, so timing is unchanged.
	scope := telemetryScope(in.os)
	clk := in.os.Clock()
	in.flushCompute()
	start := clk.Now()
	pause := scope.Tracer.Begin(scope.Track, "gc", "gc-pause", start,
		telemetry.Attr{Key: "minor", Val: kind})

	// Mark.
	markSp := scope.Tracer.Begin(scope.Track, "gc", "mark", clk.Now())
	g.epoch++
	g.minor = minor
	g.MarkedLast = 0
	for _, r := range g.roots {
		g.mark(r)
	}
	g.markFrame(in.global)
	if minor {
		// The remembered set: every cell of a dirty old segment may hold
		// the only reference to a young object.
		for _, s := range g.segments {
			if s.dirty() {
				for k := 0; k < s.usedChunks(); k++ {
					cells := s.chunk(k)
					for i := range cells {
						g.mark(&cells[i])
					}
				}
			}
		}
	}
	in.flushCompute()
	markSp.SetAttr("marked", g.MarkedLast)
	markSp.EndAt(clk.Now())

	sweepSp := scope.Tracer.Begin(scope.Track, "gc", "sweep", clk.Now())
	// Sweep: unmap segments with no marked cells; write-protect the
	// survivors (the generational remembered-set discipline); the
	// current nursery stays writable for the bump allocator.
	var dead []*segment
	live := uint64(0)
	for _, s := range g.segments {
		if minor && s.old {
			// Old generation is out of scope for a minor collection.
			continue
		}
		in.charge(sweepCost)
		any := false
		for k := 0; k < s.usedChunks(); k++ {
			cells := s.chunk(k)
			for i := range cells {
				if cells[i].mark == g.epoch {
					any = true
					live += cellBytes
				}
			}
		}
		// The nursery stays mapped even when empty of live cells: the
		// bump allocator is still parked in it.
		if !any && s.n > 0 && s != g.nursery {
			dead = append(dead, s)
		}
	}
	// Deterministic unmap order.
	sort.Slice(dead, func(i, j int) bool { return dead[i].base < dead[j].base })
	for _, s := range dead {
		if s.backend.munmap(in, s.base, segBytes) {
			for k := 0; k < s.usedChunks(); k++ {
				cells := s.chunk(k)
				for i := range cells {
					cells[i].seg = nil // cells outlive the segment harmlessly
				}
			}
			delete(g.segments, s.base)
			g.SegmentsFreed++
		}
	}
	in.flushCompute()
	sweepSp.SetAttr("freed", uint64(len(dead)))
	sweepSp.EndAt(clk.Now())

	protSp := scope.Tracer.Begin(scope.Track, "gc", "protect", clk.Now())
	// Allocation resumes in a fresh nursery; every surviving segment —
	// including the one that was the nursery — becomes old generation
	// and is write-protected (re-arming the remembered set).
	g.nursery = nil
	for _, s := range g.segments {
		s.old = true
	}
	bases := make([]uint64, 0, len(g.segments))
	for b := range g.segments {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, b := range bases {
		s := g.segments[b]
		if s.protected {
			continue
		}
		if s.backend.protect(in, s.base, segBytes, false) {
			s.protected = true
		}
	}
	if _, err := g.newSegment(); err != nil {
		panic(err)
	}

	protSp.EndAt(clk.Now())

	// Accounting epilogue, as runtimes do after a collection.
	_ = in.Sys(linuxabi.Call{Num: linuxabi.SysGetrusage})

	pause.EndAt(clk.Now())
	scope.Metrics.Counter("gc.collections").Inc()
	if minor {
		scope.Metrics.Counter("gc.collections.minor").Inc()
	} else {
		scope.Metrics.Counter("gc.collections.major").Inc()
	}
	scope.Metrics.LatencyHistogram("gc.pause.latency").Observe(clk.Now() - start)

	g.allocBytes = 0
	if !minor {
		g.liveBytes = live
		next := live * 2
		if next < gcMinHeap {
			next = gcMinHeap
		}
		g.threshold = next
	}
}

// mark marks o and everything reachable from it, charging markCost per
// object newly marked. Immediates (no segment) are never marked: they are
// shared across interpreters, so the collector must not write to them.
func (g *GC) mark(o *Obj) {
	for o != nil && o.mark != g.epoch {
		if o.seg == nil {
			return // immediate
		}
		if g.minor && o.seg.old && o.seg.protected {
			// Clean old object: it survives by generation and — by the
			// write-barrier invariant — cannot point at young objects.
			// Stop here.
			return
		}
		o.mark = g.epoch
		g.MarkedLast++
		g.in.charge(markCost)
		switch o.Kind {
		case KPair:
			g.mark(o.Car)
			o = o.Cdr
			continue
		case KVector:
			for _, e := range o.ext.Vec {
				g.mark(e)
			}
		case KClosure:
			x := o.ext
			for _, p := range x.Params {
				g.mark(p)
			}
			g.mark(x.Rest)
			for _, b := range x.Body {
				g.mark(b)
			}
			g.markFrame(x.Env)
		}
		return
	}
}

// markFrame marks every binding of f and of its ancestors, stopping at
// the first frame this collection already visited.
func (g *GC) markFrame(f *Frame) {
	for ; f != nil && f.seen != g.epoch; f = f.parent {
		f.seen = g.epoch
		for i := 0; i < f.n; i++ {
			g.mark(f.slots[i].key)
			g.mark(f.slots[i].val)
		}
		for k, c := range f.big {
			g.mark(k)
			g.mark(c.v)
		}
	}
}

// LiveSegments returns the number of mapped segments.
func (g *GC) LiveSegments() int { return len(g.segments) }

// Stats renders a one-line summary.
func (g *GC) Stats() string {
	return fmt.Sprintf("gc: %d collections, %d segments live, %d freed, %d barrier faults",
		g.Collections, len(g.segments), g.SegmentsFreed, g.BarrierFaults)
}
