// Package telemetry is the deterministic observability layer of the
// Multiverse simulation: spans and metrics keyed to virtual time
// (cycles.Cycles), never wall clock, so a trace of a run is as
// reproducible as the run itself.
//
// Design constraints, in order:
//
//  1. Recording must never advance a virtual clock. Telemetry observes
//     the cost model; it is not part of it. Reported latencies are
//     therefore identical whether tracing is on or off.
//  2. The disabled path must be near-zero-cost. A nil *Tracer is the
//     no-op default: every method is nil-safe and returns before
//     allocating, so instrumentation sites can call unconditionally.
//  3. Exported artifacts must be byte-identical across runs. Everything
//     that reaches an exporter is either derived from virtual time
//     (deterministic by the repository's clock protocol) or sorted.
//
// Spans nest per track: a Track is one simulated execution context
// (a core plus a role such as "hrt" or "ros:main"), and Begin/End pairs
// on the same track form a stack, giving parent/child attribution
// without threading span handles through every call chain. Cross-context
// protocols (an event-channel forward serviced by a partner thread on
// another core) are stitched with flow links instead.
package telemetry

import (
	"sort"
	"sync"

	"multiverse/internal/cycles"
)

// Track identifies one timeline in the trace: a simulated core plus the
// execution context using it. The Chrome exporter maps Core to a trace
// "process" and Name to a "thread" within it, so per-core activity lines
// up visually the way the paper's figures discuss it.
type Track struct {
	Core int
	Name string
}

// Attr is one key/value annotation on a span. Values are uint64 because
// everything interesting in the simulation (addresses, counts, cycles)
// already is.
type Attr struct {
	Key string
	Val uint64
}

// Span is one timed region on a track. Fields are exported for the
// exporters and tests; instrumentation uses Begin/End/SetAttr.
type Span struct {
	Track Track
	Cat   string
	Name  string
	Start cycles.Cycles
	End   cycles.Cycles
	Attrs []Attr

	// Depth is the nesting level on the track at Begin time (0 = root).
	Depth int

	// Instant marks a zero-duration event (Start == End): a point in
	// virtual time rather than a region. The Chrome exporter renders it
	// as an instant ("i") event instead of a complete span.
	Instant bool

	// FlowOut/FlowIn carry cross-track link ids (0 = none): a span that
	// initiates work on another track sets FlowOut; the span servicing it
	// sets FlowIn with the same id.
	FlowOut uint64
	FlowIn  uint64

	tr     *Tracer
	parent *Span
	open   *openSpans // the track's open-span stack, while the span is open
	ended  bool
}

// openSpans is one track's stack of open spans.
type openSpans struct{ spans []*Span }

// Tracer collects spans. The zero value and nil are both valid disabled
// tracers; New returns an enabled one.
//
// Recording is on the forwarding hot path of an armed run, so a span
// costs no allocation of its own: spans and their attributes are carved
// from slabs, which also keeps callers' variadic attribute slices on
// their stacks, and a span start finds its track's stack through a
// one-entry cache before the map.
type Tracer struct {
	mu      sync.Mutex
	enabled bool
	spans   []*Span
	open    map[Track]*openSpans
	slab    []Span
	attrs   []Attr

	lastTrack Track
	lastOpen  *openSpans
}

// spanSlab is how many spans (and attributes) one slab allocation holds.
const spanSlab = 256

// New returns an enabled tracer.
func New() *Tracer {
	return &Tracer{enabled: true, open: make(map[Track]*openSpans)}
}

// newSpan carves a span from the current slab. Callers hold tr.mu.
func (tr *Tracer) newSpan(tk Track, cat, name string, at cycles.Cycles, attrs []Attr) *Span {
	if len(tr.slab) == 0 {
		tr.slab = make([]Span, spanSlab)
	}
	sp := &tr.slab[0]
	tr.slab = tr.slab[1:]
	sp.Track, sp.Cat, sp.Name, sp.Start, sp.tr = tk, cat, name, at, tr
	if n := len(attrs); n > 0 {
		if len(tr.attrs) < n {
			tr.attrs = make([]Attr, max(spanSlab, n))
		}
		// Capacity n: a later SetAttr reallocates rather than writing
		// into the next span's attributes.
		sp.Attrs = tr.attrs[:n:n]
		copy(sp.Attrs, attrs)
		tr.attrs = tr.attrs[n:]
	}
	return sp
}

// openOn returns tk's open-span stack. Callers hold tr.mu.
func (tr *Tracer) openOn(tk Track) *openSpans {
	if tr.lastOpen != nil && tr.lastTrack == tk {
		return tr.lastOpen
	}
	o := tr.open[tk]
	if o == nil {
		o = &openSpans{}
		tr.open[tk] = o
	}
	tr.lastTrack, tr.lastOpen = tk, o
	return o
}

// Enabled reports whether spans are being recorded. Instrumentation does
// not need to check it — every method is nil-safe — but hot paths that
// would otherwise format strings may want to.
func (tr *Tracer) Enabled() bool { return tr != nil && tr.enabled }

// Begin opens a span on a track at virtual time `at`, nested under the
// track's innermost open span. It returns nil when the tracer is
// disabled; Span methods tolerate nil receivers.
func (tr *Tracer) Begin(tk Track, cat, name string, at cycles.Cycles, attrs ...Attr) *Span {
	if tr == nil || !tr.enabled {
		return nil
	}
	tr.mu.Lock()
	sp := tr.newSpan(tk, cat, name, at, attrs)
	o := tr.openOn(tk)
	if n := len(o.spans); n > 0 {
		sp.parent = o.spans[n-1]
		sp.Depth = n
	}
	o.spans = append(o.spans, sp)
	sp.open = o
	tr.mu.Unlock()
	return sp
}

// Instant records a zero-duration marker event on a track at virtual time
// `at` — a state transition (a channel promotion, a mode switch) rather
// than a timed region. The event nests visually under the track's
// innermost open span but does not join the open-span stack.
func (tr *Tracer) Instant(tk Track, cat, name string, at cycles.Cycles, attrs ...Attr) {
	tr.InstantFlow(tk, cat, name, at, 0, 0, attrs...)
}

// InstantFlow records an instant that participates in cross-track flow
// links: flowIn draws an arrow into the marker, flowOut draws one out
// of it (either may be 0). Retransmissions and recovery actions use
// this so Perfetto renders the causal chain from the original forward
// through each retry to the respawn that replayed it, instead of
// disconnected dots.
func (tr *Tracer) InstantFlow(tk Track, cat, name string, at cycles.Cycles, flowIn, flowOut uint64, attrs ...Attr) {
	if tr == nil || !tr.enabled {
		return
	}
	tr.mu.Lock()
	sp := tr.newSpan(tk, cat, name, at, attrs)
	sp.End, sp.Instant, sp.ended = at, true, true
	sp.FlowIn, sp.FlowOut = flowIn, flowOut
	if o := tr.openOn(tk); len(o.spans) > 0 {
		sp.parent = o.spans[len(o.spans)-1]
		sp.Depth = len(o.spans)
	}
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
}

// EndAt closes the span at virtual time `at` and records it. Ending a
// span that is not the innermost on its track closes it anyway (the
// stack entry is removed wherever it is), so error paths cannot wedge
// the track.
func (sp *Span) EndAt(at cycles.Cycles) {
	if sp == nil || sp.ended {
		return
	}
	sp.ended = true
	if at < sp.Start {
		at = sp.Start
	}
	sp.End = at
	tr := sp.tr
	tr.mu.Lock()
	o := sp.open
	for i := len(o.spans) - 1; i >= 0; i-- {
		if o.spans[i] == sp {
			o.spans = append(o.spans[:i], o.spans[i+1:]...)
			break
		}
	}
	sp.open = nil
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
}

// SetAttr appends one annotation.
func (sp *Span) SetAttr(key string, val uint64) {
	if sp == nil {
		return
	}
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Val: val})
}

// LinkOut marks this span as the source of cross-track flow id.
func (sp *Span) LinkOut(id uint64) {
	if sp != nil {
		sp.FlowOut = id
	}
}

// LinkIn marks this span as the sink of cross-track flow id.
func (sp *Span) LinkIn(id uint64) {
	if sp != nil {
		sp.FlowIn = id
	}
}

// Duration returns the span's extent in cycles.
func (sp *Span) Duration() cycles.Cycles {
	if sp == nil {
		return 0
	}
	return sp.End - sp.Start
}

// Parent returns the span this one nested under at Begin, or nil.
func (sp *Span) Parent() *Span {
	if sp == nil {
		return nil
	}
	return sp.parent
}

// Spans returns the completed spans in canonical order: by start time,
// then track, then end time descending (an enclosing span before the
// children that share its start), then name. The order depends only on
// virtual-time content, never on goroutine scheduling, which is what
// makes exports reproducible. Depth is deliberately not a sort key: when
// two simulated threads share a track (nested HRT threads forward over
// their ancestor's channel), depth reflects how their open spans
// interleaved in host time.
func (tr *Tracer) Spans() []*Span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	out := make([]*Span, len(tr.spans))
	copy(out, tr.spans)
	tr.mu.Unlock()
	sortSpans(out)
	return out
}

func sortSpans(spans []*Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Track.Core != b.Track.Core {
			return a.Track.Core < b.Track.Core
		}
		if a.Track.Name != b.Track.Name {
			return a.Track.Name < b.Track.Name
		}
		if a.End != b.End {
			return a.End > b.End // longer (enclosing) span first
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.FlowOut != b.FlowOut {
			return a.FlowOut < b.FlowOut
		}
		return a.FlowIn < b.FlowIn
	})
}

// Tracks returns the distinct tracks of completed spans, sorted by
// (Core, Name). The exporter derives thread ids from this order.
func (tr *Tracer) Tracks() []Track {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	seen := make(map[Track]bool)
	for _, sp := range tr.spans {
		seen[sp.Track] = true
	}
	tr.mu.Unlock()
	out := make([]Track, 0, len(seen))
	for tk := range seen {
		out = append(out, tk)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Core != out[j].Core {
			return out[i].Core < out[j].Core
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Scope bundles the instruments one execution context writes to: its
// tracer, its metrics registry, and the track its spans land on. A zero
// Scope is the fully disabled default.
type Scope struct {
	Tracer  *Tracer
	Metrics *Registry
	Track   Track
}
