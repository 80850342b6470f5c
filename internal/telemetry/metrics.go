package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"multiverse/internal/cycles"
)

// Registry is a named collection of counters, gauges, and histograms.
// Instrument lookup takes the registry lock; the instruments themselves
// are lock-free atomics, so recording on a hot path costs one atomic
// add once the handle is cached. A nil *Registry is the no-op default:
// it hands out nil instruments whose methods return immediately.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins value.
type Gauge struct{ v atomic.Uint64 }

// Set stores the gauge value.
func (g *Gauge) Set(n uint64) {
	if g != nil {
		g.v.Store(n)
	}
}

// SetMax ratchets the gauge up to n if n exceeds the stored value — the
// peak-tracking write (density.groups.peak). Lock-free CAS loop; lower
// values leave the gauge untouched.
func (g *Gauge) SetMax(n uint64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cycle histogram. An observation lands in
// the first bucket whose upper edge is >= the value; values above the
// last edge land in the overflow bucket. Buckets are fixed at creation
// so two runs always dump identical shapes.
type Histogram struct {
	edges  []cycles.Cycles // ascending upper edges
	counts []atomic.Uint64 // len(edges)+1, last = overflow
	sum    atomic.Uint64
	n      atomic.Uint64
}

// DefaultLatencyBuckets covers the repository's latency range: from the
// ~20-cycle wrapper prologue through the ~33K-cycle merger up to
// millisecond-scale boots, in powers of two.
func DefaultLatencyBuckets() []cycles.Cycles {
	return []cycles.Cycles{
		64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768,
		65536, 131072, 262144, 524288, 1048576, 4194304, 16777216,
	}
}

// defaultEdges is the one copy of DefaultLatencyBuckets every
// default-bucket histogram shares; nothing writes it after init.
var defaultEdges = DefaultLatencyBuckets()

// Observe records one value.
func (h *Histogram) Observe(v cycles.Cycles) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.edges), func(i int) bool { return h.edges[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(uint64(v))
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the total of all observations, in cycles.
func (h *Histogram) Sum() cycles.Cycles {
	if h == nil {
		return 0
	}
	return cycles.Cycles(h.sum.Load())
}

// Mean returns the average observation, in cycles (0 when empty).
func (h *Histogram) Mean() cycles.Cycles {
	if h.Count() == 0 {
		return 0
	}
	return h.Sum() / cycles.Cycles(h.Count())
}

// Edges returns the bucket upper edges.
func (h *Histogram) Edges() []cycles.Cycles {
	if h == nil {
		return nil
	}
	return append([]cycles.Cycles(nil), h.edges...)
}

// BucketCount returns the count in bucket i (i == len(Edges()) is the
// overflow bucket).
func (h *Histogram) BucketCount(i int) uint64 {
	if h == nil || i < 0 || i >= len(h.counts) {
		return 0
	}
	return h.counts[i].Load()
}

// Quantile returns the upper edge of the bucket containing the p-th
// quantile (0 < p <= 1), by bucketQuantile's rule.
func (h *Histogram) Quantile(p float64) cycles.Cycles {
	if h == nil {
		return 0
	}
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bucketQuantile(p, h.edges, counts, h.n.Load())
}

// bucketQuantile is the one quantile rule of a live histogram and of its
// snapshot: the upper edge of the bucket in which the cumulative count
// (counts per bucket, overflow last) first reaches p of total.
// Observations in the overflow bucket report the last edge, so the value
// is still deterministic; an empty histogram reports 0. Bucket-edge
// quantiles are coarse but deterministic, which is the property the
// reports need.
func bucketQuantile[E ~uint64](p float64, edges []E, counts []uint64, total uint64) E {
	if total == 0 || len(edges) == 0 {
		return 0
	}
	target := uint64(p * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target && i < len(edges) {
			return edges[i]
		}
	}
	return edges[len(edges)-1]
}

// Counter returns (creating if needed) the named counter. Nil registries
// return nil, which is safe to use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// FindCounter returns the named counter without creating it: nil (which
// reads 0) when nothing registered the name. A read through it leaves the
// registry, and so the exposition, unchanged.
func (r *Registry) FindCounter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FindGauge is FindCounter for gauges: nil (which reads 0) when nothing
// registered the name.
func (r *Registry) FindGauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Histogram returns (creating if needed) the named histogram. The edges
// apply only on first creation; later callers share the existing
// instrument regardless of the edges they pass.
func (r *Registry) Histogram(name string, edges []cycles.Cycles) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		if len(edges) == 0 {
			edges = defaultEdges
		} else {
			edges = append([]cycles.Cycles(nil), edges...)
		}
		h = &Histogram{
			edges:  edges,
			counts: make([]atomic.Uint64, len(edges)+1),
		}
		r.hists[name] = h
	}
	return h
}

// FindHistogram is FindCounter for histograms: nil (which reads empty)
// when the name is not registered.
func (r *Registry) FindHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists[name]
}

// LatencyHistogram is Histogram with the default latency buckets.
func (r *Registry) LatencyHistogram(name string) *Histogram {
	return r.Histogram(name, nil)
}

// Handles caches instrument handles by key, resolving each key once. It
// stands in for a registry lookup per event, which takes the
// registry-wide lock and usually builds the instrument's name. Resolving
// on first use keeps the registry's contents what per-event lookups would
// have made them. The zero value is ready to use.
//
// It is sized for the small key sets its users hold (a group's syscall
// kinds, tier 0's call numbers, the router's instrument names): the
// handles are a copy-on-append slice, so after a key's first resolution
// its lookup is one atomic load and a short scan, with no lock and no
// allocation, and a new key appends in place while the backing array has
// room. Readers see only the prefix their loaded header covers, so an
// append never races them.
type Handles[K comparable, T any] struct {
	mu sync.Mutex
	s  atomic.Pointer[[]handle[K, T]]
}

type handle[K comparable, T any] struct {
	key K
	val T
}

// Get returns the handle for key, calling resolve on the key's first
// use.
func (h *Handles[K, T]) Get(key K, resolve func() T) T {
	if v, ok := h.find(key); ok {
		return v
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if v, ok := h.find(key); ok {
		return v
	}
	var next []handle[K, T]
	if s := h.s.Load(); s != nil {
		next = *s
	}
	v := resolve()
	next = append(next, handle[K, T]{key, v})
	h.s.Store(&next)
	return v
}

func (h *Handles[K, T]) find(key K) (T, bool) {
	if s := h.s.Load(); s != nil {
		for _, e := range *s {
			if e.key == key {
				return e.val, true
			}
		}
	}
	var zero T
	return zero, false
}

// EachCounter visits the counters in name order.
func (r *Registry) EachCounter(fn func(name string, v uint64)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counts))
	for n := range r.counts {
		names = append(names, n)
	}
	handles := make(map[string]*Counter, len(names))
	for _, n := range names {
		handles[n] = r.counts[n]
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		fn(n, handles[n].Value())
	}
}

// EachHistogram visits the histograms in name order.
func (r *Registry) EachHistogram(fn func(name string, h *Histogram)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	handles := make(map[string]*Histogram, len(names))
	for _, n := range names {
		handles[n] = r.hists[n]
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		fn(n, handles[n])
	}
}

// Dump renders the registry as sorted plain text, one instrument per
// line — the `mvrun --metrics` output.
func (r *Registry) Dump() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	r.EachCounter(func(name string, v uint64) {
		fmt.Fprintf(&b, "counter   %-40s %12d\n", name, v)
	})
	r.mu.Lock()
	gnames := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		gnames = append(gnames, n)
	}
	ghandles := make(map[string]*Gauge, len(gnames))
	for _, n := range gnames {
		ghandles[n] = r.gauges[n]
	}
	r.mu.Unlock()
	sort.Strings(gnames)
	for _, n := range gnames {
		fmt.Fprintf(&b, "gauge     %-40s %12d\n", n, ghandles[n].Value())
	}
	r.EachHistogram(func(name string, h *Histogram) {
		fmt.Fprintf(&b, "histogram %-40s n=%d sum=%d mean=%d p50=%d p90=%d p99=%d\n",
			name, h.Count(), uint64(h.Sum()), uint64(h.Mean()),
			uint64(h.Quantile(0.50)), uint64(h.Quantile(0.90)), uint64(h.Quantile(0.99)))
	})
	return b.String()
}
