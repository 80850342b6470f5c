package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// HistogramSnapshot is the exported shape of one histogram: enough to
// recompute any bucket-edge quantile offline (mvtool slo works from
// this, not from a live registry).
type HistogramSnapshot struct {
	Edges  []uint64 `json:"edges"`
	Counts []uint64 `json:"counts"` // len(Edges)+1, last = overflow
	Sum    uint64   `json:"sum"`
	Count  uint64   `json:"count"`
}

// Quantile is Histogram.Quantile over the exported buckets.
func (h *HistogramSnapshot) Quantile(p float64) uint64 {
	if h == nil {
		return 0
	}
	return bucketQuantile(p, h.Edges, h.Counts, h.Count)
}

// MetricsSnapshot is a point-in-time copy of a Registry in a stable,
// machine-readable shape. encoding/json sorts map keys, so marshalling
// a snapshot of a deterministic run is byte-stable.
type MetricsSnapshot struct {
	Counters   map[string]uint64             `json:"counters"`
	Gauges     map[string]uint64             `json:"gauges"`
	Histograms map[string]*HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state. Nil registries snapshot
// as empty (never nil maps, so the JSON shape is constant).
func (r *Registry) Snapshot() *MetricsSnapshot {
	s := &MetricsSnapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]uint64),
		Histograms: make(map[string]*HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.EachCounter(func(name string, v uint64) { s.Counters[name] = v })
	r.EachGauge(func(name string, v uint64) { s.Gauges[name] = v })
	r.EachHistogram(func(name string, h *Histogram) {
		edges := h.Edges()
		hs := &HistogramSnapshot{
			Edges:  make([]uint64, len(edges)),
			Counts: make([]uint64, len(edges)+1),
			Sum:    uint64(h.Sum()),
			Count:  h.Count(),
		}
		for i, e := range edges {
			hs.Edges[i] = uint64(e)
		}
		for i := range hs.Counts {
			hs.Counts[i] = h.BucketCount(i)
		}
		s.Histograms[name] = hs
	})
	return s
}

// MarshalIndent renders the snapshot as indented JSON with a trailing
// newline — the `mvrun -metrics-json` file format.
func (s *MetricsSnapshot) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseMetricsSnapshot parses the `mvrun -metrics-json` format.
func ParseMetricsSnapshot(data []byte) (*MetricsSnapshot, error) {
	var s MetricsSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse metrics snapshot: %w", err)
	}
	if s.Counters == nil {
		s.Counters = make(map[string]uint64)
	}
	if s.Gauges == nil {
		s.Gauges = make(map[string]uint64)
	}
	if s.Histograms == nil {
		s.Histograms = make(map[string]*HistogramSnapshot)
	}
	return &s, nil
}

// promName rewrites a dotted metric name into the Prometheus charset
// and prefixes the exporter namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("mv_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): counters and gauges as plain
// samples, histograms as cumulative `le` bucket series with _sum and
// _count. Output is name-sorted and deterministic for a given state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var b strings.Builder

	cnames := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		cnames = append(cnames, n)
	}
	sort.Strings(cnames)
	for _, n := range cnames {
		pn := promName(n)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n])
	}

	gnames := make([]string, 0, len(s.Gauges))
	for n := range s.Gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		pn := promName(n)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[n])
	}

	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		pn := promName(n)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		var cum uint64
		for i, e := range h.Edges {
			cum += h.Counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", pn, e, cum)
		}
		cum += h.Counts[len(h.Edges)]
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
		fmt.Fprintf(&b, "%s_sum %d\n", pn, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", pn, h.Count)
	}

	_, err := io.WriteString(w, b.String())
	return err
}
