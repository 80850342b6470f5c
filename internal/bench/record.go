package bench

import "multiverse/internal/telemetry"

// Run is one pinned benchmark run: the program, the suite's name for its
// configuration, the main thread's end-to-end cycles, and the registry
// counters and latency-histogram summaries the suite lists, keyed by
// their registry names.
type Run struct {
	Program string `json:"program"`
	Config  string `json:"config"`
	Cycles  uint64 `json:"cycles"`

	Counters   map[string]uint64 `json:"counters,omitempty"`
	Histograms map[string]Hist   `json:"histograms,omitempty"`

	// RecorderEvents is the flight recorder's lifetime event count (the
	// ring may have wrapped; this counts everything ever recorded), set
	// by the suites that read it.
	RecorderEvents uint64 `json:"recorder_events,omitempty"`

	// output is the program's stdout, which the collections compare
	// across runs and do not pin.
	output []byte
}

// Hist summarizes one latency histogram of a pinned run: its population,
// its sum in cycles, and the quantiles the suite lists (p50, p90, p99,
// p999).
type Hist struct {
	Count     uint64            `json:"count"`
	Sum       uint64            `json:"sum"`
	Quantiles map[string]uint64 `json:"quantiles,omitempty"`
}

// Runs is the document of a pinned run suite: the note that says how to
// regenerate it, and each of the suite's runs once.
type Runs struct {
	Note string `json:"note"`
	Runs []Run  `json:"runs"`
}

// find returns the run of program in config, or nil.
func (d *Runs) find(program, config string) *Run {
	for i := range d.Runs {
		if r := &d.Runs[i]; r.Program == program && r.Config == config {
			return r
		}
	}
	return nil
}

// quantiles are the keys a suite may list for a histogram.
var quantiles = map[string]float64{"p50": 0.50, "p90": 0.90, "p99": 0.99, "p999": 0.999}

// metricSet is what a suite pins of each run's registry: counters by
// name, and histograms by name with the quantile keys some figure or
// invariant reads.
type metricSet struct {
	counters   []string
	histograms map[string][]string
}

// project reads a finished run into its record under config. Every
// listed name appears, at 0 when the run never registered it; reads go
// through FindCounter/FindHistogram, so projecting registers nothing.
func (ms metricSet) project(config string, res *RunResult) Run {
	r := Run{Program: res.Program, Config: config, Cycles: uint64(res.Cycles), output: res.Output}
	m := res.Metrics
	if len(ms.counters) > 0 {
		r.Counters = make(map[string]uint64, len(ms.counters))
		for _, name := range ms.counters {
			r.Counters[name] = m.FindCounter(name).Value()
		}
	}
	if len(ms.histograms) > 0 {
		r.Histograms = make(map[string]Hist, len(ms.histograms))
		for name, qs := range ms.histograms {
			r.Histograms[name] = summarize(m.FindHistogram(name), qs)
		}
	}
	return r
}

// summarize reads one histogram's count, sum and the listed quantiles.
func summarize(h *telemetry.Histogram, qs []string) Hist {
	s := Hist{Count: h.Count(), Sum: uint64(h.Sum())}
	if len(qs) > 0 {
		s.Quantiles = make(map[string]uint64, len(qs))
		for _, q := range qs {
			s.Quantiles[q] = uint64(h.Quantile(quantiles[q]))
		}
	}
	return s
}
