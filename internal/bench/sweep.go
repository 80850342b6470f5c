package bench

import (
	"fmt"
	"sync"

	"multiverse/internal/core"
)

// sweepConfigs are the WorldHRT sweep's configurations, in run order:
// every option off (the router's and the merger's off side, and Figure
// 13's Multiverse run), router on, and merger on.
var sweepConfigs = []struct {
	name string
	opts core.Options
}{
	{"off", core.Options{}},
	{"router", core.Options{Router: true}},
	{"merger", core.Options{Merger: true}},
}

// sweepMetrics is what the sweep pins of each run: boundary crossings
// and forwarded faults, merges and the PML4 entries they copied, the
// router's tier counters, the forwarded-syscall latency on either
// channel (their sums are the forward cycles), and the merge latency the
// merger figure prints.
var sweepMetrics = metricSet{
	counters: []string{
		"ak.forwarded_syscalls", "ak.forwarded_faults", "ak.merges", "ak.remerges",
		"paging.pml4_entries_copied", "merger.delta.entries",
		"router.local_hits", "router.cache_hits", "router.cache_misses",
		"router.cache_invalidations", "router.promotions", "router.demotions",
	},
	histograms: map[string][]string{
		"forward.syscall.latency": nil,
		"sync.syscall.latency":    nil,
		"ak.merge.latency":        noteQuantiles,
	},
}

// forwardCycles is the virtual time the run's HRT thread spent crossing
// the boundary for system calls: async event-channel plus promoted
// synchronous-channel round trips.
func (r *Run) forwardCycles() uint64 {
	return r.Histograms["forward.syscall.latency"].Sum + r.Histograms["sync.syscall.latency"].Sum
}

// sweepProgram runs one program in WorldHRT in each sweep configuration.
func sweepProgram(p Program) ([]Run, error) {
	var runs []Run
	for _, c := range sweepConfigs {
		res, err := RunBenchmark(p, core.WorldHRT, c.opts, false)
		if err != nil {
			return nil, err
		}
		runs = append(runs, sweepMetrics.project(c.name, res))
	}
	return runs, nil
}

// CollectSweepBaseline runs every program of the suite through the
// WorldHRT sweep, once per process: every run is deterministic, so the
// router, merger and Figure 13 rows share it. It enforces the suite-wide
// acceptance invariants before returning: the router reduces the total
// crossings and forward cycles, and the merger the charged PML4-entry
// copies.
var CollectSweepBaseline = sync.OnceValues(func() (*Runs, error) {
	doc := &Runs{Note: regenerateNote("router")}
	for _, p := range Programs() {
		runs, err := sweepProgram(p)
		if err != nil {
			return nil, err
		}
		doc.Runs = append(doc.Runs, runs...)
	}
	var offX, onX, offFwd, onFwd, offEntries, onEntries uint64
	for _, r := range doc.Runs {
		switch r.Config {
		case "off":
			offX += r.Counters["ak.forwarded_syscalls"]
			offFwd += r.forwardCycles()
			offEntries += r.Counters["paging.pml4_entries_copied"]
		case "router":
			onX += r.Counters["ak.forwarded_syscalls"]
			onFwd += r.forwardCycles()
		case "merger":
			onEntries += r.Counters["paging.pml4_entries_copied"]
		}
	}
	if onX >= offX {
		return nil, fmt.Errorf("bench: router did not reduce total crossings: off=%d on=%d", offX, onX)
	}
	if onFwd >= offFwd {
		return nil, fmt.Errorf("bench: router did not reduce total forwarded cycles: off=%d on=%d", offFwd, onFwd)
	}
	if onEntries >= offEntries {
		return nil, fmt.Errorf("bench: merger did not reduce charged PML4-entry copies: off=%d on=%d",
			offEntries, onEntries)
	}
	return doc, nil
})
