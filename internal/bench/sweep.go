package bench

import (
	"sync"

	"multiverse/internal/core"
	"multiverse/internal/telemetry"
)

// sweepRow is one program's share of the WorldHRT off/on sweep behind the
// router and merger suites and Figure 13, projected onto each one's row.
type sweepRow struct {
	router RouterComparison
	merger MergerComparison
	// mergerMetrics is the merger-on run's metrics registry.
	mergerMetrics *telemetry.Registry
	// offFaults is the off run's forwarded page faults, Figure 13's
	// Multiverse column with the router row's off cycles and crossings.
	offFaults uint64
}

// sweepProgram runs one program in WorldHRT three ways: every option off,
// router on, and merger on. The off run is the router's and the merger's
// off side, and Figure 13's Multiverse run.
func sweepProgram(p Program) (*sweepRow, error) {
	var runs [3]*RunResult
	for i, opts := range []core.Options{{}, {Router: true}, {Merger: true}} {
		res, err := RunBenchmark(p, core.WorldHRT, opts, false)
		if err != nil {
			return nil, err
		}
		runs[i] = res
	}
	off, routed, merged := runs[0], runs[1], runs[2]
	return &sweepRow{
		router:        routerRow(off, routed),
		merger:        mergerRow(off, merged),
		mergerMetrics: merged.Metrics,
		offFaults:     off.ForwardedFaults,
	}, nil
}

// hrtSweep runs sweepProgram over Programs() once per process; every run
// is deterministic, so the suites that read it may share it.
var hrtSweep = sync.OnceValues(func() ([]*sweepRow, error) {
	var rows []*sweepRow
	for _, p := range Programs() {
		r, err := sweepProgram(p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
})
