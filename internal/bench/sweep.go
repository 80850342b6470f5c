package bench

import (
	"sync"

	"multiverse/internal/core"
	"multiverse/internal/telemetry"
)

// sweepRow is one program's share of the WorldHRT off/on sweep behind the
// router, merger and exitless suites, projected onto each suite's row.
type sweepRow struct {
	router   RouterComparison
	merger   MergerComparison
	exitless ExitlessComparison
	// mergerMetrics is the merger-on run's metrics registry.
	mergerMetrics *telemetry.Registry
}

// sweepProgram runs one program in WorldHRT four ways: every option off,
// router on, merger on, and tier-3 rings on (which turn the router on
// too). The off run is the router's and the merger's off side, and the
// router-on run is the exitless suite's dark side.
func sweepProgram(p Program) (*sweepRow, error) {
	var runs [4]*RunResult
	for i, opts := range []core.Options{{}, {Router: true}, {Merger: true}, {Exitless: true}} {
		res, err := RunBenchmark(p, core.WorldHRT, opts, false)
		if err != nil {
			return nil, err
		}
		runs[i] = res
	}
	off, routed, merged, rings := runs[0], runs[1], runs[2], runs[3]
	return &sweepRow{
		router:        routerRow(off, routed),
		merger:        mergerRow(off, merged),
		exitless:      exitlessRow(routed, rings),
		mergerMetrics: merged.Metrics,
	}, nil
}

// hrtSweep runs sweepProgram over Programs() once per process; every run
// is deterministic, so the three suites may share it.
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
