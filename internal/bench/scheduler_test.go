package bench

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"multiverse/internal/core"
)

// TestSchedulerScalingRegression holds the pinned runs to the scheduler
// suite's acceptance invariants (CollectSchedulerBaseline holds every
// fresh collection to the same check) and shows the check rejects runs
// that break them: a 4-core HPCG run no faster than the 2-core one, or a
// ramp that never stole.
func TestSchedulerScalingRegression(t *testing.T) {
	var doc Runs
	readPinned(t, "BENCH_pr4.json", &doc)
	if err := checkScaling(&doc); err != nil {
		t.Fatalf("pinned runs: %v", err)
	}
	flat := Runs{Runs: slices.Clone(doc.Runs)}
	flat.find("hpcg", coresConfig(4)).Cycles = flat.find("hpcg", coresConfig(2)).Cycles
	if checkScaling(&flat) == nil {
		t.Error("a 4-core HPCG run flattened to the 2-core cycles passed the scaling check")
	}
	idle := Runs{Runs: slices.Clone(doc.Runs)}
	idle.find("ramp", coresConfig(schedRampCores)).Counters = map[string]uint64{"sched.steal": 0}
	if checkScaling(&idle) == nil {
		t.Error("a steal-free imbalanced ramp passed the scaling check")
	}
}

// TestSchedulerDeterminism is the scheduler's determinism property: the
// same seeded legion and places workloads, run twice, must report
// identical end-to-end virtual cycles, identical pinned metrics,
// identical sched.* counters and, for HPCG, an identical residual (run
// under -race by the tier-1 sweep).
func TestSchedulerDeterminism(t *testing.T) {
	sched := func(sys *core.System) map[string]uint64 {
		out := map[string]uint64{}
		sys.Metrics().EachCounter(func(name string, v uint64) {
			if strings.HasPrefix(name, "sched.") {
				out[name] = v
			}
		})
		return out
	}
	var residuals []float64
	hpcg := func() (*core.System, error) {
		sys, res, err := runHPCG(core.WorldHRT, schedOptions(4), schedWorkers, schedHPCGN, schedHPCGIters)
		if err == nil {
			residuals = append(residuals, res.Residual)
		}
		return sys, err
	}
	places := func() (*core.System, error) { return runSchedulerPlaces(4) }
	for _, w := range []struct {
		name string
		run  func() (*core.System, error)
	}{{"hpcg", hpcg}, {"places", places}} {
		var runs [2]Run
		var counters [2]map[string]uint64
		for i := range runs {
			sys, err := w.run()
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = schedMetrics.project(w.name, coresConfig(4), sys.Metrics(), sys.Main.Clock.Now())
			counters[i] = sched(sys)
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("%s run not deterministic:\n%+v\n%+v", w.name, runs[0], runs[1])
		}
		if !reflect.DeepEqual(counters[0], counters[1]) {
			t.Errorf("%s: sched.* counters differ across runs:\n%v\n%v", w.name, counters[0], counters[1])
		}
	}
	if residuals[0] != residuals[1] {
		t.Errorf("HPCG residual differs across runs: %v vs %v", residuals[0], residuals[1])
	}
}

// TestHPCGWorkloadTitle: the manual HPCG table names the HRT cores the
// system booted on, the default core when the options name none.
func TestHPCGWorkloadTitle(t *testing.T) {
	for _, c := range []struct {
		opts core.Options
		want string
	}{
		{core.Options{}, "workers=2 hrtcores=1 scheduler=false"},
		{schedOptions(2), "workers=2 hrtcores=2 scheduler=true"},
	} {
		tab, err := HPCGWorkloadTable(c.opts, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(tab.Title, c.want) {
			t.Errorf("title %q, want it to end %q", tab.Title, c.want)
		}
	}
}
