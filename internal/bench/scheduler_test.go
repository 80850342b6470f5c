package bench

import (
	"reflect"
	"testing"
)

// TestSchedulerScalingRegression holds the pinned scaling curve to the
// scheduler suite's acceptance invariants (CollectSchedulerBaseline holds
// every fresh curve to the same check) and shows the check rejects a
// curve that breaks them: 4 cores no faster than 2, or a ramp that never
// stole.
func TestSchedulerScalingRegression(t *testing.T) {
	var b SchedulerBaseline
	readPinned(t, "BENCH_pr4.json", &b)
	if err := b.checkScaling(); err != nil {
		t.Fatalf("pinned curve: %v", err)
	}
	flat := b
	flat.Points = append([]SchedulerPoint(nil), b.Points...)
	flat.Points[2].HPCGCycles = flat.Points[1].HPCGCycles
	if flat.checkScaling() == nil {
		t.Error("non-monotone HPCG curve passed the scaling check")
	}
	idle := b
	idle.ImbalancedSteals = 0
	if idle.checkScaling() == nil {
		t.Error("steal-free imbalanced ramp passed the scaling check")
	}
}

// TestSchedulerDeterminism is the scheduler's determinism property: the
// same seeded legion and places workloads, run twice, must report identical
// end-to-end virtual cycles and identical sched.* counter values (satellite
// of ISSUE 4; run under -race by the tier-1 sweep).
func TestSchedulerDeterminism(t *testing.T) {
	a, err := runSchedulerHPCG(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSchedulerHPCG(4)
	if err != nil {
		t.Fatal(err)
	}
	if a.End != b.End {
		t.Errorf("HPCG end-to-end cycles differ across runs: %d vs %d", a.End, b.End)
	}
	if a.Result.Cycles != b.Result.Cycles {
		t.Errorf("HPCG solve cycles differ across runs: %d vs %d", a.Result.Cycles, b.Result.Cycles)
	}
	if a.Result.Residual != b.Result.Residual {
		t.Errorf("HPCG residual differs across runs: %v vs %v", a.Result.Residual, b.Result.Residual)
	}
	if a.Steals != b.Steals || a.QueueDelay != b.QueueDelay {
		t.Errorf("scheduler activity differs across runs: steals %d/%d queue delay %d/%d",
			a.Steals, b.Steals, a.QueueDelay, b.QueueDelay)
	}
	if !reflect.DeepEqual(a.Sched, b.Sched) {
		t.Errorf("sched.* counters differ across runs:\n%v\n%v", a.Sched, b.Sched)
	}

	pc1, sp1, err := runSchedulerPlaces(4, schedPlaceCount)
	if err != nil {
		t.Fatal(err)
	}
	pc2, sp2, err := runSchedulerPlaces(4, schedPlaceCount)
	if err != nil {
		t.Fatal(err)
	}
	if pc1 != pc2 || sp1 != sp2 {
		t.Errorf("places run not deterministic: cycles %d/%d spawned %d/%d", pc1, pc2, sp1, sp2)
	}
}
