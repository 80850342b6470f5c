package bench

import "testing"

// TestMergerRegression is the deterministic acceptance check of the
// incremental merger: on a GC-heavy benchmark the delta path must charge
// fewer PML4-entry copies and fewer broadcast shootdowns than the fixed
// path, resolve write-barrier faults locally, and reproduce exactly
// across runs.
func TestMergerRegression(t *testing.T) {
	p, _ := ProgramByName("fasta")
	ra, err := sweepProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sweepProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ra.merger, rb.merger
	if a != b {
		t.Errorf("merger comparison not deterministic:\n%+v\n%+v", a, b)
	}
	if a.OnRemerges == 0 {
		t.Error("benchmark exercised no re-merges; the delta path was never taken")
	}
	if a.OnEntriesCopied >= a.OffEntriesCopied {
		t.Errorf("delta merger did not reduce PML4-entry copies: off=%d on=%d",
			a.OffEntriesCopied, a.OnEntriesCopied)
	}
	if a.OnBroadcasts >= a.OffBroadcasts {
		t.Errorf("merger did not reduce broadcast shootdowns: off=%d on=%d",
			a.OffBroadcasts, a.OnBroadcasts)
	}
	if a.Targeted == 0 {
		t.Error("no targeted shootdowns on the benchmark run")
	}
	if a.LocalFaults == 0 {
		t.Error("fault fast lane resolved nothing on a GC-heavy benchmark")
	}
	if a.OnCycles >= a.OffCycles {
		t.Errorf("merger did not reduce end-to-end cycles: off=%d on=%d", a.OffCycles, a.OnCycles)
	}
}

// TestMergerOffMatchesRouterOff cross-checks two pinned suites: merger off
// is the same fixed-path configuration the router suite runs with both
// knobs off, so BENCH_pr3.json's off cycles must equal BENCH_pr2.json's
// for every program. TestBaselines byte-checks both files against fresh
// runs, so this reads the files and runs nothing.
func TestMergerOffMatchesRouterOff(t *testing.T) {
	var router RouterBaseline
	var merger MergerBaseline
	readPinned(t, "BENCH_pr2.json", &router)
	readPinned(t, "BENCH_pr3.json", &merger)
	if len(merger.Benchmarks) != len(router.Benchmarks) || len(merger.Benchmarks) == 0 {
		t.Fatalf("merger suite has %d programs, router suite %d", len(merger.Benchmarks), len(router.Benchmarks))
	}
	for i, m := range merger.Benchmarks {
		if r := router.Benchmarks[i]; m.Program != r.Program || m.OffCycles != r.OffCycles {
			t.Errorf("merger-off %s: %d cycles, router-off %s: %d cycles (fixed path not byte-identical)",
				m.Program, m.OffCycles, r.Program, r.OffCycles)
		}
	}
}
