package bench

import (
	"bytes"
	"testing"

	"multiverse/internal/core"
	"multiverse/internal/faults"
)

// TestFaultedOutputProperty is the recovery-correctness property over
// arbitrary seeds: a faulted run whose recovery budget covers every
// injected death must produce byte-identical program output to the clean
// run — injection perturbs timing, never results.
func TestFaultedOutputProperty(t *testing.T) {
	prog, ok := ProgramByName("n-body")
	if !ok {
		t.Fatal("n-body program missing")
	}
	clean, err := RunBenchmarkCfg(prog, core.WorldHRT, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{7, 21, 99, 12345} {
		res, err := RunBenchmarkCfg(prog, core.WorldHRT, RunConfig{
			Faults: &faults.Plan{Seed: seed, Rate: 0.05, KillRate: 0.002, RecoveryBudget: 128},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(res.Output, clean.Output) {
			t.Errorf("seed %d: faulted output diverged from clean", seed)
		}
		if res.Metrics.Counter("faults.degraded").Value() != 0 {
			t.Errorf("seed %d: group degraded despite ample budget", seed)
		}
	}
}

// TestFaultedRunReplays pins fixed-seed replay: the same seed must
// reproduce the identical trace of injections, retransmissions, and
// recoveries — and the identical virtual cycle total — across runs.
func TestFaultedRunReplays(t *testing.T) {
	prog, ok := ProgramByName("n-body")
	if !ok {
		t.Fatal("n-body program missing")
	}
	cfg := func() RunConfig {
		return RunConfig{Faults: &faults.Plan{
			Seed: 17, Rate: 0.05, KillRate: 0.005, RecoveryBudget: 128,
		}}
	}
	a, err := RunBenchmarkCfg(prog, core.WorldHRT, cfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBenchmarkCfg(prog, core.WorldHRT, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("cycles diverge across identical faulted runs: %d vs %d", a.Cycles, b.Cycles)
	}
	if !bytes.Equal(a.Output, b.Output) {
		t.Error("output diverges across identical faulted runs")
	}
	for _, c := range []string{
		"faults.injected.drop-notify", "faults.injected.dup-notify",
		"faults.injected.corrupt-frame", "faults.injected.partner-kill",
		"faults.retransmit", "faults.dedup", "faults.recovery", "faults.degraded",
	} {
		if av, bv := a.Metrics.Counter(c).Value(), b.Metrics.Counter(c).Value(); av != bv {
			t.Errorf("%s diverges across identical faulted runs: %d vs %d", c, av, bv)
		}
	}
}
