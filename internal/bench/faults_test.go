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
// run — injection perturbs timing, never results. The routed input
// promotes mid-run, so drops and corruptions land on both rungs: the
// event channel before promotion and the polled channel after it.
func TestFaultedOutputProperty(t *testing.T) {
	prog, ok := ProgramByName("n-body")
	if !ok {
		t.Fatal("n-body program missing")
	}
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"plain", core.Options{}},
		{"router", core.Options{Router: true}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			clean, err := RunBenchmark(prog, core.WorldHRT, cfg.opts, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{7, 21, 99, 12345} {
				opts := cfg.opts
				opts.Faults = &faults.Plan{Seed: seed, Rate: 0.05, KillRate: 0.002, RecoveryBudget: 128}
				res, err := RunBenchmark(prog, core.WorldHRT, opts, false)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !bytes.Equal(res.Output, clean.Output) {
					t.Errorf("seed %d: faulted output diverged from clean", seed)
				}
				m := res.Metrics
				if m.Counter("faults.degraded").Value() != 0 {
					t.Errorf("seed %d: group degraded despite ample budget", seed)
				}
				if m.Counter("faults.retransmit").Value() == 0 || m.Counter("faults.corrupt.detected").Value() == 0 {
					t.Errorf("seed %d: no drop or corruption was recovered", seed)
				}
				if opts.Router && (m.Counter("router.forward.async").Value() == 0 || m.Counter("router.forward.sync").Value() == 0) {
					t.Errorf("seed %d: the routed run did not forward over both rungs", seed)
				}
			}
		})
	}
}

// TestFaultPlaneZeroRateEquivalence pins the nil injector as the fault
// plane's zero: every channel runs one request loop whether or not the
// plane is armed, so an armed plan whose rates are all zero must leave
// each CLBG program's stdout, virtual cycles and forward counts exactly
// as an unarmed run leaves them, on every transport.
func TestFaultPlaneZeroRateEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"plain", core.Options{}},
		{"router", core.Options{Router: true}},
		{"merger+scheduler+router", core.Options{Merger: true, Scheduler: true, Router: true}},
	} {
		for i, prog := range Programs() {
			cfg, prog, seed := cfg, prog, uint64(31+i)
			t.Run(cfg.name+"/"+prog.Name, func(t *testing.T) {
				t.Parallel()
				off, err := RunBenchmark(prog, core.WorldHRT, cfg.opts, false)
				if err != nil {
					t.Fatal(err)
				}
				armed := cfg.opts
				armed.Faults = &faults.Plan{Seed: seed}
				on, err := RunBenchmark(prog, core.WorldHRT, armed, false)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(on.Output, off.Output) {
					t.Error("stdout differs with the zero-rate plane armed")
				}
				for _, c := range []struct {
					what    string
					on, off uint64
				}{
					{"cycles", uint64(on.Cycles), uint64(off.Cycles)},
					{"forwarded syscalls", on.ForwardedSyscalls, off.ForwardedSyscalls},
					{"forwarded faults", on.ForwardedFaults, off.ForwardedFaults},
					{"forward cycles", uint64(on.ForwardedSyscallCycles), uint64(off.ForwardedSyscallCycles)},
				} {
					if c.on != c.off {
						t.Errorf("%s = %d armed, %d unarmed", c.what, c.on, c.off)
					}
				}
			})
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
	opts := func() core.Options {
		return core.Options{Faults: &faults.Plan{
			Seed: 17, Rate: 0.05, KillRate: 0.005, RecoveryBudget: 128,
		}}
	}
	a, err := RunBenchmark(prog, core.WorldHRT, opts(), false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBenchmark(prog, core.WorldHRT, opts(), false)
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
