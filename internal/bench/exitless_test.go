package bench

import (
	"bytes"
	"reflect"
	"testing"

	"multiverse/internal/core"
	"multiverse/internal/faults"
	"multiverse/internal/hvm"
	"multiverse/internal/telemetry"
)

// TestExitlessPartnerKillRecovery is the PR's fault acceptance scenario:
// with the tier-3 rings armed and the partner-kill injector rolling, a
// kill must tear the rings down mid-run, the router must fall back to
// the hypercall-mode transports (the teardown hypercall is the recovery
// step), and — after the configured clean streak — re-promote onto
// fresh rings. The faulted run's output stays byte-identical to clean.
func TestExitlessPartnerKillRecovery(t *testing.T) {
	prog, ok := ProgramByName("fasta")
	if !ok {
		t.Fatal("fasta program missing")
	}
	// A tighter recovery policy than the default keeps the scenario
	// inside fasta's ~200 forwards: the hold clears after 16 clean
	// tier-2 calls and re-promotion needs a 32-call burst.
	pol := hvm.RouterPolicy{RingCalls: 32, RingWindow: 13_200_000, CleanStreak: 16}
	opts := core.Options{Exitless: true, RouterPolicy: pol}
	clean, err := RunBenchmark(prog, core.WorldHRT, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if clean.RingCalls == 0 {
		t.Fatal("clean run never promoted onto the rings — the kill scenario would be vacuous")
	}

	opts.Faults = &faults.Plan{Seed: 7, KillRate: 0.05, RecoveryBudget: 64}
	faulted, err := RunBenchmark(prog, core.WorldHRT, opts, false)
	if err != nil {
		t.Fatal(err)
	}

	if kills := faulted.Metrics.Counter("ring.kills").Value(); kills == 0 {
		t.Fatal("no partner kill landed on the rings — raise KillRate")
	}
	if faulted.RingFaultDrops == 0 {
		t.Error("rings died but the router never recorded a fault demotion")
	}
	if faulted.RingRepromotions == 0 {
		t.Error("router never re-promoted onto fresh rings after hypercall-mode recovery")
	}
	// The fallback recovery is hypercall-mode by construction: teardown
	// is a hypercall, and the interim traffic crosses on tiers the VMM
	// mediates.
	if faulted.Metrics.Counter("exits.hypercall:ring-teardown").Value() == 0 {
		t.Error("ring teardown never charged its hypercall — recovery did not go through the VMM")
	}
	if !bytes.Equal(faulted.Output, clean.Output) {
		t.Error("partner-killed run diverged from clean output")
	}
}

// exitlessTierTransitions filters a run's flight-recorder events down to
// the router tier-transition codes, in order.
func exitlessTierTransitions(res *RunResult) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range res.Recorder.Events() {
		switch e.Code {
		case telemetry.RecPromote, telemetry.RecDemote, telemetry.RecDemoteLossy,
			telemetry.RecRingPromote, telemetry.RecRingDemote,
			telemetry.RecRingDemoteLossy, telemetry.RecRingRepromote,
			telemetry.RecRingKill:
			out = append(out, e)
		}
	}
	return out
}

// TestExitlessTierTransitionsReplayable pins determinism at the policy
// layer: two runs of the same seeded faulty configuration must produce
// the identical sequence of tier transitions (promotions, demotions,
// ring kills, re-promotions) at identical virtual times.
func TestExitlessTierTransitionsReplayable(t *testing.T) {
	prog, ok := ProgramByName("fasta")
	if !ok {
		t.Fatal("fasta program missing")
	}
	for _, seed := range []uint64{1, 7, 42} {
		opts := core.Options{
			Exitless:     true,
			RouterPolicy: hvm.RouterPolicy{RingCalls: 32, RingWindow: 13_200_000, CleanStreak: 16},
			Faults:       &faults.Plan{Seed: seed, KillRate: 0.05, RecoveryBudget: 64},
		}
		a, err := RunBenchmark(prog, core.WorldHRT, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunBenchmark(prog, core.WorldHRT, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		ta, tb := exitlessTierTransitions(a), exitlessTierTransitions(b)
		if len(ta) == 0 {
			t.Errorf("seed %d: no tier transitions recorded", seed)
		}
		if !reflect.DeepEqual(ta, tb) {
			t.Errorf("seed %d: tier-transition sequence not replayable:\nrun A: %v\nrun B: %v",
				seed, ta, tb)
		}
	}
}
