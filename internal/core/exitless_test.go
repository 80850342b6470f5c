package core_test

import (
	"bytes"
	"testing"

	"multiverse/internal/bench"
	"multiverse/internal/core"
)

// TestExitlessImpliesRouter: the deprecated Exitless option turns the
// router on and does nothing else, so a routed fasta run with it set is
// the Router run exactly: the same cycles, stdout and forwarded counts.
func TestExitlessImpliesRouter(t *testing.T) {
	prog, ok := bench.ProgramByName("fasta")
	if !ok {
		t.Fatal("no fasta benchmark")
	}
	run := func(opts core.Options) *bench.RunResult {
		res, err := bench.RunBenchmark(prog, core.WorldHRT, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	routed, exitless := run(core.Options{Router: true}), run(core.Options{Exitless: true})
	if !exitless.Opts.Router {
		t.Fatal("Exitless did not imply Router")
	}
	if exitless.Cycles != routed.Cycles {
		t.Errorf("cycles = %d with Exitless, %d with Router", exitless.Cycles, routed.Cycles)
	}
	if !bytes.Equal(exitless.Output, routed.Output) {
		t.Error("stdout differs between the Exitless and Router runs")
	}
	if exitless.ForwardedSyscalls != routed.ForwardedSyscalls || exitless.ForwardedFaults != routed.ForwardedFaults {
		t.Errorf("forwarded syscalls/faults = %d/%d with Exitless, %d/%d with Router",
			exitless.ForwardedSyscalls, exitless.ForwardedFaults, routed.ForwardedSyscalls, routed.ForwardedFaults)
	}
}
