package bench

import (
	"testing"

	"multiverse/internal/core"
)

// TestDeterministicRuns backs the repository's reproducibility claim:
// nothing reads wall-clock time, so two independent runs of the same
// configuration must agree cycle-for-cycle and byte-for-byte.
func TestDeterministicRuns(t *testing.T) {
	p, _ := ProgramByName("fasta")
	for _, w := range []core.World{core.WorldNative, core.WorldHRT} {
		a, err := RunBenchmark(p, w, core.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunBenchmark(p, w, core.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.Cycles != b.Cycles {
			t.Errorf("%v: cycles differ across runs: %d vs %d", w, a.Cycles, b.Cycles)
		}
		if string(a.Output) != string(b.Output) {
			t.Errorf("%v: output differs across runs", w)
		}
		if a.Stats.TotalSyscalls() != b.Stats.TotalSyscalls() ||
			a.Stats.MinorFaults != b.Stats.MinorFaults {
			t.Errorf("%v: accounting differs across runs", w)
		}
	}
}

// TestHRTReboot exercises the paper's boot story: "the HRT can be booted
// or rebooted in just milliseconds"; after a reboot and a fresh merger,
// execution groups work again.
func TestHRTReboot(t *testing.T) {
	fs, err := provisionFS(nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemForWorld(core.WorldHRT, core.Options{FS: fs, AppName: "reboot"})
	if err != nil {
		t.Fatal(err)
	}

	ret, err := sys.HRTInvokeFunc(func(env core.Env) uint64 { return 11 })
	if err != nil || ret != 11 {
		t.Fatalf("pre-reboot invoke = %d, %v", ret, err)
	}

	// Reboot: halt the old kernel, boot a fresh one, re-link, re-merge.
	sys.AK.Halt()
	if err := sys.HVM.BootHRT(sys.Main.Clock); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	sys.RelinkAfterReboot()
	if err := sys.HVM.MergeAddressSpace(sys.Main.Clock, sys.Proc.CR3()); err != nil {
		t.Fatalf("re-merge: %v", err)
	}
	if sys.HVM.BootCount() != 2 {
		t.Errorf("boot count = %d", sys.HVM.BootCount())
	}

	ret, err = sys.HRTInvokeFunc(func(env core.Env) uint64 { return 22 })
	if err != nil || ret != 22 {
		t.Fatalf("post-reboot invoke = %d, %v", ret, err)
	}
	if !sys.AK.Merged() {
		t.Error("rebooted kernel not merged")
	}
}
