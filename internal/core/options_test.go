package core

import (
	"testing"

	"multiverse/internal/machine"
)

// TestHRTCoresSizeMachine: with no MachineSpec, an HRT partition of cores
// 1..n boots for every n the scheduler bench uses; the ROS keeps core 0
// and every listed core exists.
func TestHRTCoresSizeMachine(t *testing.T) {
	for n := 1; n <= 8; n++ {
		sys := buildTestSystem(t, Options{AppName: "size", HRTCores: HRTCoreRange(n)})
		if c := sys.Kernel.BootCore(); c != 0 {
			t.Errorf("n=%d: ROS boot core = %d, want 0", n, c)
		}
		for _, c := range sys.Opts.HRTCores {
			if int(c) >= sys.Machine.NumCores() {
				t.Errorf("n=%d: HRT core %d does not exist (%d cores)", n, c, sys.Machine.NumCores())
			}
		}
		if ret, err := sys.HRTInvokeFunc(func(env Env) uint64 { return 7 }); err != nil || ret != 7 {
			t.Errorf("n=%d: HRT invoke = %d, %v", n, ret, err)
		}
	}
	// The default partition fits the paper's 2x4 testbed unchanged.
	sys := buildTestSystem(t, Options{AppName: "size"})
	if got, want := sys.Machine.NumCores(), 8; got != want {
		t.Errorf("default machine has %d cores, want %d", got, want)
	}
}

// TestMachineSpecUsedAsGiven: a caller-supplied MachineSpec is never
// grown, so HRT cores past its end are a configuration error.
func TestMachineSpecUsedAsGiven(t *testing.T) {
	spec := machine.DefaultSpec()
	spec.Sockets, spec.CoresPerSocket = 1, 3
	sys := buildTestSystem(t, Options{AppName: "spec", MachineSpec: &spec, HRTCores: HRTCoreRange(2)})
	if got := sys.Machine.NumCores(); got != 3 {
		t.Errorf("machine has %d cores, want the given 3", got)
	}
	if _, err := NewSystem(nil, Options{Hybrid: true, MachineSpec: &spec, HRTCores: HRTCoreRange(4)}); err == nil {
		t.Error("HRT cores past the given machine accepted")
	}
}
