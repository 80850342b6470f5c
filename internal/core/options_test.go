package core

import (
	"testing"

	"multiverse/internal/hvm"
	"multiverse/internal/machine"
)

// TestExitlessImpliesRouter: Exitless alone turns the router on, and a
// sustained forwarded-call loop past the policy's RingCalls reaches the
// tier-3 rings with zero ring-path exits. (getpid would not do: the
// router serves it HRT-locally on tier 0 and never forwards it.)
func TestExitlessImpliesRouter(t *testing.T) {
	sys := buildTestSystem(t, Options{AppName: "exitless", Exitless: true})
	if !sys.Opts.Router {
		t.Fatal("Exitless did not imply Router")
	}
	g, err := sys.SpawnGroup(sys.Main.Clock, writeN(t, 4*hvm.DefaultRouterPolicy().RingCalls, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Join(sys.Main); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()
	if n := m.Counter("ring.syscalls").Value(); n == 0 {
		t.Error("ring.syscalls = 0: tier 3 never engaged")
	}
	if n := m.Counter("exits.ring").Value(); n != 0 {
		t.Errorf("exits.ring = %d, want 0", n)
	}
}

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
