package core

import (
	"strings"
	"testing"

	"multiverse/internal/linuxabi"
	"multiverse/internal/ros"
	"multiverse/internal/telemetry"
)

func TestNativeEnvSurface(t *testing.T) {
	sys, err := NewSystem(nil, Options{AppName: "envsurf"})
	if err != nil {
		t.Fatal(err)
	}
	env := sys.NativeEnv()

	if env.Process() != sys.Proc {
		t.Error("Process() mismatch")
	}
	before := env.Clock().Now()
	env.Compute(1234)
	if env.Clock().Now()-before != 1234 {
		t.Error("Compute did not advance the clock")
	}
	if st := sys.Proc.Stats(); st.UserCycles != 1234 {
		t.Errorf("user time = %d", st.UserCycles)
	}

	pid, errno := env.VDSO(linuxabi.SysGetpid)
	if errno != linuxabi.OK || int(pid) != sys.Proc.Pid() {
		t.Errorf("vdso getpid = %d, %v", pid, errno)
	}

	// CheckTimer with no timer armed is false.
	if env.CheckTimer() {
		t.Error("timer fired with none armed")
	}

	// RegisterSignalCode + rt_sigaction + delivery.
	fired := false
	env.RegisterSignalCode(0x7100_0000, func(*ros.SignalContext) { fired = true })
	env.Syscall(linuxabi.Call{Num: linuxabi.SysRtSigaction, Args: [6]uint64{uint64(linuxabi.SIGTERM), 0x7100_0000}})
	sys.Proc.SendSignal(sys.Main.TID, env.Clock(), linuxabi.SIGTERM)
	if !fired {
		t.Error("registered handler did not run")
	}

	// Touch error formatting wraps the errno.
	if err := env.Touch(0xdead_0000, true); err == nil || !strings.Contains(err.Error(), "EFAULT") {
		t.Errorf("touch of unmapped address: %v", err)
	}
}

func TestNativeEnvVirtualWorldTag(t *testing.T) {
	sys, err := NewSystem(nil, Options{AppName: "tag", Virtual: true})
	if err != nil {
		t.Fatal(err)
	}
	if sys.NativeEnv().World() != WorldVirtual {
		t.Error("virtual system not tagged WorldVirtual")
	}
}

func TestHotspotProfileUnit(t *testing.T) {
	// Syscall entries sum the per-group SLO histograms by call name;
	// page faults are the hotspot counter pair.
	reg := telemetry.NewRegistry()
	hp := &HotspotProfile{reg: reg}
	reg.LatencyHistogram(telemetry.SLOPrefix + "g1.mmap").Observe(1000)
	reg.LatencyHistogram(telemetry.SLOPrefix + "g2.mmap").Observe(500)
	reg.LatencyHistogram("forward.syscall.latency").Observe(7000)
	hp.recordFault(9000)
	entries := hp.Entries()
	if len(entries) != 2 || entries[0].Name != "page-fault" {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[1].Count != 2 || entries[1].Cycles != 1500 {
		t.Errorf("mmap entry = %+v", entries[1])
	}
	count, total := hp.Total()
	if count != 3 || total != 10500 {
		t.Errorf("total = %d, %d", count, total)
	}
	rep := hp.Report()
	for _, want := range []string{"page-fault", "mmap", "85.7%", "total forwarding time"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestWrapperStats(t *testing.T) {
	sys := buildTestSystem(t, Options{AppName: "wstats"})
	if _, err := sys.RunMain(func(env Env) uint64 {
		join, err := env.PthreadCreate(func(Env) {})
		if err != nil {
			t.Error(err)
			return 1
		}
		join()
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	w, _ := sys.Overrides.Lookup("pthread_create")
	inv, lookups := w.Stats()
	if inv != 1 || lookups != 1 {
		t.Errorf("wrapper stats = %d invocations, %d lookups", inv, lookups)
	}
}
