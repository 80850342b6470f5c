package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"multiverse/internal/faults"
	"multiverse/internal/hvm"
	"multiverse/internal/linuxabi"
)

// writeN issues n forwarded write() calls to stdout and returns code.
func writeN(t *testing.T, n int, code uint64) func(Env) uint64 {
	return func(env Env) uint64 {
		for i := 0; i < n; i++ {
			res := env.Syscall(linuxabi.Call{
				Num:  linuxabi.SysWrite,
				Args: [6]uint64{1},
				Data: []byte("x"),
			})
			if !res.Ok() {
				t.Errorf("write %d: %v", i, res.Err)
			}
		}
		return code
	}
}

// TestJoinWedgeDeadline is the satellite-1 audit: a group whose HRT
// thread never exits must surface ErrGroupWedged within the wedge
// deadline instead of hanging WaitExit/Join forever.
func TestJoinWedgeDeadline(t *testing.T) {
	sys := buildTestSystem(t, Options{AppName: "wedge", WedgeTimeout: 200 * time.Millisecond})
	block := make(chan struct{})
	g, err := sys.SpawnGroup(sys.Main.Clock, func(env Env) uint64 {
		<-block
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, jerr := g.Join(sys.Main); !errors.Is(jerr, ErrGroupWedged) {
		t.Fatalf("Join on wedged group = %v, want ErrGroupWedged", jerr)
	}
	// Unblocking the thread lets the group finish; a fresh wait succeeds.
	close(block)
	code, werr := g.WaitExit(sys.Main.Clock)
	if werr != nil || code != 0 {
		t.Fatalf("WaitExit after unblock = (%d, %v)", code, werr)
	}
}

// TestPartnerDeathRecovery scripts one partner-kill: the watchdog must
// respawn the partner, replay the merge, redeliver the in-flight
// envelope, and the program must complete with its output intact.
func TestPartnerDeathRecovery(t *testing.T) {
	sys := buildTestSystem(t, Options{
		AppName: "pkill",
		Faults:  &faults.Plan{Seed: 1, Spec: []faults.Injection{{Kind: "partner-kill"}}},
	})
	code, err := sys.RunMain(writeN(t, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	if code != 7 {
		t.Errorf("code = %d, want 7", code)
	}
	if got := sys.Proc.Stdout(); !bytes.Equal(got, []byte("xxxx")) {
		t.Errorf("stdout = %q, want %q", got, "xxxx")
	}
	m := sys.Metrics()
	if got := m.Counter("faults.injected.partner-kill").Value(); got != 1 {
		t.Errorf("partner-kill injections = %d, want 1", got)
	}
	if got := m.Counter("faults.recovery").Value(); got != 1 {
		t.Errorf("faults.recovery = %d, want 1", got)
	}
	if m.Counter("faults.degraded").Value() != 0 {
		t.Error("scripted single kill must not degrade the group")
	}
	if m.LatencyHistogram("faults.recovery.latency").Count() != 1 {
		t.Error("recovery latency not observed")
	}
}

// TestRecoveryBudgetDegrade exhausts the respawn budget (every serviced
// envelope kills the partner) and checks the graceful ROS-only fallback:
// the run still completes correctly, with faults.degraded recorded.
func TestRecoveryBudgetDegrade(t *testing.T) {
	sys := buildTestSystem(t, Options{
		AppName: "degrade",
		Faults:  &faults.Plan{Seed: 3, KillRate: 1, RecoveryBudget: 1},
	})
	code, err := sys.RunMain(writeN(t, 6, 0))
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("code = %d", code)
	}
	if got := sys.Proc.Stdout(); !bytes.Equal(got, []byte("xxxxxx")) {
		t.Errorf("stdout = %q, want %q", got, "xxxxxx")
	}
	m := sys.Metrics()
	if got := m.Counter("faults.degraded").Value(); got != 1 {
		t.Errorf("faults.degraded = %d, want 1", got)
	}
	if got := m.Counter("faults.recovery").Value(); got != 1 {
		t.Errorf("faults.recovery = %d, want 1 (budget)", got)
	}
	if m.Counter("faults.degraded.served").Value() == 0 {
		t.Error("no syscalls served through the degraded fallback")
	}
}

// TestSeqnoDedupBrkMutation is the seqno-dedup regression: with every
// notification duplicated, a brk must still be applied exactly once. Each
// moving brk restamps the break once, so seen from the HRT side the brk
// stamp moves across every call and never between calls, and the ROS
// services as many brk calls as in a clean run — a double-applied brk
// would restamp the break and enter the kernel a second time.
func TestSeqnoDedupBrkMutation(t *testing.T) {
	brkCalls := func(t *testing.T, sys *System) (code, served uint64) {
		t.Helper()
		code, err := sys.RunMain(func(env Env) uint64 {
			cur := env.Syscall(linuxabi.Call{Num: linuxabi.SysBrk}).Ret
			stamp := sys.Proc.BrkStamp()
			for i := 0; i < 3; i++ {
				cur += 4096
				if s := sys.Proc.BrkStamp(); s != stamp {
					t.Errorf("brk %d: the break was restamped between calls", i)
				}
				if res := env.Syscall(linuxabi.Call{Num: linuxabi.SysBrk, Args: [6]uint64{cur}}); !res.Ok() {
					t.Errorf("brk: %v", res.Err)
				}
				next := sys.Proc.BrkStamp()
				if next == stamp {
					t.Errorf("brk %d did not restamp the break", i)
				}
				stamp = next
			}
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		return code, sys.Proc.Stats().Syscalls[linuxabi.SysBrk]
	}

	clean := buildTestSystem(t, Options{AppName: "brk"})
	cleanCode, cleanServed := brkCalls(t, clean)

	dup := buildTestSystem(t, Options{
		AppName: "brk",
		Faults:  &faults.Plan{Seed: 5, Rates: map[faults.Kind]float64{faults.DupNotify: 1}},
	})
	dupCode, dupServed := brkCalls(t, dup)

	if cleanCode != dupCode {
		t.Errorf("codes diverge: clean %d, dup %d", cleanCode, dupCode)
	}
	if cleanServed != dupServed {
		t.Errorf("brk calls served: clean %d, dup %d — a duplicate was double-applied", cleanServed, dupServed)
	}
	if dup.Metrics().Counter("faults.dedup").Value() == 0 {
		t.Error("no duplicates coalesced — DupNotify never fired?")
	}
}

// TestRouterLossDemotion scripts three consecutive notification losses
// through the router's async path: the fault policy must demote the
// channel to sync mode, then re-promote it after a clean window.
func TestRouterLossDemotion(t *testing.T) {
	sys := buildTestSystem(t, Options{
		AppName:      "lossy",
		Router:       true,
		RouterPolicy: hvm.RouterPolicy{LossStreak: 3, CleanStreak: 4},
		Faults: &faults.Plan{
			Seed:        11,
			MaxAttempts: 2, // one drop per forward, then forced clean
			Spec: []faults.Injection{
				{Kind: "drop-notify"}, {Kind: "drop-notify"}, {Kind: "drop-notify"},
			},
		},
	})
	code, err := sys.RunMain(writeN(t, 12, 0))
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("code = %d", code)
	}
	if got := sys.Proc.Stdout(); len(got) != 12 {
		t.Errorf("stdout = %q, want 12 bytes", got)
	}
	m := sys.Metrics()
	if got := m.Counter("faults.retransmit").Value(); got != 3 {
		t.Errorf("faults.retransmit = %d, want 3", got)
	}
	if got := m.Counter("router.fault_demotions").Value(); got != 1 {
		t.Errorf("router.fault_demotions = %d, want 1", got)
	}
	if got := m.Counter("router.fault_repromotions").Value(); got != 1 {
		t.Errorf("router.fault_repromotions = %d, want 1", got)
	}
}

// TestHRTPanicContained injects a panic on every HRT syscall: the
// AeroKernel must contain each one on the IST stack and the program's
// output must be unaffected.
func TestHRTPanicContained(t *testing.T) {
	sys := buildTestSystem(t, Options{
		AppName: "panic",
		Faults:  &faults.Plan{Seed: 9, PanicRate: 1},
	})
	code, err := sys.RunMain(writeN(t, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("code = %d", code)
	}
	if got := sys.Proc.Stdout(); !bytes.Equal(got, []byte("xxx")) {
		t.Errorf("stdout = %q", got)
	}
	if sys.Metrics().Counter("ak.panic.contained").Value() == 0 {
		t.Error("no contained panics recorded")
	}
}
