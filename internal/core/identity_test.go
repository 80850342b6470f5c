package core

import (
	"testing"

	"multiverse/internal/faults"
	"multiverse/internal/linuxabi"
	"multiverse/internal/ros"
)

// identityProbe is what a group observes of its ROS identity: the
// per-TID kernel state deterministic arenas key (brk, anonymous-mmap
// placement, signal dispositions and handlers, the itimer).
type identityProbe struct {
	brk0, brkGrown, brkLater uint64
	brkErr                   linuxabi.Errno
	mmap1, mmap2             uint64
	touchOK                  bool
	segvs                    int
	timerFired               bool
	ticks                    int
}

// identityKillTime is the scripted partner-kill time: past it once the
// probe's idle stretch has run, before it for everything earlier.
const identityKillTime = 1 << 34

// probeIdentity runs one group under opts with Scheduler on and reports
// what it saw. Between its two halves it forwards 64 writes, idles past
// the router's demotion gap and the scripted kill time, then forwards 64
// more: a routed group promotes, demotes and re-promotes there, and a
// fault-armed group loses its partner on the first write after the idle
// stretch.
func probeIdentity(t *testing.T, opts Options) (identityProbe, *System) {
	t.Helper()
	opts.AppName = "identity"
	opts.Scheduler = true
	sys := buildTestSystem(t, opts)
	const segvHandler, tickHandler = 0x7200_0000, 0x7200_1000
	var p identityProbe
	mmap := func(env Env) uint64 {
		return env.Syscall(linuxabi.Call{Num: linuxabi.SysMmap,
			Args: [6]uint64{0, 2 * 4096, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous}}).Ret
	}
	syscall := func(env Env, num linuxabi.Sysno, args ...uint64) linuxabi.Result {
		var a [6]uint64
		copy(a[:], args)
		return env.Syscall(linuxabi.Call{Num: num, Args: a})
	}
	writes := func(env Env) {
		for i := 0; i < 64; i++ {
			if res := env.Syscall(linuxabi.Call{Num: linuxabi.SysWrite, Args: [6]uint64{1}, Data: []byte("w")}); !res.Ok() {
				t.Errorf("write %d: %v", i, res.Err)
			}
		}
	}
	_, err := sys.RunMain(func(env Env) uint64 {
		p.brk0 = syscall(env, linuxabi.SysBrk).Ret
		p.mmap1 = mmap(env)
		writes(env)

		res := syscall(env, linuxabi.SysBrk, p.brk0+8192)
		p.brkGrown, p.brkErr = res.Ret, res.Err
		p.mmap2 = mmap(env)
		env.RegisterSignalCode(segvHandler, func(ctx *ros.SignalContext) {
			p.segvs++
			ctx.Sys(linuxabi.Call{Num: linuxabi.SysMprotect,
				Args: [6]uint64{p.mmap2, 4096, linuxabi.ProtRead | linuxabi.ProtWrite}})
		})
		syscall(env, linuxabi.SysRtSigaction, uint64(linuxabi.SIGSEGV), segvHandler)
		syscall(env, linuxabi.SysMprotect, p.mmap2, 4096, linuxabi.ProtRead)

		env.Compute(identityKillTime)
		writes(env)

		p.touchOK = env.Touch(p.mmap2, true) == nil
		p.brkLater = syscall(env, linuxabi.SysBrk).Ret
		env.RegisterSignalCode(tickHandler, func(*ros.SignalContext) { p.ticks++ })
		syscall(env, linuxabi.SysRtSigaction, uint64(linuxabi.SIGVTALRM), tickHandler)
		syscall(env, linuxabi.SysSetitimer, linuxabi.ITimerVirtual, 1000) // 1 ms, one-shot
		env.Compute(2 * 2_200_000)                                        // 2 ms, twice the timer's value
		p.timerFired = env.CheckTimer()
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, sys
}

// TestOneROSIdentityPerGroup checks that a group keeps one ROS identity
// whichever context serves it: promoted onto the polled rung (and through
// a demote and re-promote), served by a respawned partner, or degraded to
// ROS-only service. Under Scheduler the ROS keys brk, anonymous-mmap
// placement, dispositions, handlers and the itimer by TID, so each case
// must see exactly what the unrouted, fault-free run sees.
func TestOneROSIdentityPerGroup(t *testing.T) {
	want, _ := probeIdentity(t, Options{})
	if want.brkErr != linuxabi.OK || want.brkGrown != want.brk0+8192 || want.brkLater != want.brkGrown {
		t.Fatalf("unrouted brk: %#x, grown %#x (%v), later %#x", want.brk0, want.brkGrown, want.brkErr, want.brkLater)
	}
	if !want.touchOK || want.segvs != 1 || !want.timerFired || want.ticks != 1 {
		t.Fatalf("unrouted signals: %+v", want)
	}

	for _, tc := range []struct {
		name    string
		opts    Options
		counter string // proves the case's context switch happened
		atLeast uint64
	}{
		{"promoted", Options{Router: true}, "router.promotions", 2},
		{"respawned", Options{Faults: &faults.Plan{Seed: 1,
			Spec: []faults.Injection{{VTime: identityKillTime, Kind: "partner-kill"}}}},
			"faults.recovery", 1},
		{"degraded", Options{Faults: &faults.Plan{Seed: 1, RecoveryBudget: 1,
			Spec: []faults.Injection{{VTime: identityKillTime, Kind: "partner-kill"}, {VTime: identityKillTime, Kind: "partner-kill"}}}},
			"faults.degraded", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, sys := probeIdentity(t, tc.opts)
			if got != want {
				t.Errorf("identity diverges from the unrouted run:\n got  %+v\n want %+v", got, want)
			}
			if n := sys.Metrics().Counter(tc.counter).Value(); n < tc.atLeast {
				t.Errorf("%s = %d, want >= %d", tc.counter, n, tc.atLeast)
			}
			if tc.opts.Router {
				if n := sys.Metrics().Counter("router.demotions").Value(); n < 1 {
					t.Errorf("router.demotions = %d, want >= 1", n)
				}
			}
		})
	}
}
