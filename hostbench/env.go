package main

import (
	"multiverse/internal/aerokernel"
	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/ros"
	"multiverse/internal/telemetry"
)

// tracedEnv times every core.Env call on a lane. The guest discovers
// optional capabilities by interface assertion (scheme takes user-mode
// fallbacks when AKCall or the fault lane is missing; legion keeps its
// pthread pool without SchedulerHost), so a decorator that hid one would
// trace a different program. wrapEnv therefore returns a decorator with
// exactly the inner Env's capability set.
type tracedEnv struct {
	inner core.Env
	lane  *lane
}

// hrtSurface is every optional capability an HRT Env offers.
type hrtSurface interface {
	core.Env
	core.HRTExtras
	core.SchedulerHost
	TelemetryScope() telemetry.Scope
	RegisterAKMemFaultHandler(h func(addr uint64, write bool) bool)
	RegisterUserFaultHandler(h func(addr uint64, write bool) bool) bool
	UserProtect(addr, length uint64, writable bool) bool
	HRTThreadForBench() *aerokernel.Thread
}

// tracedHRTEnv is tracedEnv plus the HRT surface.
type tracedHRTEnv struct {
	tracedEnv
	hrt hrtSurface
}

// wrapEnv decorates inner with span timing on l.
func wrapEnv(inner core.Env, l *lane) core.Env {
	if h, ok := inner.(hrtSurface); ok {
		return &tracedHRTEnv{tracedEnv: tracedEnv{inner: inner, lane: l}, hrt: h}
	}
	return &tracedEnv{inner: inner, lane: l}
}

func (e *tracedEnv) World() core.World     { return e.inner.World() }
func (e *tracedEnv) Clock() *cycles.Clock  { return e.inner.Clock() }
func (e *tracedEnv) Process() *ros.Process { return e.inner.Process() }

func (e *tracedEnv) TelemetryScope() telemetry.Scope {
	if ts, ok := e.inner.(interface{ TelemetryScope() telemetry.Scope }); ok {
		return ts.TelemetryScope()
	}
	return telemetry.Scope{}
}

func (e *tracedEnv) Compute(c cycles.Cycles) {
	e.lane.begin(spEnvCompute)
	e.inner.Compute(c)
	e.lane.end()
}

func (e *tracedEnv) Syscall(call linuxabi.Call) linuxabi.Result {
	e.lane.begin(spEnvSyscall)
	res := e.inner.Syscall(call)
	e.lane.end()
	return res
}

func (e *tracedEnv) VDSO(num linuxabi.Sysno) (uint64, linuxabi.Errno) {
	e.lane.begin(spEnvVDSO)
	v, errno := e.inner.VDSO(num)
	e.lane.end()
	return v, errno
}

func (e *tracedEnv) Touch(addr uint64, write bool) error {
	e.lane.begin(spEnvTouch)
	err := e.inner.Touch(addr, write)
	e.lane.end()
	return err
}

func (e *tracedEnv) CheckTimer() bool {
	e.lane.begin(spEnvTimer)
	fired := e.inner.CheckTimer()
	e.lane.end()
	return fired
}

func (e *tracedEnv) RegisterSignalCode(addr uint64, fn func(*ros.SignalContext)) {
	e.lane.begin(spEnvSignal)
	e.inner.RegisterSignalCode(addr, fn)
	e.lane.end()
}

// PthreadCreate traces the child thread on a lane of its own: it runs
// concurrently with its creator.
func (e *tracedEnv) PthreadCreate(fn func(core.Env)) (core.PthreadJoin, error) {
	e.lane.begin(spEnvPthread)
	defer e.lane.end()
	rec, op, hybrid := e.lane.rec, e.lane.op, e.lane.hybrid
	return e.inner.PthreadCreate(func(child core.Env) {
		l := rec.lane(op, hybrid)
		l.begin(spThread)
		fn(wrapEnv(child, l))
		l.end()
		l.flush()
	})
}

func (e *tracedHRTEnv) AKCall(symbol string, args ...uint64) (uint64, error) {
	e.lane.begin(spEnvAKCall)
	v, err := e.hrt.AKCall(symbol, args...)
	e.lane.end()
	return v, err
}

func (e *tracedHRTEnv) OverrideInvoke(legacy string, args ...uint64) (uint64, error) {
	e.lane.begin(spEnvOverride)
	v, err := e.hrt.OverrideInvoke(legacy, args...)
	e.lane.end()
	return v, err
}

func (e *tracedHRTEnv) RegisterAKMemFaultHandler(h func(addr uint64, write bool) bool) {
	e.hrt.RegisterAKMemFaultHandler(h)
}

func (e *tracedHRTEnv) RegisterUserFaultHandler(h func(addr uint64, write bool) bool) bool {
	return e.hrt.RegisterUserFaultHandler(h)
}

func (e *tracedHRTEnv) UserProtect(addr, length uint64, writable bool) bool {
	e.lane.begin(spEnvProtect)
	ok := e.hrt.UserProtect(addr, length, writable)
	e.lane.end()
	return ok
}

func (e *tracedHRTEnv) Scheduler() *aerokernel.Scheduler { return e.hrt.Scheduler() }

func (e *tracedHRTEnv) SpawnWorkerEnv() (core.Env, machine.CoreID, func(), error) {
	return e.hrt.SpawnWorkerEnv()
}

func (e *tracedHRTEnv) HRTThreadForBench() *aerokernel.Thread { return e.hrt.HRTThreadForBench() }
