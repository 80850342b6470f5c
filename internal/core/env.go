// Package core implements Multiverse — the paper's contribution: automatic
// hybridization of runtime systems.
//
// A user package is rebuilt with the Multiverse toolchain (toolchain.go),
// producing a fat binary with an embedded AeroKernel image and override
// configuration. At startup the runtime component (multiverse.go) parses
// the embedded image, installs and boots it through the HVM, registers ROS
// signal handlers and exit hooks, merges the address spaces, and links the
// override wrappers. Execution then splits into execution groups
// (group.go): an HRT thread running the application in kernel mode paired
// with a ROS partner thread servicing its forwarded events.
package core

import (
	"fmt"

	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
	"multiverse/internal/ros"
	"multiverse/internal/telemetry"
)

// World identifies which of Figure 13's three configurations an Env
// executes in.
type World int

const (
	// WorldNative: user-level process on the bare-metal ROS.
	WorldNative World = iota
	// WorldVirtual: user-level process on the virtualized ROS.
	WorldVirtual
	// WorldHRT: kernel-mode thread in the hybridized runtime.
	WorldHRT
)

var worldNames = [...]string{"Native", "Virtual", "Multiverse"}

// String names the world as the paper's figures label it.
func (w World) String() string {
	if int(w) < len(worldNames) {
		return worldNames[w]
	}
	return fmt.Sprintf("world(%d)", int(w))
}

// PthreadJoin blocks until the created thread exits and returns its code.
type PthreadJoin func() uint64

// Env is everything an application or runtime system sees of its
// execution environment: the Linux ABI surface (system calls, vdso calls,
// memory access with demand paging and signals, pthreads) plus virtual
// time. A hybridized package runs against the same interface in all three
// worlds — which is the paper's point: "the user sees no difference
// between HRT execution and user-level execution."
type Env interface {
	// World reports which configuration this is.
	World() World
	// Clock is the executing context's virtual clock.
	Clock() *cycles.Clock
	// Compute charges user-mode work (the runtime's own instructions).
	Compute(c cycles.Cycles)
	// Syscall issues one system call.
	Syscall(call linuxabi.Call) linuxabi.Result
	// VDSO issues a user-mode fast call (getpid, gettimeofday).
	VDSO(num linuxabi.Sysno) (uint64, linuxabi.Errno)
	// Touch performs one data memory access, faulting and retrying as
	// the hardware would.
	Touch(addr uint64, write bool) error
	// CheckTimer polls the interval timer, delivering its signal if
	// expired; returns true if it fired.
	CheckTimer() bool
	// PthreadCreate starts a new thread running fn (interposed by the
	// default overrides under Multiverse).
	PthreadCreate(fn func(Env)) (PthreadJoin, error)
	// RegisterSignalCode associates handler code (a closure standing in
	// for a function in the program image) with an address, so a
	// subsequent rt_sigaction can name it.
	RegisterSignalCode(addr uint64, fn func(*ros.SignalContext))
	// Process exposes the owning ROS process (for accounting and signal
	// handler registration; the runtime's startup code uses it the way
	// real code uses its own symbols).
	Process() *ros.Process
}

// nativeEnv runs the application as an ordinary user-level process —
// Figure 13's Native and Virtual configurations (the kernel's World
// setting decides which).
type nativeEnv struct {
	proc   *ros.Process
	thread *ros.Thread
	world  World
	scope  telemetry.Scope
}

// TelemetryScope exposes the environment's instruments to runtime layers
// (the scheme GC) that discover telemetry by interface assertion.
func (e *nativeEnv) TelemetryScope() telemetry.Scope { return e.scope }

// NewNativeEnv wraps a ROS thread as an execution environment.
func NewNativeEnv(p *ros.Process, t *ros.Thread) Env {
	w := WorldNative
	if p.Kernel().World() == ros.Virtual {
		w = WorldVirtual
	}
	return &nativeEnv{proc: p, thread: t, world: w}
}

func (e *nativeEnv) World() World          { return e.world }
func (e *nativeEnv) Clock() *cycles.Clock  { return e.thread.Clock }
func (e *nativeEnv) Process() *ros.Process { return e.proc }

func (e *nativeEnv) Compute(c cycles.Cycles) {
	e.thread.Clock.Advance(c)
	e.proc.ChargeUser(c)
}

func (e *nativeEnv) Syscall(call linuxabi.Call) linuxabi.Result {
	return e.proc.Syscall(e.thread, call)
}

func (e *nativeEnv) VDSO(num linuxabi.Sysno) (uint64, linuxabi.Errno) {
	return e.proc.VDSO(e.thread, num)
}

func (e *nativeEnv) Touch(addr uint64, write bool) error {
	if errno := e.proc.Touch(e.thread, addr, write); errno != linuxabi.OK {
		return fmt.Errorf("core: native access at %#x: %w", addr, errno)
	}
	return nil
}

func (e *nativeEnv) CheckTimer() bool { return e.proc.CheckTimer(e.thread.TID, e.thread.Clock) }

func (e *nativeEnv) RegisterSignalCode(addr uint64, fn func(*ros.SignalContext)) {
	e.proc.RegisterHandler(e.thread.TID, addr, fn)
}

func (e *nativeEnv) PthreadCreate(fn func(Env)) (PthreadJoin, error) {
	nt := e.proc.NewThread(e.thread.Core)
	child := &nativeEnv{proc: e.proc, thread: nt, world: e.world, scope: telemetry.Scope{
		Tracer:  e.scope.Tracer,
		Metrics: e.scope.Metrics,
		// Each thread gets its own track: span nesting stays per-context
		// even when sibling threads interleave on a core.
		Track: telemetry.Track{Core: int(nt.Core), Name: fmt.Sprintf("ros:thread:%d", nt.TID)},
	}}
	nt.Start(e.thread.Clock, func(t *ros.Thread) { fn(child) })
	self := e.thread
	return func() uint64 { return nt.Join(self) }, nil
}
