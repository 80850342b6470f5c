package ros

import (
	"fmt"
	"sync"

	"multiverse/internal/cycles"
	"multiverse/internal/machine"
)

// Thread is one ROS thread (a Linux task). Each thread owns its virtual
// clock; the goroutine running the thread's code charges work to it.
type Thread struct {
	TID    int
	Proc   *Process
	Core   machine.CoreID
	Clock  *cycles.Clock
	Stack  *machine.Stack
	FSBase uint64

	mu        sync.Mutex
	done      chan struct{}
	closeOnce sync.Once
	exit      uint64
}

// NewThread creates a thread of the process on the given core (which must
// be a ROS core). The thread starts with its own stack and a TLS base
// derived from its tid, the state the partner-thread superposition mirrors
// into the HRT.
func (p *Process) NewThread(core machine.CoreID) *Thread {
	p.mu.Lock()
	tid := p.nextTid
	p.nextTid++
	p.mu.Unlock()
	return p.NewContext(tid, core)
}

// NewContext creates another context of the existing thread tid on the
// given core: the same TID and TLS base, so the same per-TID kernel state
// (arena, signal dispositions, itimer), with a stack and a clock of its
// own. Every context that serves one execution group is built this way,
// so the group keeps one ROS identity whichever context serves a call.
func (p *Process) NewContext(tid int, core machine.CoreID) *Thread {
	return &Thread{
		TID:    tid,
		Proc:   p,
		Core:   core,
		Clock:  cycles.NewClock(0),
		Stack:  machine.NewStack(64 * 1024),
		FSBase: tlsBase(p.pid, tid),
		done:   make(chan struct{}),
	}
}

// tlsBase fabricates a distinct, recognizable TLS address per thread.
func tlsBase(pid, tid int) uint64 {
	return 0x0000_7ffe_0000_0000 | uint64(pid)<<16 | uint64(tid)<<4
}

// finish marks the thread complete exactly once.
func (t *Thread) finish() {
	t.closeOnce.Do(func() { close(t.done) })
}

// Create pays thread creation on the creator's clock (clone + runqueue
// insertion) and starts the thread's clock there. A thread that is
// state rather than a thread of control — a partner whose service runs
// where its events are delivered — is created this way and never
// started.
func (t *Thread) Create(creator *cycles.Clock) {
	creator.Advance(t.Proc.kern.cost.ROSThreadCreate)
	t.Clock.SyncTo(creator.Now())
}

// Start runs fn on a new goroutine as this thread's code, paying thread
// creation cost on the creator's clock.
func (t *Thread) Start(creator *cycles.Clock, fn func(*Thread)) {
	t.Create(creator)
	go func() {
		defer t.finish()
		fn(t)
	}()
}

// Run executes fn synchronously as this thread (for main threads driven by
// the caller's goroutine).
func (t *Thread) Run(fn func(*Thread)) {
	fn(t)
	t.finish()
}

// Exit records the thread's exit code and marks it finished; also usable
// from inside Start/Run bodies to set the code before returning.
func (t *Thread) Exit(code uint64) {
	t.mu.Lock()
	t.exit = code
	t.mu.Unlock()
	t.finish()
}

// Join blocks the calling thread until t finishes, charging the futex-wait
// join cost and counting the voluntary context switch. It returns t's exit
// code and synchronizes the joiner's clock past t's completion time.
func (t *Thread) Join(joiner *Thread) uint64 {
	t.Proc.CountVoluntaryCS()
	joiner.Clock.Advance(t.Proc.kern.cost.ROSThreadJoin)
	<-t.done
	joiner.Clock.SyncTo(t.Clock.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exit
}

// Done exposes completion for selects in the harness.
func (t *Thread) Done() <-chan struct{} { return t.done }

// String identifies the thread in diagnostics.
func (t *Thread) String() string {
	return fmt.Sprintf("ros-thread(pid=%d tid=%d core=%d)", t.Proc.pid, t.TID, t.Core)
}
