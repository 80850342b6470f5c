package scheme

import (
	"fmt"
	"math"

	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
	"multiverse/internal/ros"
)

// OS is the consumer-side view of the execution environment the runtime
// needs — a subset of core.Env, so any Env satisfies it. The interpreter
// never knows which world it runs in; that is Multiverse's contract.
type OS interface {
	Clock() *cycles.Clock
	Compute(c cycles.Cycles)
	Syscall(call linuxabi.Call) linuxabi.Result
	VDSO(num linuxabi.Sysno) (uint64, linuxabi.Errno)
	Touch(addr uint64, write bool) error
	CheckTimer() bool
	RegisterSignalCode(addr uint64, fn func(*ros.SignalContext))
}

// Interp is one interpreter instance: heap, global environment, symbol
// table, and the output port.
type Interp struct {
	os     OS
	gc     *GC
	global *Frame
	syms   map[string]*Obj

	// Batched user-time accounting: charging the clock per reduction
	// would dominate runtime, so cycles accumulate here and flush at
	// syscall boundaries and timer checks.
	pendingCompute cycles.Cycles

	// stdout buffering (a line-buffered stdio FILE).
	outBuf []byte

	// argStack is the evaluator's operand stack: combination arguments
	// are pushed here and passed down as sub-slices, so argument lists
	// cost no allocation. Callees never retain the slice (builtins copy,
	// closures bind into frames), so stack discipline is safe.
	argStack []*Obj

	// Frame recycling. owned is a stack of frames created by in-flight
	// evaluations (let frames, parameter frames): each Eval records the
	// stack depth on entry and, on exit, returns every frame it pushed to
	// freeFrames — unless the frame escaped into a closure. Tail calls
	// sweep eagerly (see sweepTail) so loops run in constant frame space.
	owned      []*Frame
	freeFrames []*Frame

	// freeClosures recycles named-let loop closures, whose lifetime is
	// tied to their loop frame (see Frame.loopc): one loop entry reuses
	// the closure — and its Params/Body backing arrays — of a finished
	// loop instead of allocating fresh ones.
	freeClosures []*Obj

	// Cooperative threading: the engine checks the interval timer every
	// timerCheckEvery reductions; when it fires, the scheduler's tick
	// runs (and occasionally polls, as Racket's scheduler does).
	reductions      uint64
	timerChecks     uint64
	timerFires      uint64
	pollEvery       int
	sinceLastPoll   int
	schedulerActive bool

	// Places (message-passing parallelism).
	placeSpawner PlaceSpawner
	places       map[int64]*placeHandle
	nextPlace    int64
}

// Tunables.
const (
	reductionCost   = 38   // cycles charged per evaluation step
	flushThreshold  = 4096 // stdout buffer size before a write(2)
	timerCheckEvery = 512  // reductions between timer polls
)

// NewInterp creates an interpreter bound to an execution environment. It
// performs the runtime's startup OS work: registers the GC's SIGSEGV
// handler (rt_sigaction), creates the initial heap (the mmap storm of
// Figure 11), and arms the scheduler's interval timer (setitimer).
func NewInterp(osenv OS) (*Interp, error) {
	in := &Interp{
		os:        osenv,
		syms:      make(map[string]*Obj, 256),
		pollEvery: 4,
	}
	in.global = &Frame{big: make(map[*Obj]*gcell, 256)}

	// libc-style process setup chatter before the heap exists.
	brk := in.os.Syscall(linuxabi.Call{Num: linuxabi.SysBrk, Args: [6]uint64{0}})
	if brk.Ok() {
		_ = in.os.Syscall(linuxabi.Call{Num: linuxabi.SysBrk, Args: [6]uint64{brk.Ret + 1<<20}})
	}
	_ = in.os.Syscall(linuxabi.Call{Num: linuxabi.SysUname})
	_ = in.os.Syscall(linuxabi.Call{Num: linuxabi.SysIoctl, Args: [6]uint64{1}}) // isatty(stdout)

	gc, err := newGC(in)
	if err != nil {
		return nil, err
	}
	in.gc = gc
	installBuiltins(in)
	installExtendedBuiltins(in)
	// HRT-only capabilities appear when the environment offers them —
	// the start of the incremental -> accelerator transition.
	if ak, ok := osenv.(AKCaller); ok {
		installHRTBuiltins(in, ak)
	} else {
		installUserBuiltinFallbacks(in)
	}

	// Arm the cooperative-scheduler tick: 10 ms virtual interval.
	res := in.os.Syscall(linuxabi.Call{
		Num:  linuxabi.SysSetitimer,
		Args: [6]uint64{linuxabi.ITimerVirtual, 10_000, 10_000},
	})
	if !res.Ok() {
		return nil, fmt.Errorf("scheme: setitimer: %v", res.Err)
	}
	in.installTimerHandler()
	in.schedulerActive = true
	return in, nil
}

// timerHandlerAddr is where the scheduler tick handler "lives".
const timerHandlerAddr = 0x0000_0000_0041_2000

func (in *Interp) installTimerHandler() {
	in.os.RegisterSignalCode(timerHandlerAddr, func(ctx *ros.SignalContext) {
		in.timerFires++
		// The scheduler occasionally polls for external events while
		// switching green threads, like Racket's runtime does.
		in.sinceLastPoll++
		if in.sinceLastPoll >= in.pollEvery {
			in.sinceLastPoll = 0
			sys := ctx.Sys
			if sys == nil {
				sys = in.os.Syscall
			}
			_ = sys(linuxabi.Call{Num: linuxabi.SysPoll, Args: [6]uint64{0, 0, 0}})
		}
	})
	_ = in.os.Syscall(linuxabi.Call{
		Num:  linuxabi.SysRtSigaction,
		Args: [6]uint64{uint64(linuxabi.SIGVTALRM), timerHandlerAddr, 0},
	})
}

// GC returns the collector (stats).
func (in *Interp) GC() *GC { return in.gc }

// charge accumulates user-mode compute cycles.
func (in *Interp) charge(c cycles.Cycles) { in.pendingCompute += c }

// flushCompute pushes accumulated compute time to the environment. Called
// before anything that observes the clock (syscalls, timers).
func (in *Interp) flushCompute() {
	if in.pendingCompute > 0 {
		in.os.Compute(in.pendingCompute)
		in.pendingCompute = 0
	}
}

// Sys issues a system call with the compute accounting flushed first.
func (in *Interp) Sys(call linuxabi.Call) linuxabi.Result {
	in.flushCompute()
	return in.os.Syscall(call)
}

// tick runs the per-reduction bookkeeping: cycle charge and periodic
// timer checks. It is small enough to inline at every reduction; the
// timer check is a call.
func (in *Interp) tick() {
	in.reductions++
	in.charge(reductionCost)
	if in.reductions%timerCheckEvery == 0 {
		in.checkTimer()
	}
}

func (in *Interp) checkTimer() {
	if in.schedulerActive {
		in.flushCompute()
		in.timerChecks++
		in.os.CheckTimer()
	}
}

// Reductions returns the evaluation step count.
func (in *Interp) Reductions() uint64 { return in.reductions }

// TimerFires returns how many scheduler ticks were delivered.
func (in *Interp) TimerFires() uint64 { return in.timerFires }

// ---- Allocation ---------------------------------------------------------

// alloc grabs a cell from the GC and stamps it.
func (in *Interp) alloc(kind Kind) *Obj {
	o := in.gc.alloc()
	o.Kind = kind
	return o
}

// Intern returns the unique symbol for name.
func (in *Interp) Intern(name string) *Obj {
	if s, ok := in.syms[name]; ok {
		return s
	}
	s := in.alloc(KSymbol)
	s.ext = &objExt{Str: []byte(name)}
	s.special = specialCodes[name]
	in.syms[name] = s
	in.gc.addRoot(s) // interned symbols are immortal
	return s
}

// Fixnum immediates: small integers are preboxed, the moral equivalent of
// Racket's tagged fixnums — integer-loop code does not churn the heap.
const (
	fixnumMin = -128
	fixnumMax = 4096
)

var fixnums = func() [fixnumMax - fixnumMin + 1]*Obj {
	var out [fixnumMax - fixnumMin + 1]*Obj
	for i := range out {
		out[i] = &Obj{Kind: KInt, Int: int64(i + fixnumMin)}
	}
	return out
}()

// asciiChars are preboxed character immediates.
var asciiChars = func() [128]*Obj {
	var out [128]*Obj
	for i := range out {
		out[i] = &Obj{Kind: KChar, Int: int64(i)}
	}
	return out
}()

// NewInt returns an integer. Like Racket's 62-bit fixnums, integers are
// immediates that cost no simulated heap: a value in -128..4096 is a
// shared prebox, and any other value is boxed in a Go allocation outside
// the simulated heap. Only flonums, pairs, strings, vectors, and closures
// take simulated heap cells.
func (in *Interp) NewInt(v int64) *Obj {
	if v >= fixnumMin && v <= fixnumMax {
		return fixnums[v-fixnumMin]
	}
	return &Obj{Kind: KInt, Int: v}
}

// NewFloat allocates a float.
func (in *Interp) NewFloat(v float64) *Obj {
	o := in.alloc(KFloat)
	o.Int = int64(math.Float64bits(v))
	return o
}

// NewChar returns a character, preboxed for ASCII.
func (in *Interp) NewChar(c rune) *Obj {
	if c >= 0 && c < 128 {
		return asciiChars[c]
	}
	o := in.alloc(KChar)
	o.Int = int64(c)
	return o
}

// NewString allocates a (mutable) string.
func (in *Interp) NewString(b []byte) *Obj {
	o := in.alloc(KString)
	o.ext = &objExt{Str: b}
	in.gc.creditBytes(len(b))
	return o
}

// Cons allocates a pair.
func (in *Interp) Cons(car, cdr *Obj) *Obj {
	o := in.alloc(KPair)
	o.Car = car
	o.Cdr = cdr
	return o
}

// NewVector allocates a vector with the given elements.
func (in *Interp) NewVector(elems []*Obj) *Obj {
	o := in.alloc(KVector)
	o.ext = &objExt{Vec: elems}
	in.gc.creditBytes(8 * len(elems))
	return o
}

// List builds a proper list.
func (in *Interp) List(elems ...*Obj) *Obj {
	out := Nil
	for i := len(elems) - 1; i >= 0; i-- {
		out = in.Cons(elems[i], out)
	}
	return out
}

// defineBuiltin binds a builtin procedure in the global frame. A name in
// primCodes gives the builtin its primitive code (Obj.special), which the
// evaluator reads off the procedure it is about to apply, never off the
// name: a program that rebinds the name applies whatever it bound.
func (in *Interp) defineBuiltin(name string, fn func(*Interp, []*Obj) (*Obj, error)) {
	b := in.alloc(KBuiltin)
	b.special = primCodes[name]
	sym := in.Intern(name)
	b.ext = &objExt{Str: sym.ext.Str, Fn: fn} // names are immutable: share the symbol's
	in.global.Define(sym, b)
}

// ---- Output -------------------------------------------------------------

// writeOut appends to the stdout buffer, flushing through write(2) when
// full or when a newline lands (line buffering).
func (in *Interp) writeOut(b []byte) {
	in.outBuf = append(in.outBuf, b...)
	if len(in.outBuf) >= flushThreshold || (len(b) > 0 && b[len(b)-1] == '\n') {
		in.FlushOut()
	}
}

// FlushOut forces the buffered stdout through the write system call.
func (in *Interp) FlushOut() {
	if len(in.outBuf) == 0 {
		return
	}
	buf := in.outBuf
	in.outBuf = nil
	_ = in.Sys(linuxabi.Call{
		Num:  linuxabi.SysWrite,
		Args: [6]uint64{1, 0, uint64(len(buf))},
		Data: buf,
	})
}

// evalError formats an evaluation error.
func evalError(format string, args ...any) error {
	return fmt.Errorf("scheme: %s", fmt.Sprintf(format, args...))
}
