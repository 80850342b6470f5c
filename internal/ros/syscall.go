package ros

import (
	"strings"

	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/mem"
	"multiverse/internal/paging"
	"multiverse/internal/vfs"
)

// UnameString is the utsname banner uname(2) reports. Exported so the
// HRT-side router can mirror it and answer uname locally.
const UnameString = "Linux multiverse-ros 2.6.38"

// Syscall dispatches one system call on thread t. It is the single kernel
// entry point: the native path calls it directly, and the Multiverse
// partner thread calls it with envelopes forwarded from the HRT.
func (p *Process) Syscall(t *Thread, call linuxabi.Call) linuxabi.Result {
	start := t.Clock.Now()
	p.kern.enterKernel(t.Clock)
	p.mu.Lock()
	p.stats.Syscalls[call.Num]++
	p.mu.Unlock()

	res := p.dispatch(t, call)

	p.kern.exitKernel(t.Clock)
	p.chargeSys(t.Clock.Now() - start)
	return res
}

func (p *Process) dispatch(t *Thread, call linuxabi.Call) linuxabi.Result {
	switch call.Num {
	case linuxabi.SysRead:
		return p.sysRead(t, call)
	case linuxabi.SysWrite:
		return p.sysWrite(t, call)
	case linuxabi.SysOpen:
		return p.sysOpen(t, call)
	case linuxabi.SysClose:
		return p.sysClose(t, call)
	case linuxabi.SysStat:
		return p.sysStat(t, call)
	case linuxabi.SysFstat:
		return p.sysFstat(t, call)
	case linuxabi.SysLseek:
		return p.sysLseek(t, call)
	case linuxabi.SysMmap:
		return p.sysMmap(t, call)
	case linuxabi.SysMprotect:
		return p.sysMprotect(t, call)
	case linuxabi.SysMunmap:
		return p.sysMunmap(t, call)
	case linuxabi.SysBrk:
		return p.sysBrk(t, call)
	case linuxabi.SysRtSigaction:
		return p.sysRtSigaction(t, call)
	case linuxabi.SysPoll:
		return p.sysPoll(t, call)
	case linuxabi.SysNanosleep:
		return p.sysNanosleep(t, call)
	case linuxabi.SysClockGettime:
		return ok(uint64(t.Clock.Now().Nanoseconds()))
	case linuxabi.SysSetitimer:
		return p.sysSetitimer(t, call)
	case linuxabi.SysGetpid:
		return ok(uint64(p.pid))
	case linuxabi.SysGettimeofday:
		return ok(uint64(t.Clock.Now().Microseconds()))
	case linuxabi.SysGetrusage:
		return p.sysGetrusage(t, call)
	case linuxabi.SysGetcwd:
		return p.sysGetcwd(t, call)
	case linuxabi.SysGetdents64:
		return p.sysGetdents64(t, call)
	case linuxabi.SysUname:
		return linuxabi.Result{Ret: 0, Err: linuxabi.OK, Data: []byte(UnameString)}
	case linuxabi.SysIoctl:
		return ok(0)
	case linuxabi.SysClone:
		return p.sysClone(t, call)
	case linuxabi.SysFutex:
		return p.sysFutex(t, call)
	case linuxabi.SysExit, linuxabi.SysExitGroup:
		p.mu.Lock()
		p.exited = true
		p.exitCode = call.Args[0]
		p.mu.Unlock()
		if call.Num == linuxabi.SysExitGroup {
			p.kern.reap(p.pid)
		}
		return ok(0)
	case linuxabi.SysExecve, linuxabi.SysFork:
		// Not modelled: the workloads under study never exec/fork, and
		// the HRT side prohibits them outright (section 4.2).
		return fail(linuxabi.ENOSYS)
	default:
		return fail(linuxabi.ENOSYS)
	}
}

// VDSO services the user-mode fast calls (getpid, gettimeofday) without a
// kernel entry, for a ROS thread.
func (p *Process) VDSO(t *Thread, num linuxabi.Sysno) (uint64, linuxabi.Errno) {
	return p.VDSOAt(t.Clock, t.Core, num)
}

// VDSOAt is the core-agnostic vdso path: after a merger the same vdso page
// is callable from the HRT core too. The small cost difference between
// core classes — the ROS core's polluted TLB vs. the HRT core's sparse
// one — is what makes these two calls slightly *faster* under Multiverse
// in Figure 9.
func (p *Process) VDSOAt(clk *cycles.Clock, core machine.CoreID, num linuxabi.Sysno) (uint64, linuxabi.Errno) {
	cost := p.kern.cost
	clk.Advance(cost.VDSOCall)
	if p.kern.isROSCore(core) {
		clk.Advance(cost.VDSOPollutionROS)
	} else {
		clk.Advance(cost.VDSOPollutionHRT)
	}
	switch num {
	case linuxabi.SysGetpid:
		return uint64(p.pid), linuxabi.OK
	case linuxabi.SysGettimeofday:
		return uint64(clk.Now().Microseconds()), linuxabi.OK
	case linuxabi.SysClockGettime:
		return uint64(clk.Now().Nanoseconds()), linuxabi.OK
	default:
		return 0, linuxabi.ENOSYS
	}
}

func ok(ret uint64) linuxabi.Result { return linuxabi.Result{Ret: ret, Err: linuxabi.OK} }
func fail(e linuxabi.Errno) linuxabi.Result {
	return linuxabi.Result{Ret: ^uint64(0), Err: e}
}

// copyCost charges the user<->kernel copy of n bytes.
func (p *Process) copyCost(t *Thread, n int) {
	pages := cycles.Cycles((n + mem.PageSize - 1) / mem.PageSize)
	t.Clock.Advance(pages * p.kern.cost.MemCopyPerPage)
}

// touchRange demand-pages a user buffer the kernel is about to copy
// through (addr may be 0 when the caller carries no real address).
func (p *Process) touchRange(t *Thread, addr uint64, n int, write bool) linuxabi.Errno {
	if addr == 0 || n == 0 {
		return linuxabi.OK
	}
	for base := paging.PageBase(addr); base < addr+uint64(n); base += mem.PageSize {
		if errno := p.Touch(t, base, write); errno != linuxabi.OK {
			return errno
		}
	}
	return linuxabi.OK
}

// ---- File system calls ------------------------------------------------

func (p *Process) file(fd int) (*vfs.File, linuxabi.Errno) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, okf := p.fds[fd]
	if !okf {
		return nil, linuxabi.EBADF
	}
	return e.file, linuxabi.OK
}

func (p *Process) sysOpen(t *Thread, call linuxabi.Call) linuxabi.Result {
	path := p.resolvePath(call.Path)
	f, err := p.kern.fs.Open(path, int(call.Args[1]))
	if err != nil {
		if e, isErrno := err.(linuxabi.Errno); isErrno {
			return fail(e)
		}
		return fail(linuxabi.ENOENT)
	}
	f.Restamp()
	p.mu.Lock()
	fd := p.nextFd
	p.nextFd++
	p.fds[fd] = fdEntry{file: f, stamp: vfs.NewStamp()}
	p.mu.Unlock()
	t.Clock.Advance(600) // path walk + inode lookup
	return ok(uint64(fd))
}

func (p *Process) sysClose(t *Thread, call linuxabi.Call) linuxabi.Result {
	fd := int(call.Args[0])
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, okf := p.fds[fd]; !okf {
		return fail(linuxabi.EBADF)
	}
	delete(p.fds, fd)
	return ok(0)
}

func (p *Process) sysRead(t *Thread, call linuxabi.Call) linuxabi.Result {
	fd, addr, n := int(call.Args[0]), call.Args[1], int(call.Args[2])
	if fd == 0 {
		p.mu.Lock()
		take := n
		if take > len(p.stdin) {
			take = len(p.stdin)
		}
		data := p.stdin[:take]
		p.stdin = p.stdin[take:]
		p.mu.Unlock()
		p.copyCost(t, take)
		return linuxabi.Result{Ret: uint64(take), Err: linuxabi.OK, Data: data}
	}
	f, errno := p.file(fd)
	if errno != linuxabi.OK {
		return fail(errno)
	}
	if errno := p.touchRange(t, addr, n, true); errno != linuxabi.OK {
		return fail(errno)
	}
	buf := make([]byte, n)
	rn, err := f.Read(buf)
	if err != nil {
		if e, isErrno := err.(linuxabi.Errno); isErrno {
			return fail(e)
		}
		return fail(linuxabi.EBADF)
	}
	p.restampFD(fd)
	p.copyCost(t, rn)
	return linuxabi.Result{Ret: uint64(rn), Err: linuxabi.OK, Data: buf[:rn]}
}

func (p *Process) sysWrite(t *Thread, call linuxabi.Call) linuxabi.Result {
	fd, addr := int(call.Args[0]), call.Args[1]
	data := call.Data
	n := int(call.Args[2])
	if len(data) > 0 {
		n = len(data)
	}
	if errno := p.touchRange(t, addr, n, false); errno != linuxabi.OK {
		return fail(errno)
	}
	p.copyCost(t, n)
	if fd == 1 || fd == 2 {
		p.mu.Lock()
		p.stdout = append(p.stdout, data...)
		p.mu.Unlock()
		return ok(uint64(n))
	}
	f, errno := p.file(fd)
	if errno != linuxabi.OK {
		return fail(errno)
	}
	wn, err := f.Write(data)
	if err != nil {
		if e, isErrno := err.(linuxabi.Errno); isErrno {
			return fail(e)
		}
		return fail(linuxabi.EBADF)
	}
	f.Restamp()
	p.restampFD(fd)
	return ok(uint64(wn))
}

func (p *Process) sysStat(t *Thread, call linuxabi.Call) linuxabi.Result {
	st, err := p.kern.fs.Stat(p.resolvePath(call.Path))
	if err != nil {
		if e, isErrno := err.(linuxabi.Errno); isErrno {
			return fail(e)
		}
		return fail(linuxabi.ENOENT)
	}
	t.Clock.Advance(500) // path walk
	return linuxabi.Result{Ret: 0, Err: linuxabi.OK, Data: linuxabi.EncodeStat(st)}
}

func (p *Process) sysFstat(t *Thread, call linuxabi.Call) linuxabi.Result {
	f, errno := p.file(int(call.Args[0]))
	if errno != linuxabi.OK {
		return fail(errno)
	}
	return linuxabi.Result{Ret: 0, Err: linuxabi.OK, Data: linuxabi.EncodeStat(f.Stat())}
}

func (p *Process) sysLseek(t *Thread, call linuxabi.Call) linuxabi.Result {
	fd := int(call.Args[0])
	f, errno := p.file(fd)
	if errno != linuxabi.OK {
		return fail(errno)
	}
	pos, err := f.Seek(int64(call.Args[1]), int(call.Args[2]))
	if err != nil {
		if e, isErrno := err.(linuxabi.Errno); isErrno {
			return fail(e)
		}
		return fail(linuxabi.EINVAL)
	}
	if call.Args[1] != 0 || call.Args[2] != linuxabi.SeekCur {
		p.restampFD(fd) // anything but the position query moves the offset
	}
	return ok(uint64(pos))
}

func (p *Process) sysGetcwd(t *Thread, call linuxabi.Call) linuxabi.Result {
	p.mu.Lock()
	cwd := p.cwd
	p.mu.Unlock()
	return linuxabi.Result{Ret: uint64(len(cwd)), Err: linuxabi.OK, Data: []byte(cwd)}
}

func (p *Process) sysGetdents64(t *Thread, call linuxabi.Call) linuxabi.Result {
	f, errno := p.file(int(call.Args[0]))
	if errno != linuxabi.OK {
		return fail(errno)
	}
	names, err := p.kern.fs.ReadDir(f.Path())
	if err != nil {
		if e, isErrno := err.(linuxabi.Errno); isErrno {
			return fail(e)
		}
		return fail(linuxabi.ENOTDIR)
	}
	blob := []byte(strings.Join(names, "\x00"))
	p.copyCost(t, len(blob))
	return linuxabi.Result{Ret: uint64(len(names)), Err: linuxabi.OK, Data: blob}
}

// resolvePath makes relative paths absolute against the cwd.
func (p *Process) resolvePath(path string) string {
	if strings.HasPrefix(path, "/") {
		return path
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cwd == "/" {
		return "/" + path
	}
	return p.cwd + "/" + path
}

// ---- Memory calls ------------------------------------------------------

func (p *Process) sysMmap(t *Thread, call linuxabi.Call) linuxabi.Result {
	addr, length := call.Args[0], call.Args[1]
	prot, flags := int(call.Args[2]), int(call.Args[3])
	if length == 0 {
		return fail(linuxabi.EINVAL)
	}
	length = (length + mem.PageSize - 1) &^ uint64(mem.PageSize-1)

	p.mu.Lock()
	defer p.mu.Unlock()
	if addr == 0 || flags&linuxabi.MapFixed == 0 {
		// Bump allocation with a one-page guard gap between areas, as
		// Linux's unmapped-area search tends to produce for anonymous
		// mappings. Under deterministic arenas each thread bumps through
		// its own TID-keyed slice of the mmap region instead of racing on
		// the shared pointer.
		if p.detArenas {
			a := p.arenaFor(t.TID)
			addr = a.mmapNext
			a.mmapNext += length + mem.PageSize
		} else {
			addr = p.mmapBase
			p.mmapBase += length + mem.PageSize
		}
	}
	v := &vma{start: addr, length: length, prot: prot, pages: make(map[uint64]mem.Frame)}
	if err := p.insertVMA(v); err != linuxabi.OK {
		return fail(err)
	}
	p.bumpGen(addr, length)
	t.Clock.Advance(900) // vma allocation + rbtree insertion analogue
	return ok(addr)
}

func (p *Process) sysMunmap(t *Thread, call linuxabi.Call) linuxabi.Result {
	addr, length := call.Args[0], call.Args[1]
	if addr%mem.PageSize != 0 || length == 0 {
		return fail(linuxabi.EINVAL)
	}
	length = (length + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.splitAt(addr)
	p.splitAt(addr + length)
	kept := p.vmas[:0]
	flushed := false
	for _, v := range p.vmas {
		if v.start >= addr && v.end() <= addr+length {
			for base, f := range v.pages {
				_ = p.space.Unmap(base)
				_ = p.kern.machine.Phys.Free(f)
				p.residency--
				t.Clock.Advance(p.kern.cost.PTEWrite)
				flushed = true
			}
			continue
		}
		kept = append(kept, v)
	}
	p.vmas = append([]*vma(nil), kept...)
	if flushed {
		p.kern.machine.Core(t.Core).MMU.TLB().FlushAll()
		t.Clock.Advance(p.kern.cost.TLBFlushLocal)
	}
	p.bumpGen(addr, length)
	t.Clock.Advance(600)
	return ok(0)
}

func (p *Process) sysMprotect(t *Thread, call linuxabi.Call) linuxabi.Result {
	addr, length, prot := call.Args[0], call.Args[1], int(call.Args[2])
	if addr%mem.PageSize != 0 || length == 0 {
		return fail(linuxabi.EINVAL)
	}
	length = (length + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.splitAt(addr)
	p.splitAt(addr + length)
	tlb := p.kern.machine.Core(t.Core).MMU.TLB()
	found := false
	for _, v := range p.vmas {
		if v.start >= addr+length || v.end() <= addr {
			continue
		}
		found = true
		v.prot = prot
		for base := range v.pages {
			if err := p.space.Protect(base, protFlags(prot)); err != nil {
				return fail(linuxabi.ENOMEM)
			}
			tlb.FlushVA(base)
			t.Clock.Advance(p.kern.cost.PTEWrite)
		}
	}
	if !found {
		return fail(linuxabi.ENOMEM)
	}
	p.bumpGen(addr, length)
	t.Clock.Advance(500)
	return ok(0)
}

// splitAt splits any VMA spanning addr into two at addr. Callers hold
// p.mu.
func (p *Process) splitAt(addr uint64) {
	for i, v := range p.vmas {
		if addr <= v.start || addr >= v.end() {
			continue
		}
		left := &vma{start: v.start, length: addr - v.start, prot: v.prot, pages: make(map[uint64]mem.Frame)}
		right := &vma{start: addr, length: v.end() - addr, prot: v.prot, pages: make(map[uint64]mem.Frame)}
		for base, f := range v.pages {
			if base < addr {
				left.pages[base] = f
			} else {
				right.pages[base] = f
			}
		}
		p.vmas = append(p.vmas[:i], append([]*vma{left, right}, p.vmas[i+1:]...)...)
		return
	}
}

func (p *Process) sysBrk(t *Thread, call linuxabi.Call) linuxabi.Result {
	newBrk := call.Args[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	// Under deterministic arenas each thread grows a private break inside
	// its TID-keyed slice, so concurrent brk chatter from sibling threads
	// cannot make this thread's mappings depend on arrival order.
	var a *threadArena
	base, cur := brkBase, p.brk
	if p.detArenas {
		a = p.arenaFor(t.TID)
		base, cur = a.brkBase, a.brk
	}
	if newBrk == 0 {
		return ok(cur)
	}
	if newBrk < base {
		return fail(linuxabi.EINVAL)
	}
	if newBrk > cur {
		start := (cur + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
		end := (newBrk + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
		if end > start {
			v := &vma{
				start:  start,
				length: end - start,
				prot:   linuxabi.ProtRead | linuxabi.ProtWrite,
				pages:  make(map[uint64]mem.Frame),
			}
			if err := p.insertVMA(v); err != linuxabi.OK {
				return fail(linuxabi.ENOMEM)
			}
			p.bumpGen(start, end-start)
		}
	}
	if a != nil {
		a.brk = newBrk
	} else {
		p.brk = newBrk
	}
	p.brkStamp = vfs.NewStamp()
	return ok(newBrk)
}

// ---- Signals, timers, scheduling ---------------------------------------

func (p *Process) sysRtSigaction(t *Thread, call linuxabi.Call) linuxabi.Result {
	sig := linuxabi.Signal(call.Args[0])
	handlerAddr := call.Args[1]
	flags := call.Args[2]
	if sig == linuxabi.SIGKILL {
		return fail(linuxabi.EINVAL)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	sigs := p.sigactions
	if p.detArenas {
		sigs = p.arenaFor(t.TID).sigactions
	}
	if handlerAddr == 0 {
		delete(sigs, sig)
	} else {
		sigs[sig] = sigaction{handlerAddr: handlerAddr, flags: flags}
	}
	return ok(0)
}

func (p *Process) sysPoll(t *Thread, call linuxabi.Call) linuxabi.Result {
	timeoutMs := int64(call.Args[2])
	if timeoutMs > 0 {
		p.CountVoluntaryCS()
		t.Clock.Advance(p.kern.cost.ContextSwitch)
		t.Clock.Advance(cycles.Cycles(timeoutMs) * cycles.ClockHz / 1000)
	}
	return ok(0) // nothing ready; the cooperative scheduler just wanted a tick
}

// sysNanosleep blocks the thread for the requested duration of virtual
// time (args[0] = nanoseconds), counting the voluntary context switch.
func (p *Process) sysNanosleep(t *Thread, call linuxabi.Call) linuxabi.Result {
	ns := call.Args[0]
	p.CountVoluntaryCS()
	t.Clock.Advance(p.kern.cost.ContextSwitch)
	t.Clock.Advance(cycles.Cycles(ns * (cycles.ClockHz / 1_000_000) / 1000))
	return ok(0)
}

func (p *Process) sysSetitimer(t *Thread, call linuxabi.Call) linuxabi.Result {
	which := int(call.Args[0])
	valueUsec := call.Args[1]
	intervalUsec := call.Args[2]
	var sig linuxabi.Signal
	switch which {
	case linuxabi.ITimerReal:
		sig = linuxabi.SIGALRM
	case linuxabi.ITimerVirtual:
		sig = linuxabi.SIGVTALRM
	case linuxabi.ITimerProf:
		sig = linuxabi.SIGPROF
	default:
		return fail(linuxabi.EINVAL)
	}
	toCycles := func(usec uint64) cycles.Cycles {
		return cycles.Cycles(usec * (cycles.ClockHz / 1_000_000))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	deadline, interval, tsig := &p.timerDeadline, &p.timerInterval, &p.timerSig
	if p.detArenas {
		a := p.arenaFor(t.TID)
		deadline, interval, tsig = &a.timerDeadline, &a.timerInterval, &a.timerSig
	}
	if valueUsec == 0 {
		*deadline = 0
		*interval = 0
	} else {
		*deadline = t.Clock.Now() + toCycles(valueUsec)
		*interval = toCycles(intervalUsec)
		*tsig = sig
	}
	return ok(0)
}

func (p *Process) sysGetrusage(t *Thread, call linuxabi.Call) linuxabi.Result {
	p.mu.Lock()
	st := p.stats
	p.mu.Unlock()
	p.foldHotStats(&st)
	usec := func(c cycles.Cycles) linuxabi.Timeval {
		us := int64(c.Microseconds())
		return linuxabi.Timeval{Sec: us / 1_000_000, Usec: us % 1_000_000}
	}
	ru := linuxabi.Rusage{
		UserTime:   usec(st.UserCycles),
		SysTime:    usec(st.SysCycles),
		MaxRSSKb:   st.MaxRSSPages * mem.PageSize / 1024,
		MinorFault: st.MinorFaults,
		MajorFault: st.MajorFaults,
		NVCSw:      st.VoluntaryCS,
		NIvCSw:     st.InvoluntaryCS,
	}
	return linuxabi.Result{Ret: 0, Err: linuxabi.OK, Data: linuxabi.EncodeRusage(ru)}
}

// ---- Thread calls -------------------------------------------------------

// RegisterThreadFn associates thread-entry code with an address, the way
// RegisterHandler does for signals; clone() refers to entries by address.
func (p *Process) RegisterThreadFn(addr uint64, fn func(*Thread)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.threadFns == nil {
		p.threadFns = make(map[uint64]func(*Thread))
	}
	p.threadFns[addr] = fn
}

func (p *Process) sysClone(t *Thread, call linuxabi.Call) linuxabi.Result {
	fnAddr := call.Args[0]
	p.mu.Lock()
	fn := p.threadFns[fnAddr]
	p.mu.Unlock()
	if fn == nil {
		return fail(linuxabi.EINVAL)
	}
	nt := p.NewThread(t.Core)
	nt.Start(t.Clock, fn)
	return ok(uint64(nt.TID))
}

func (p *Process) sysFutex(t *Thread, call linuxabi.Call) linuxabi.Result {
	// Minimal futex: WAIT yields (costed as a voluntary switch), WAKE is
	// a no-op because waiters here never sleep indefinitely. Enough for
	// glibc-style join loops in the model.
	p.CountVoluntaryCS()
	t.Clock.Advance(p.kern.cost.ContextSwitch)
	return ok(0)
}

// SetStdin provisions the bytes read(2) on fd 0 returns (the REPL's
// input stream).
func (p *Process) SetStdin(b []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stdin = append([]byte(nil), b...)
}

// Stdout returns the bytes the process wrote to fds 1 and 2.
func (p *Process) Stdout() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]byte(nil), p.stdout...)
}
