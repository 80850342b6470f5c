package ros

import (
	"testing"

	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
)

func newProc(t *testing.T, world World) (*Kernel, *Process, *Thread) {
	t.Helper()
	m, err := machine.New(machine.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(m, world, []machine.CoreID{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn("test")
	if err != nil {
		t.Fatal(err)
	}
	return k, p, p.NewThread(k.BootCore())
}

func call(num linuxabi.Sysno, args ...uint64) linuxabi.Call {
	c := linuxabi.Call{Num: num}
	copy(c.Args[:], args)
	return c
}

func TestGetpidAndTime(t *testing.T) {
	_, p, th := newProc(t, Native)
	res := p.Syscall(th, call(linuxabi.SysGetpid))
	if !res.Ok() || int(res.Ret) != p.Pid() {
		t.Errorf("getpid = %+v", res)
	}
	before := p.Syscall(th, call(linuxabi.SysGettimeofday)).Ret
	th.Clock.Advance(2_200_000) // 1 ms
	after := p.Syscall(th, call(linuxabi.SysGettimeofday)).Ret
	if after < before+999 {
		t.Errorf("gettimeofday did not advance: %d -> %d", before, after)
	}
}

func TestMmapTouchDemandPaging(t *testing.T) {
	_, p, th := newProc(t, Native)
	res := p.Syscall(th, call(linuxabi.SysMmap, 0, 8*4096,
		linuxabi.ProtRead|linuxabi.ProtWrite, linuxabi.MapPrivate|linuxabi.MapAnonymous))
	if !res.Ok() {
		t.Fatalf("mmap: %v", res.Err)
	}
	addr := res.Ret
	if p.ResidentPages() != 0 {
		t.Errorf("pages mapped eagerly: %d", p.ResidentPages())
	}
	for off := uint64(0); off < 8*4096; off += 4096 {
		if errno := p.Touch(th, addr+off, true); errno != linuxabi.OK {
			t.Fatalf("touch: %v", errno)
		}
	}
	if p.ResidentPages() != 8 {
		t.Errorf("resident = %d", p.ResidentPages())
	}
	st := p.Stats()
	if st.MinorFaults != 8 {
		t.Errorf("minor faults = %d", st.MinorFaults)
	}
	// Second touch: no new faults.
	_ = p.Touch(th, addr, false)
	if p.Stats().MinorFaults != 8 {
		t.Error("re-touch faulted")
	}
}

func TestMunmapFreesFrames(t *testing.T) {
	k, p, th := newProc(t, Native)
	res := p.Syscall(th, call(linuxabi.SysMmap, 0, 4*4096,
		linuxabi.ProtRead|linuxabi.ProtWrite, linuxabi.MapPrivate|linuxabi.MapAnonymous))
	addr := res.Ret
	for off := uint64(0); off < 4*4096; off += 4096 {
		_ = p.Touch(th, addr+off, true)
	}
	used := k.Machine().Phys.InUse()
	if r := p.Syscall(th, call(linuxabi.SysMunmap, addr, 4*4096)); !r.Ok() {
		t.Fatalf("munmap: %v", r.Err)
	}
	if got := k.Machine().Phys.InUse(); got != used-4 {
		t.Errorf("frames in use %d -> %d, want -4", used, got)
	}
	if errno := p.Touch(th, addr, false); errno == linuxabi.OK {
		t.Error("touch after munmap succeeded")
	}
	if p.ResidentPages() != 0 {
		t.Errorf("resident = %d", p.ResidentPages())
	}
}

func TestMunmapPartialSplits(t *testing.T) {
	_, p, th := newProc(t, Native)
	res := p.Syscall(th, call(linuxabi.SysMmap, 0, 4*4096,
		linuxabi.ProtRead|linuxabi.ProtWrite, linuxabi.MapPrivate|linuxabi.MapAnonymous))
	addr := res.Ret
	// Unmap the middle two pages.
	if r := p.Syscall(th, call(linuxabi.SysMunmap, addr+4096, 2*4096)); !r.Ok() {
		t.Fatalf("partial munmap: %v", r.Err)
	}
	if errno := p.Touch(th, addr, true); errno != linuxabi.OK {
		t.Errorf("first page gone: %v", errno)
	}
	if errno := p.Touch(th, addr+4096, true); errno == linuxabi.OK {
		t.Error("middle page survived")
	}
	if errno := p.Touch(th, addr+3*4096, true); errno != linuxabi.OK {
		t.Errorf("last page gone: %v", errno)
	}
}

func TestMprotectAndSIGSEGVHandler(t *testing.T) {
	_, p, th := newProc(t, Native)
	res := p.Syscall(th, call(linuxabi.SysMmap, 0, 4096,
		linuxabi.ProtRead|linuxabi.ProtWrite, linuxabi.MapPrivate|linuxabi.MapAnonymous))
	addr := res.Ret
	if errno := p.Touch(th, addr, true); errno != linuxabi.OK {
		t.Fatal(errno)
	}

	// Drop write permission; a write without a handler must fail.
	if r := p.Syscall(th, call(linuxabi.SysMprotect, addr, 4096, linuxabi.ProtRead)); !r.Ok() {
		t.Fatalf("mprotect: %v", r.Err)
	}
	if errno := p.Touch(th, addr, true); errno != linuxabi.EFAULT {
		t.Fatalf("unhandled write fault: %v", errno)
	}
	if errno := p.Touch(th, addr, false); errno != linuxabi.OK {
		t.Errorf("read should still work: %v", errno)
	}

	// Install a GC-style handler that re-opens the page, then retry.
	var faults int
	p.RegisterHandler(0, 0x4000_0000, func(ctx *SignalContext) {
		faults++
		if ctx.Sig != linuxabi.SIGSEGV || !ctx.Write || ctx.FaultAddr != addr {
			t.Errorf("ctx = %+v", ctx)
		}
		r := ctx.Sys(call(linuxabi.SysMprotect, addr, 4096, linuxabi.ProtRead|linuxabi.ProtWrite))
		if !r.Ok() {
			t.Errorf("handler mprotect: %v", r.Err)
		}
	})
	if r := p.Syscall(th, call(linuxabi.SysRtSigaction, uint64(linuxabi.SIGSEGV), 0x4000_0000, 0)); !r.Ok() {
		t.Fatalf("rt_sigaction: %v", r.Err)
	}
	if errno := p.Touch(th, addr, true); errno != linuxabi.OK {
		t.Fatalf("handled write fault: %v", errno)
	}
	if faults != 1 {
		t.Errorf("handler ran %d times", faults)
	}
	if p.Stats().Syscalls[linuxabi.SysRtSigreturn] != 1 {
		t.Error("rt_sigreturn not accounted")
	}
}

func TestBrkGrowsHeap(t *testing.T) {
	_, p, th := newProc(t, Native)
	cur := p.Syscall(th, call(linuxabi.SysBrk, 0)).Ret
	grown := p.Syscall(th, call(linuxabi.SysBrk, cur+64*1024))
	if !grown.Ok() || grown.Ret != cur+64*1024 {
		t.Fatalf("brk: %+v", grown)
	}
	if errno := p.Touch(th, cur+1024, true); errno != linuxabi.OK {
		t.Errorf("heap touch: %v", errno)
	}
	if r := p.Syscall(th, call(linuxabi.SysBrk, 1)); r.Ok() {
		t.Error("brk below base should fail")
	}
}

func TestFileSyscalls(t *testing.T) {
	k, p, th := newProc(t, Native)
	_ = k.FS().MkdirAll("/data")
	_ = k.FS().WriteFile("/data/f.txt", []byte("content here"))

	st := p.Syscall(th, linuxabi.Call{Num: linuxabi.SysStat, Path: "/data/f.txt"})
	if !st.Ok() {
		t.Fatalf("stat: %v", st.Err)
	}
	decoded, ok := linuxabi.DecodeStat(st.Data)
	if !ok || decoded.Size != 12 {
		t.Errorf("stat data = %+v", decoded)
	}

	o := p.Syscall(th, linuxabi.Call{Num: linuxabi.SysOpen, Path: "/data/f.txt", Args: [6]uint64{0, linuxabi.ORdonly}})
	if !o.Ok() || o.Ret < 3 {
		t.Fatalf("open: %+v", o)
	}
	r := p.Syscall(th, call(linuxabi.SysRead, o.Ret, 0, 7))
	if !r.Ok() || string(r.Data) != "content" {
		t.Fatalf("read: %+v %q", r, r.Data)
	}
	// lseek back and re-read.
	if s := p.Syscall(th, call(linuxabi.SysLseek, o.Ret, 0, 0)); !s.Ok() {
		t.Fatalf("lseek: %v", s.Err)
	}
	r2 := p.Syscall(th, call(linuxabi.SysRead, o.Ret, 0, 100))
	if string(r2.Data) != "content here" {
		t.Errorf("reread = %q", r2.Data)
	}
	if c := p.Syscall(th, call(linuxabi.SysClose, o.Ret)); !c.Ok() {
		t.Fatalf("close: %v", c.Err)
	}
	if c := p.Syscall(th, call(linuxabi.SysClose, o.Ret)); c.Err != linuxabi.EBADF {
		t.Errorf("double close: %v", c.Err)
	}

	cwd := p.Syscall(th, call(linuxabi.SysGetcwd))
	if string(cwd.Data) != "/" {
		t.Errorf("getcwd = %q", cwd.Data)
	}
}

func TestWriteToStdoutCaptured(t *testing.T) {
	_, p, th := newProc(t, Native)
	res := p.Syscall(th, linuxabi.Call{Num: linuxabi.SysWrite, Args: [6]uint64{1, 0, 5}, Data: []byte("hello")})
	if !res.Ok() || res.Ret != 5 {
		t.Fatalf("write: %+v", res)
	}
	if string(p.Stdout()) != "hello" {
		t.Errorf("stdout = %q", p.Stdout())
	}
}

func TestStdinRead(t *testing.T) {
	_, p, th := newProc(t, Native)
	p.SetStdin([]byte("line1"))
	r := p.Syscall(th, call(linuxabi.SysRead, 0, 0, 3))
	if string(r.Data) != "lin" {
		t.Errorf("read1 = %q", r.Data)
	}
	r = p.Syscall(th, call(linuxabi.SysRead, 0, 0, 100))
	if string(r.Data) != "e1" {
		t.Errorf("read2 = %q", r.Data)
	}
	r = p.Syscall(th, call(linuxabi.SysRead, 0, 0, 10))
	if r.Ret != 0 {
		t.Errorf("EOF read = %d", r.Ret)
	}
}

func TestItimerDelivery(t *testing.T) {
	_, p, th := newProc(t, Native)
	var fired int
	p.RegisterHandler(0, 0x5000_0000, func(ctx *SignalContext) {
		fired++
		if ctx.Sig != linuxabi.SIGVTALRM {
			t.Errorf("sig = %v", ctx.Sig)
		}
	})
	_ = p.Syscall(th, call(linuxabi.SysRtSigaction, uint64(linuxabi.SIGVTALRM), 0x5000_0000, 0))
	// 1 ms interval timer.
	if r := p.Syscall(th, call(linuxabi.SysSetitimer, linuxabi.ITimerVirtual, 1000, 1000)); !r.Ok() {
		t.Fatalf("setitimer: %v", r.Err)
	}
	if p.CheckTimer(0, th.Clock) {
		t.Error("timer fired immediately")
	}
	th.Clock.Advance(2_200_000 * 2) // 2 ms
	if !p.CheckTimer(0, th.Clock) {
		t.Error("expired timer did not fire")
	}
	if fired != 1 {
		t.Errorf("handler fired %d times", fired)
	}
	// Interval re-arms.
	th.Clock.Advance(2_200_000 * 2)
	if !p.CheckTimer(0, th.Clock) {
		t.Error("interval timer did not re-fire")
	}
	// Cancel.
	_ = p.Syscall(th, call(linuxabi.SysSetitimer, linuxabi.ITimerVirtual, 0, 0))
	th.Clock.Advance(22_000_000)
	if p.CheckTimer(0, th.Clock) {
		t.Error("cancelled timer fired")
	}
}

func TestGetrusage(t *testing.T) {
	_, p, th := newProc(t, Native)
	p.ChargeUser(2_200_000_0) // 10 ms user
	res := p.Syscall(th, call(linuxabi.SysGetrusage))
	ru, ok := linuxabi.DecodeRusage(res.Data)
	if !ok {
		t.Fatal("bad rusage")
	}
	if ru.UserTime.Usec+ru.UserTime.Sec*1_000_000 < 9000 {
		t.Errorf("user time = %+v", ru.UserTime)
	}
}

func TestVirtualWorldCostsMore(t *testing.T) {
	_, pn, tn := newProc(t, Native)
	_, pv, tv := newProc(t, Virtual)
	n0 := tn.Clock.Now()
	pn.Syscall(tn, call(linuxabi.SysGetpid))
	nativeCost := tn.Clock.Now() - n0
	v0 := tv.Clock.Now()
	pv.Syscall(tv, call(linuxabi.SysGetpid))
	virtCost := tv.Clock.Now() - v0
	if virtCost <= nativeCost {
		t.Errorf("virtual syscall (%d) not more expensive than native (%d)", virtCost, nativeCost)
	}
}

func TestVDSOFaster(t *testing.T) {
	_, p, th := newProc(t, Native)
	s0 := th.Clock.Now()
	p.Syscall(th, call(linuxabi.SysGetpid))
	full := th.Clock.Now() - s0
	v0 := th.Clock.Now()
	if _, errno := p.VDSO(th, linuxabi.SysGetpid); errno != linuxabi.OK {
		t.Fatal(errno)
	}
	vdso := th.Clock.Now() - v0
	if vdso >= full {
		t.Errorf("vdso (%d) not faster than syscall (%d)", vdso, full)
	}
	if _, errno := p.VDSO(th, linuxabi.SysRead); errno != linuxabi.ENOSYS {
		t.Error("vdso read should be ENOSYS")
	}
}

func TestThreadStartJoin(t *testing.T) {
	_, p, th := newProc(t, Native)
	child := p.NewThread(th.Core)
	ran := false
	child.Start(th.Clock, func(ct *Thread) {
		ct.Clock.Advance(5000)
		ran = true
		ct.Exit(9)
	})
	code := child.Join(th)
	if !ran {
		t.Error("child did not run")
	}
	if code != 9 {
		t.Errorf("exit code = %d", code)
	}
	if th.Clock.Now() < child.Clock.Now() {
		t.Error("joiner clock behind child")
	}
	if p.Stats().VoluntaryCS == 0 {
		t.Error("join did not count a voluntary switch")
	}
}

func TestCloneViaRegistry(t *testing.T) {
	_, p, th := newProc(t, Native)
	done := make(chan bool, 1)
	p.RegisterThreadFn(0x6000_0000, func(nt *Thread) { done <- true })
	res := p.Syscall(th, call(linuxabi.SysClone, 0x6000_0000))
	if !res.Ok() {
		t.Fatalf("clone: %v", res.Err)
	}
	<-done
	if res2 := p.Syscall(th, call(linuxabi.SysClone, 0xBAD)); res2.Ok() {
		t.Error("clone of unregistered fn should fail")
	}
}

func TestExitGroup(t *testing.T) {
	k, p, th := newProc(t, Native)
	p.Syscall(th, call(linuxabi.SysExitGroup, 3))
	exited, code := p.Exited()
	if !exited || code != 3 {
		t.Errorf("exit state = %v, %d", exited, code)
	}
	if _, ok := k.Process(p.Pid()); ok {
		t.Error("process not reaped")
	}
}

func TestUnimplementedSyscall(t *testing.T) {
	_, p, th := newProc(t, Native)
	if r := p.Syscall(th, call(linuxabi.SysExecve)); r.Err != linuxabi.ENOSYS {
		t.Errorf("execve: %v", r.Err)
	}
}

func TestSyscallAccounting(t *testing.T) {
	_, p, th := newProc(t, Native)
	for i := 0; i < 5; i++ {
		p.Syscall(th, call(linuxabi.SysGetpid))
	}
	st := p.Stats()
	if st.Syscalls[linuxabi.SysGetpid] != 5 {
		t.Errorf("getpid count = %d", st.Syscalls[linuxabi.SysGetpid])
	}
	if st.TotalSyscalls() != 5 {
		t.Errorf("total = %d", st.TotalSyscalls())
	}
	if st.SysCycles == 0 {
		t.Error("no system time accounted")
	}
}

func TestMaxRSSTracksPeak(t *testing.T) {
	_, p, th := newProc(t, Native)
	res := p.Syscall(th, call(linuxabi.SysMmap, 0, 10*4096,
		linuxabi.ProtRead|linuxabi.ProtWrite, linuxabi.MapPrivate|linuxabi.MapAnonymous))
	for off := uint64(0); off < 10*4096; off += 4096 {
		_ = p.Touch(th, res.Ret+off, true)
	}
	_ = p.Syscall(th, call(linuxabi.SysMunmap, res.Ret, 10*4096))
	st := p.Stats()
	if st.MaxRSSPages != 10 {
		t.Errorf("peak RSS = %d pages, want 10 (after unmap)", st.MaxRSSPages)
	}
	if st.MaxRSSKb() != 40 {
		t.Errorf("MaxRSSKb = %d", st.MaxRSSKb())
	}
}

// TestGenerationStamps pins which calls move which stamp: every
// successful mutating call restamps the state it changed, and nothing
// else moves a stamp — not the cacheable queries (stat, fstat, the
// lseek position query, brk(0)) and not a failed call.
func TestGenerationStamps(t *testing.T) {
	k, p, th := newProc(t, Native)
	if err := k.FS().WriteFile("/f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	type stamps struct{ fd, path, brk uint64 }
	var fd uint64
	read := func() stamps { return stamps{p.FDStamp(int(fd)), p.PathStamp("/f"), p.BrkStamp()} }
	withPath := func(c linuxabi.Call, path string) linuxabi.Call { c.Path = path; return c }
	withData := func(c linuxabi.Call, data string) linuxabi.Call { c.Data = []byte(data); return c }

	if s := p.PathStamp("/missing"); s != 0 {
		t.Errorf("missing path stamp = %d, want 0", s)
	}
	before := p.PathStamp("/f")
	res := p.Syscall(th, withPath(call(linuxabi.SysOpen, 0, linuxabi.ORdwr), "/f"))
	if !res.Ok() {
		t.Fatalf("open: %v", res.Err)
	}
	fd = res.Ret
	if s := read(); s.path == before || s.fd == 0 {
		t.Errorf("open: path stamp %d -> %d, fd stamp %d; want a new path stamp and a nonzero fd stamp", before, s.path, s.fd)
	}

	cur := p.Syscall(th, call(linuxabi.SysBrk)).Ret
	for _, tc := range []struct {
		name          string
		call          linuxabi.Call
		fd, path, brk bool
		wantErr       bool
	}{
		{name: "stat", call: withPath(call(linuxabi.SysStat), "/f")},
		{name: "fstat", call: call(linuxabi.SysFstat, fd)},
		{name: "lseek query", call: call(linuxabi.SysLseek, fd, 0, linuxabi.SeekCur)},
		{name: "brk query", call: call(linuxabi.SysBrk)},
		{name: "write", call: withData(call(linuxabi.SysWrite, fd, 0, 2), "xy"), fd: true, path: true},
		{name: "lseek", call: call(linuxabi.SysLseek, fd, 0, linuxabi.SeekSet), fd: true},
		{name: "read", call: call(linuxabi.SysRead, fd, 0, 2), fd: true},
		{name: "brk", call: call(linuxabi.SysBrk, cur+4096), brk: true},
		{name: "failed brk", call: call(linuxabi.SysBrk, 1), wantErr: true},
		{name: "failed lseek", call: call(linuxabi.SysLseek, fd, 0, 42), wantErr: true},
		{name: "stdout write", call: withData(call(linuxabi.SysWrite, 1, 0, 1), "x")},
	} {
		was := read()
		if res := p.Syscall(th, tc.call); res.Ok() == tc.wantErr {
			t.Fatalf("%s: err = %v, want failure %v", tc.name, res.Err, tc.wantErr)
		}
		now := read()
		if moved := now.fd != was.fd; moved != tc.fd {
			t.Errorf("%s: fd stamp moved = %v, want %v", tc.name, moved, tc.fd)
		}
		if moved := now.path != was.path; moved != tc.path {
			t.Errorf("%s: path stamp moved = %v, want %v", tc.name, moved, tc.path)
		}
		if moved := now.brk != was.brk; moved != tc.brk {
			t.Errorf("%s: brk stamp moved = %v, want %v", tc.name, moved, tc.brk)
		}
	}

	if res := p.Syscall(th, call(linuxabi.SysClose, fd)); !res.Ok() {
		t.Fatalf("close: %v", res.Err)
	}
	if s := p.FDStamp(int(fd)); s != 0 {
		t.Errorf("closed fd stamp = %d, want 0", s)
	}
}
