package bench

import (
	"fmt"
	"sort"

	"multiverse/internal/aerokernel"
	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/hvm"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/telemetry"
)

// latencyHistogramNotes appends one note per recorded boundary-latency
// histogram so the figure carries a distribution, not just a mean —
// future performance work has a trajectory to compare against.
func latencyHistogramNotes(t *Table, reg *telemetry.Registry, names ...string) {
	for _, name := range names {
		latencyNote(t, name, summarize(reg.FindHistogram(name), noteQuantiles))
	}
}

// noteQuantiles are the quantiles a latency note prints.
var noteQuantiles = []string{"p50", "p90", "p99"}

// latencyNote appends the latency note of histogram name, unless it
// recorded nothing.
func latencyNote(t *Table, name string, h Hist) {
	if h.Count == 0 {
		return
	}
	t.AddNote("latency %s: n=%d mean=%d p50=%d p90=%d p99=%d cycles",
		name, h.Count, h.Sum/h.Count, h.Quantiles["p50"], h.Quantiles["p90"], h.Quantiles["p99"])
}

// Repetitions behind the averaged latency tables: the paper averages 10
// runs, and the symbol-cache ablation averages 50.
const (
	latencyRuns     = 10
	symbolCacheRuns = 50
)

// avgCycles averages a measured callback over runs, using the clock delta
// around each call.
func avgCycles(clk *cycles.Clock, runs int, fn func()) cycles.Cycles {
	var total cycles.Cycles
	for i := 0; i < runs; i++ {
		start := clk.Now()
		fn()
		total += clk.Now() - start
	}
	return total / cycles.Cycles(runs)
}

// newHybrid builds an initialized hybrid system with the HRT on hrtCore.
func newHybrid(name string, hrtCore machine.CoreID) (*core.System, error) {
	fs, err := provisionFS(nil)
	if err != nil {
		return nil, err
	}
	return NewSystemForWorld(core.WorldHRT, core.Options{
		FS: fs, AppName: name, HRTCores: []machine.CoreID{hrtCore},
	})
}

// syncCallCycles averages the round trip of the section 4.3 synchronous
// memory-polling channel between the ROS boot core and hrtCore over runs
// empty calls. The figure's call runs from the ROS to an HRT poller, the
// reverse of a forwarded system call, so the channel is opened with the
// ends swapped: the caller's spans land on the boot core and the
// poller's on hrtCore. The cacheline cost depends only on whether the
// two share a socket.
func syncCallCycles(sys *core.System, hrtCore machine.CoreID, runs int) (cycles.Cycles, error) {
	clk := sys.Main.Clock
	p, err := sys.HVM.OpenPolled(clk, hrtCore, sys.Kernel.BootCore(), hvm.Poller{
		Clock: cycles.NewClock(clk.Now()),
		Serve: func(linuxabi.Call) linuxabi.Result { return linuxabi.Result{} },
	})
	if err != nil {
		return 0, err
	}
	defer sys.HVM.ClosePolled(clk, p)
	var call linuxabi.Call
	return avgCycles(clk, runs, func() {
		if _, ierr := p.Invoke(clk, call, 0); ierr != nil {
			panic(ierr)
		}
	}), nil
}

// checkFigure2Order holds Figure 2's load-bearing ordering: a same-socket
// synchronous call is cheaper than a cross-socket one, which is cheaper
// than an asynchronous call, which is cheaper than a merger.
func checkFigure2Order(merger, async, syncCross, syncSame cycles.Cycles) error {
	if syncSame < syncCross && syncCross < async && async < merger {
		return nil
	}
	return fmt.Errorf("bench: Figure 2 wants sync same-socket < sync cross-socket < async < merger, got %d / %d / %d / %d cycles",
		uint64(syncSame), uint64(syncCross), uint64(async), uint64(merger))
}

// Figure 2 runs the ROS on core 0 (socket 0); the same-socket HRT core
// shares its socket, the cross-socket one is on the other socket.
const fig2SameSocketCore, fig2CrossSocketCore = machine.CoreID(1), machine.CoreID(4)

// fig2Latencies is Figure 2's four averaged round trips.
type fig2Latencies struct {
	merger, async, syncCross, syncSame cycles.Cycles
}

// measureFig2 averages each of Figure 2's round trips over runs on sys, a
// hybrid system whose HRT is on fig2SameSocketCore.
func measureFig2(sys *core.System, runs int) (fig2Latencies, error) {
	var l fig2Latencies
	clk := sys.Main.Clock
	l.merger = avgCycles(clk, runs, func() {
		if merr := sys.HVM.MergeAddressSpace(clk, sys.Proc.CR3()); merr != nil {
			panic(merr)
		}
	})

	noopAddr := sys.AK.RegisterFunc("fig2_noop",
		func(t *aerokernel.Thread, args []uint64) uint64 { return 0 })
	l.async = avgCycles(clk, runs, func() {
		if _, aerr := sys.HVM.AsyncCall(clk, noopAddr); aerr != nil {
			panic(aerr)
		}
	})

	var err error
	if l.syncSame, err = syncCallCycles(sys, fig2SameSocketCore, runs); err != nil {
		return l, err
	}
	l.syncCross, err = syncCallCycles(sys, fig2CrossSocketCore, runs)
	return l, err
}

// Figure2 regenerates the round-trip latency table of ROS<->HRT
// interactions: address-space merger, asynchronous call, and synchronous
// calls on the same and on different sockets. The paper measured ~33 K,
// ~25 K, ~790, and ~1060 cycles respectively.
func Figure2() (*Table, error) {
	sys, err := newHybrid("fig2", fig2SameSocketCore)
	if err != nil {
		return nil, err
	}
	l, err := measureFig2(sys, latencyRuns)
	if err != nil {
		return nil, err
	}
	if err := checkFigure2Order(l.merger, l.async, l.syncCross, l.syncSame); err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "Figure 2: Round-trip latencies of ROS<->HRT interactions",
		Header: []string{"Item", "Cycles", "Time"},
	}
	row := func(name string, c cycles.Cycles) {
		t.AddRow(name, fmt.Sprintf("~%d", uint64(c)), fmt.Sprintf("%.1f ns", c.Nanoseconds()))
	}
	row("Address Space Merger", l.merger)
	row("Asynchronous Call", l.async)
	row("Synchronous Call (different socket)", l.syncCross)
	row("Synchronous Call (same socket)", l.syncSame)
	t.AddNote("paper: ~33K / ~25K / ~1060 / ~790 cycles")
	latencyHistogramNotes(t, sys.Metrics(),
		"hvm.merge_request.latency", "hvm.async_call.latency", "sync.syscall.latency")
	return t, nil
}

// fig9Calls lists the nine system calls of Figure 9 in the paper's order.
var fig9Calls = []string{
	"getpid", "gettimeofday", "fwrite", "stat", "read", "getcwd", "open", "close", "mmap",
}

// payloadMB is the buffer size for fwrite/read/mmap in Figure 9.
const payloadMB = 1 << 20

// measureFig9 measures each call's latency in one environment.
func measureFig9(env core.Env, runs int) (map[string]cycles.Cycles, error) {
	clk := env.Clock()
	out := make(map[string]cycles.Cycles, len(fig9Calls))

	// Provision: a 1 MiB source file and an output file, plus a touched
	// 1 MiB user buffer so steady-state measurements don't fold initial
	// demand paging in.
	mres := env.Syscall(linuxabi.Call{
		Num:  linuxabi.SysMmap,
		Args: [6]uint64{0, payloadMB, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous},
	})
	if !mres.Ok() {
		return nil, fmt.Errorf("fig9: buffer mmap: %v", mres.Err)
	}
	buf := mres.Ret
	for off := uint64(0); off < payloadMB; off += 4096 {
		if err := env.Touch(buf+off, true); err != nil {
			return nil, err
		}
	}
	payload := make([]byte, payloadMB)
	ofd := env.Syscall(linuxabi.Call{Num: linuxabi.SysOpen, Path: "/fig9/out.dat", Args: [6]uint64{0, linuxabi.OCreat | linuxabi.OWronly}})
	if !ofd.Ok() {
		return nil, fmt.Errorf("fig9: open out: %v", ofd.Err)
	}
	ifd := env.Syscall(linuxabi.Call{Num: linuxabi.SysOpen, Path: "/fig9/in.dat", Args: [6]uint64{0, linuxabi.ORdonly}})
	if !ifd.Ok() {
		return nil, fmt.Errorf("fig9: open in: %v", ifd.Err)
	}

	out["getpid"] = avgCycles(clk, runs, func() { _, _ = env.VDSO(linuxabi.SysGetpid) })
	out["gettimeofday"] = avgCycles(clk, runs, func() { _, _ = env.VDSO(linuxabi.SysGettimeofday) })
	out["fwrite"] = avgCycles(clk, runs, func() {
		env.Syscall(linuxabi.Call{Num: linuxabi.SysWrite, Args: [6]uint64{ofd.Ret, buf, payloadMB}, Data: payload})
	})
	out["stat"] = avgCycles(clk, runs, func() {
		env.Syscall(linuxabi.Call{Num: linuxabi.SysStat, Path: "/fig9/in.dat"})
	})
	out["read"] = avgCycles(clk, runs, func() {
		env.Syscall(linuxabi.Call{Num: linuxabi.SysLseek, Args: [6]uint64{ifd.Ret, 0, 0}})
		env.Syscall(linuxabi.Call{Num: linuxabi.SysRead, Args: [6]uint64{ifd.Ret, buf, payloadMB}})
	})
	out["getcwd"] = avgCycles(clk, runs, func() {
		env.Syscall(linuxabi.Call{Num: linuxabi.SysGetcwd})
	})
	out["open"] = avgCycles(clk, runs, func() {
		r := env.Syscall(linuxabi.Call{Num: linuxabi.SysOpen, Path: "/fig9/in.dat", Args: [6]uint64{0, linuxabi.ORdonly}})
		if r.Ok() {
			env.Syscall(linuxabi.Call{Num: linuxabi.SysClose, Args: [6]uint64{r.Ret}})
		}
	})
	// close is timed alone: the paired open happens outside the window.
	var closeTotal cycles.Cycles
	for i := 0; i < runs; i++ {
		r := env.Syscall(linuxabi.Call{Num: linuxabi.SysOpen, Path: "/fig9/in.dat", Args: [6]uint64{0, linuxabi.ORdonly}})
		start := clk.Now()
		env.Syscall(linuxabi.Call{Num: linuxabi.SysClose, Args: [6]uint64{r.Ret}})
		closeTotal += clk.Now() - start
	}
	out["close"] = closeTotal / cycles.Cycles(runs)
	out["mmap"] = avgCycles(clk, runs, func() {
		r := env.Syscall(linuxabi.Call{
			Num:  linuxabi.SysMmap,
			Args: [6]uint64{0, payloadMB, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous},
		})
		if r.Ok() {
			env.Syscall(linuxabi.Call{Num: linuxabi.SysMunmap, Args: [6]uint64{r.Ret, payloadMB}})
		}
	})
	return out, nil
}

// fig9World measures Figure 9's calls in one world, WorldVirtual or
// WorldHRT (from inside an HRT thread), averaging runs of each; it also
// returns the system the calls ran on.
func fig9World(world core.World, runs int) (map[string]cycles.Cycles, *core.System, error) {
	fs, err := provisionFS(nil)
	if err != nil {
		return nil, nil, err
	}
	opts := core.Options{FS: fs, AppName: "fig9v"}
	if world == core.WorldHRT {
		opts.AppName, opts.HRTCores = "fig9m", []machine.CoreID{1}
	}
	sys, err := NewSystemForWorld(world, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := fs.MkdirAll("/fig9"); err != nil {
		return nil, nil, err
	}
	if err := fs.WriteFile("/fig9/in.dat", make([]byte, payloadMB)); err != nil {
		return nil, nil, err
	}
	if world != core.WorldHRT {
		lat, err := measureFig9(sys.NativeEnv(), runs)
		return lat, sys, err
	}
	var lat map[string]cycles.Cycles
	var mErr error
	if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
		lat, mErr = measureFig9(env, runs)
		return 0
	}); err != nil {
		return nil, nil, err
	}
	return lat, sys, mErr
}

// Figure9 regenerates the system-call latency comparison, Virtual vs.
// Multiverse, for the nine calls (1 MiB payloads where applicable).
func Figure9() (*Table, error) {
	virt, _, err := fig9World(core.WorldVirtual, latencyRuns)
	if err != nil {
		return nil, err
	}
	mv, sysM, err := fig9World(core.WorldHRT, latencyRuns)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "Figure 9: System call latency (cycles), Virtual vs. Multiverse (1 MiB payloads)",
		Header: []string{"Call", "Virtual", "Multiverse", "Ratio"},
	}
	for _, name := range fig9Calls {
		v, m := virt[name], mv[name]
		ratio := float64(m) / float64(v)
		t.AddRow(name, fmt.Sprintf("%d", uint64(v)), fmt.Sprintf("%d", uint64(m)), fmt.Sprintf("%.2fx", ratio))
	}
	t.AddNote("vdso calls (getpid, gettimeofday) run slightly faster under Multiverse (sparse HRT TLB)")
	t.AddNote("forwarded calls pay the ~25K-cycle event-channel round trip; copy-dominated 1 MiB calls amortize it")
	latencyHistogramNotes(t, sysM.Metrics(),
		"forward.syscall.latency", "forward.page-fault.latency", "sync.syscall.latency")
	return t, nil
}

// Figure10 regenerates the per-benchmark system-utilization table.
func Figure10() (*Table, error) {
	t := &Table{
		Title: "Figure 10: System utilization for Racket-stand-in benchmarks (Native)",
		Header: []string{
			"Benchmark", "System Calls", "Time (User/Sys) (s)",
			"Max Resident Set (Kb)", "Page Faults", "Context Switches",
		},
	}
	for _, p := range Programs() {
		res, err := RunBenchmark(p, core.WorldNative, core.Options{}, false)
		if err != nil {
			return nil, err
		}
		st := res.Stats
		t.AddRow(
			p.Name,
			fmt.Sprintf("%d", st.TotalSyscalls()),
			fmt.Sprintf("%.3f/%.3f", st.UserCycles.Seconds(), st.SysCycles.Seconds()),
			fmt.Sprintf("%d", st.MaxRSSKb()),
			fmt.Sprintf("%d", st.MinorFaults+st.MajorFaults),
			fmt.Sprintf("%d", st.VoluntaryCS+st.InvoluntaryCS),
		)
	}
	t.AddNote("problem sizes scaled down from the paper's; relative profiles are the target")
	return t, nil
}

// Figure11 regenerates the syscall breakdown of runtime startup with no
// benchmark (heap creation dominates).
func Figure11() (*Table, error) {
	res, err := RunStartup(core.WorldNative)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 11: System calls in the runtime without any benchmark (startup)",
		Header: []string{"Call", "Count"},
	}
	sortedSyscallRows(t, res.Stats.Syscalls)
	return t, nil
}

// Figure12 regenerates the syscall breakdown for binary-tree-2 (GC-driven
// mmap/munmap/mprotect and signal traffic).
func Figure12() (*Table, error) {
	p, _ := ProgramByName("binary-tree-2")
	res, err := RunBenchmark(p, core.WorldNative, core.Options{}, false)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 12: System calls for a run of binary-tree-2",
		Header: []string{"Call", "Count"},
	}
	sortedSyscallRows(t, res.Stats.Syscalls)
	t.AddNote("rt_sigreturn counts signal-handler returns: %d barrier faults, %d timer ticks",
		res.BarrierFaults, res.TimerFires)
	return t, nil
}

// checkWorldOrder holds Figure 13's expected shape for one benchmark:
// Native <= Virtual <= Multiverse, and Native <= Multiverse + router <=
// Multiverse.
func checkWorldOrder(program string, native, virt, mv, routed cycles.Cycles) error {
	if native > virt || virt > mv {
		return fmt.Errorf("bench: Figure 13 wants Native <= Virtual <= Multiverse on %s, got %d / %d / %d cycles",
			program, uint64(native), uint64(virt), uint64(mv))
	}
	if native > routed || routed > mv {
		return fmt.Errorf("bench: Figure 13 wants Native <= Multiverse + router <= Multiverse on %s, got %d / %d / %d cycles",
			program, uint64(native), uint64(routed), uint64(mv))
	}
	return nil
}

// Figure13 regenerates the end-to-end benchmark comparison across the
// three worlds, plus the Multiverse world with the router on. Both
// Multiverse columns are read from the pinned WorldHRT sweep.
func Figure13() (*Table, error) {
	t := &Table{
		Title:  "Figure 13: Benchmark runtime (virtual seconds), Native vs Virtual vs Multiverse",
		Header: []string{"Benchmark", "Native", "Virtual", "Multiverse", "Multiverse + router", "MV/Native", "Fwd Syscalls", "Fwd Faults"},
	}
	sweep, err := CollectSweepBaseline()
	if err != nil {
		return nil, err
	}
	for _, p := range Programs() {
		var runs [2]*RunResult
		for i, w := range []core.World{core.WorldNative, core.WorldVirtual} {
			res, err := RunBenchmark(p, w, core.Options{}, false)
			if err != nil {
				return nil, err
			}
			runs[i] = res
		}
		native, virt := runs[0], runs[1]
		off, on := sweep.find(p.Name, "off"), sweep.find(p.Name, "router")
		mv, routed := cycles.Cycles(off.Cycles), cycles.Cycles(on.Cycles)
		if err := checkWorldOrder(p.Name, native.Cycles, virt.Cycles, mv, routed); err != nil {
			return nil, err
		}
		t.AddRow(
			p.Name,
			fmt.Sprintf("%.4f", native.Seconds),
			fmt.Sprintf("%.4f", virt.Seconds),
			fmt.Sprintf("%.4f", mv.Seconds()),
			fmt.Sprintf("%.4f", routed.Seconds()),
			fmt.Sprintf("%.2fx", mv.Seconds()/native.Seconds),
			fmt.Sprintf("%d", off.Counters["ak.forwarded_syscalls"]),
			fmt.Sprintf("%d", off.Counters["ak.forwarded_faults"]),
		)
	}
	t.AddNote("expected shape: Native <= Virtual <= Multiverse; overhead tracks forwarded interactions")
	t.AddNote("Multiverse + router: forwarded syscalls and page faults ride the router's polled rungs once promoted")
	return t, nil
}

// sortedSyscallRows renders a syscall histogram sorted by count desc.
func sortedSyscallRows(t *Table, counts map[linuxabi.Sysno]uint64) {
	type kv struct {
		num linuxabi.Sysno
		n   uint64
	}
	var rows []kv
	for num, n := range counts {
		rows = append(rows, kv{num, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].num < rows[j].num
	})
	for _, r := range rows {
		t.AddRow(r.num.String(), fmt.Sprintf("%d", r.n))
	}
}
