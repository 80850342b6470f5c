package bench

import (
	"fmt"

	"multiverse/internal/aerokernel"
	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/hvm"
	"multiverse/internal/linuxabi"
	"multiverse/internal/ros"
)

// PrimitivesTable compares the Nautilus kernel primitives against their
// Linux equivalents — the section 2 claim that AeroKernel thread creation
// and events "outperform Linux by orders of magnitude" because there are
// no kernel/user boundaries to cross.
func PrimitivesTable() (*Table, error) {
	sys, err := newHybrid("primitives", 1)
	if err != nil {
		return nil, err
	}

	// ROS side: thread create+join and a futex-style wakeup.
	rosClk := sys.Main.Clock
	rosCreate := avgCycles(rosClk, latencyRuns, func() {
		t := sys.Proc.NewThread(sys.Kernel.BootCore())
		t.Start(rosClk, func(*ros.Thread) {})
		t.Join(sys.Main)
	})
	rosEvent := avgCycles(rosClk, latencyRuns, func() {
		sys.Proc.Syscall(sys.Main, linuxabi.Call{Num: linuxabi.SysFutex})
	})

	// AK side: measured from an HRT thread.
	var akCreate, akEvent cycles.Cycles
	if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
		clk := env.Clock()
		ak := sys.AK
		hrtCore := sys.Opts.HRTCores[0]
		akCreate = avgCycles(clk, latencyRuns, func() {
			t := ak.CreateThread(clk, hrtCore, aerokernel.Superposition{}, nil, nil)
			t.Start(func(*aerokernel.Thread) uint64 { return 0 })
			t.Join(clk)
		})
		ev := ak.NewEvent()
		self := hrtThreadOf(env)
		akEvent = avgCycles(clk, latencyRuns, func() {
			// Signal with no waiters models the uncontended wakeup the
			// Linux futex row also measures.
			ev.Signal(self)
		})
		return 0
	}); err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "Nautilus primitives vs Linux equivalents (cycles, avg)",
		Header: []string{"Primitive", "Linux (ROS)", "AeroKernel (HRT)", "Speedup"},
	}
	t.AddRow("thread create+join",
		fmt.Sprintf("%d", uint64(rosCreate)),
		fmt.Sprintf("%d", uint64(akCreate)),
		fmt.Sprintf("%.0fx", float64(rosCreate)/float64(akCreate)))
	t.AddRow("event wakeup",
		fmt.Sprintf("%d", uint64(rosEvent)),
		fmt.Sprintf("%d", uint64(akEvent)),
		fmt.Sprintf("%.0fx", float64(rosEvent)/float64(akEvent)))
	t.AddNote("section 2: Nautilus primitives outperform Linux by orders of magnitude")
	return t, nil
}

// AblationSymbolCache measures the override wrapper with and without the
// symbol cache the paper suggests ("a symbol cache, much like that used in
// the ELF standard, could easily be added to improve lookup times").
func AblationSymbolCache() (*Table, error) {
	measure := func(useCache bool) (cycles.Cycles, error) {
		sys, err := newHybrid("ablate-symcache", 1)
		if err != nil {
			return 0, err
		}
		specs := []core.OverrideSpec{{Legacy: "sched_yield", AKSymbol: "nk_sched_yield"}}
		ovr := core.NewOverrideSet(specs, useCache)
		w, _ := ovr.Lookup("sched_yield")

		var per cycles.Cycles
		if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
			clk := env.Clock()
			t := hrtThreadOf(env)
			// Warm once so the cached variant is steady-state.
			if _, ierr := w.Invoke(t); ierr != nil {
				panic(ierr)
			}
			per = avgCycles(clk, symbolCacheRuns, func() {
				if _, ierr := w.Invoke(t); ierr != nil {
					panic(ierr)
				}
			})
			return 0
		}); err != nil {
			return 0, err
		}
		return per, nil
	}
	uncached, err := measure(false)
	if err != nil {
		return nil, err
	}
	cached, err := measure(true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: override symbol lookup, per-invocation vs cached",
		Header: []string{"Variant", "Cycles/invocation"},
	}
	t.AddRow("lookup every invocation (paper's implementation)", fmt.Sprintf("%d", uint64(uncached)))
	t.AddRow("symbol cache", fmt.Sprintf("%d", uint64(cached)))
	t.AddNote("lookup cost scales with the AeroKernel symbol table; the cache removes it after the first call")
	return t, nil
}

// hrtThreadOf digs the AK thread out of an HRT env (bench-only helper).
func hrtThreadOf(env core.Env) *aerokernel.Thread {
	type hrtCarrier interface{ HRTThreadForBench() *aerokernel.Thread }
	if c, ok := env.(hrtCarrier); ok {
		return c.HRTThreadForBench()
	}
	panic("bench: env is not an HRT env")
}

// AblationRemerge compares the paper's duplicate-fault re-merge heuristic
// against eagerly re-merging on every forwarded fault, over a synthetic
// fault-heavy workload.
func AblationRemerge() (*Table, error) {
	run := func(eager bool) (cycles.Cycles, int, uint64, error) {
		sys, err := newHybrid("ablate-remerge", 1)
		if err != nil {
			return 0, 0, 0, err
		}
		sys.AK.SetEagerRemerge(eager)
		start := sys.Main.Clock.Now()
		if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
			res := env.Syscall(linuxabi.Call{
				Num:  linuxabi.SysMmap,
				Args: [6]uint64{0, 256 * 4096, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous},
			})
			for off := uint64(0); off < 256*4096; off += 4096 {
				if terr := env.Touch(res.Ret+off, true); terr != nil {
					panic(terr)
				}
			}
			return 0
		}); err != nil {
			return 0, 0, 0, err
		}
		return sys.Main.Clock.Now() - start, sys.AK.RemergeCount(), sys.AK.ForwardedFaults(), nil
	}
	lazyC, lazyR, lazyF, err := run(false)
	if err != nil {
		return nil, err
	}
	eagerC, eagerR, eagerF, err := run(true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: PML4 re-merge policy over a 256-page fault storm",
		Header: []string{"Policy", "Cycles", "Re-merges", "Forwarded faults"},
	}
	t.AddRow("duplicate-fault detection (paper)", fmt.Sprintf("%d", uint64(lazyC)), fmt.Sprintf("%d", lazyR), fmt.Sprintf("%d", lazyF))
	t.AddRow("eager re-merge per fault", fmt.Sprintf("%d", uint64(eagerC)), fmt.Sprintf("%d", eagerR), fmt.Sprintf("%d", eagerF))
	t.AddNote("re-merge copies %d PML4 entries; off the critical path under the paper's heuristic", 256)
	return t, nil
}

// AblationPinning compares touching a fresh region from the HRT (every
// page faults and forwards) against the paper's suggested alternative of
// pinning: the ROS side pre-faults the pages before the HRT uses them
// ("the runtime can pin memory before merging the address spaces").
func AblationPinning() (*Table, error) {
	const pages = 256
	run := func(pin bool) (cycles.Cycles, uint64, error) {
		sys, err := newHybrid("ablate-pinning", 1)
		if err != nil {
			return 0, 0, err
		}
		// The ROS side maps the region (and optionally pre-faults it).
		res := sys.Proc.Syscall(sys.Main, linuxabi.Call{
			Num:  linuxabi.SysMmap,
			Args: [6]uint64{0, pages * 4096, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous},
		})
		if !res.Ok() {
			return 0, 0, fmt.Errorf("mmap: %v", res.Err)
		}
		if pin {
			for off := uint64(0); off < pages*4096; off += 4096 {
				if errno := sys.Proc.Touch(sys.Main, res.Ret+off, true); errno != linuxabi.OK {
					return 0, 0, fmt.Errorf("pin touch: %v", errno)
				}
			}
		}
		var hrtCycles cycles.Cycles
		if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
			clk := env.Clock()
			start := clk.Now()
			for off := uint64(0); off < pages*4096; off += 4096 {
				if terr := env.Touch(res.Ret+off, true); terr != nil {
					panic(terr)
				}
			}
			hrtCycles = clk.Now() - start
			return 0
		}); err != nil {
			return 0, 0, err
		}
		return hrtCycles, sys.AK.ForwardedFaults(), nil
	}
	unpinnedC, unpinnedF, err := run(false)
	if err != nil {
		return nil, err
	}
	pinnedC, pinnedF, err := run(true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: lower-half memory pinning vs fault forwarding (256-page region)",
		Header: []string{"Policy", "HRT cycles", "Forwarded faults"},
	}
	t.AddRow("demand faulting (forwarded)", fmt.Sprintf("%d", uint64(unpinnedC)), fmt.Sprintf("%d", unpinnedF))
	t.AddRow("ROS pre-pins pages", fmt.Sprintf("%d", uint64(pinnedC)), fmt.Sprintf("%d", pinnedF))
	t.AddNote("pinning removes the forwarded-fault round trips entirely (section 4.4)")
	return t, nil
}

// AblationSyncSyscalls compares syscall forwarding over the asynchronous
// event channel (the paper's implementation) against the post-merger
// synchronous memory-polling path with a dedicated ROS polling thread —
// section 4.3's "simple memory-based protocol ... without VMM
// intervention" applied to the syscall hot path. The router is the only
// route to that channel: with PromoteCalls 1 its first forward promotes
// the group. Both rows time ioctl, the router figure's tier-2 probe, which
// no router tier answers locally.
func AblationSyncSyscalls() (*Table, error) {
	measure := func(opts core.Options) (cycles.Cycles, error) {
		fs, err := provisionFS(nil)
		if err != nil {
			return 0, err
		}
		opts.FS, opts.AppName = fs, "ablate-syncsys"
		sys, err := NewSystemForWorld(core.WorldHRT, opts)
		if err != nil {
			return 0, err
		}
		var per cycles.Cycles
		if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
			clk := env.Clock()
			env.Syscall(linuxabi.Call{Num: linuxabi.SysIoctl}) // warm (and promote)
			per = avgCycles(clk, latencyRuns, func() {
				env.Syscall(linuxabi.Call{Num: linuxabi.SysIoctl})
			})
			return 0
		}); err != nil {
			return 0, err
		}
		return per, nil
	}
	async, err := measure(core.Options{})
	if err != nil {
		return nil, err
	}
	syncd, err := measure(core.Options{Router: true, RouterPolicy: hvm.RouterPolicy{PromoteCalls: 1}})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: syscall forwarding path (ioctl round trip from the HRT)",
		Header: []string{"Path", "Cycles/call"},
	}
	t.AddRow("asynchronous event channel (paper)", fmt.Sprintf("%d", uint64(async)))
	t.AddRow("synchronous polling partner", fmt.Sprintf("%d", uint64(syncd)))
	t.AddNote("the sync path is a router promotion; it burns a dedicated ROS polling thread per group (section 4.3)")
	return t, nil
}

// channelKindCycles averages an HRT function invocation over runs calls
// through each channel kind on sys: the asynchronous hypercall-and-
// injection channel, and the synchronous polled channel to sys's HRT
// core.
func channelKindCycles(sys *core.System, runs int) (async, sync cycles.Cycles, err error) {
	clk := sys.Main.Clock
	noopAddr := sys.AK.RegisterFunc("ablate_noop",
		func(t *aerokernel.Thread, args []uint64) uint64 { return args[0] })
	async = avgCycles(clk, runs, func() {
		if _, aerr := sys.HVM.AsyncCall(clk, noopAddr, 7); aerr != nil {
			panic(aerr)
		}
	})
	sync, err = syncCallCycles(sys, sys.Opts.HRTCores[0], runs, 7)
	return async, sync, err
}

// AblationChannelKind compares invoking an HRT function via the
// asynchronous (hypercall + injection) path against the post-merger
// synchronous memory-polling channel.
func AblationChannelKind() (*Table, error) {
	sys, err := newHybrid("ablate-channel", 1)
	if err != nil {
		return nil, err
	}
	async, sync, err := channelKindCycles(sys, latencyRuns)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "Ablation: function invocation channel kind (same socket)",
		Header: []string{"Channel", "Cycles/call"},
	}
	t.AddRow("asynchronous (hypercall + injection)", fmt.Sprintf("%d", uint64(async)))
	t.AddRow("synchronous (memory polling)", fmt.Sprintf("%d", uint64(sync)))
	t.AddNote("the sync channel needs a dedicated polling HRT core but no VMM involvement per call")
	return t, nil
}
