// Package multiverse_test holds the repository-level benchmark harness:
// one testing.B benchmark per table and figure in the paper's evaluation,
// plus the ablation benches DESIGN.md calls out.
//
// Simulated latencies are reported as "vcycles" (virtual cycles at the
// simulated 2.2 GHz) via b.ReportMetric; Go-level ns/op measures the
// simulator itself, not the modelled system.
//
// Run: go test -bench=. -benchmem
package multiverse_test

import (
	"fmt"
	"testing"

	"multiverse/internal/aerokernel"
	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/hvm"
	"multiverse/internal/legion"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/ros"
	"multiverse/internal/scheme"
	"multiverse/internal/telemetry"
	"multiverse/internal/vfs"
)

// newHybrid builds an initialized hybrid system for microbenchmarks.
func newHybrid(b *testing.B, hrtCore machine.CoreID) *core.System {
	b.Helper()
	sys, err := newHybridOpts(hrtCore, nil)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func newHybridOpts(hrtCore machine.CoreID, tracer *telemetry.Tracer) (*core.System, error) {
	fat, err := core.Build(core.BuildInput{
		App:        core.NewAppImage("bench"),
		AeroKernel: core.NewAeroKernelImage(),
	})
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(fat, core.Options{
		Hybrid:   true,
		AppName:  "bench",
		HRTCores: []machine.CoreID{hrtCore},
		Tracer:   tracer,
	})
	if err != nil {
		return nil, err
	}
	if err := sys.InitRuntime(); err != nil {
		return nil, err
	}
	return sys, nil
}

// TestFig2TelemetryInvariance pins the telemetry layer's core contract:
// recording spans and metrics never advances a virtual clock, so every
// Figure 2 latency is identical — not merely close — with tracing on.
func TestFig2TelemetryInvariance(t *testing.T) {
	measure := func(tracer *telemetry.Tracer) map[string]cycles.Cycles {
		sys, err := newHybridOpts(1, tracer)
		if err != nil {
			t.Fatal(err)
		}
		clk := sys.Main.Clock
		out := make(map[string]cycles.Cycles)

		start := clk.Now()
		if err := sys.HVM.MergeAddressSpace(clk, sys.Proc.CR3()); err != nil {
			t.Fatal(err)
		}
		out["merger"] = clk.Now() - start

		noop := sys.AK.RegisterFunc("inv_noop", func(*aerokernel.Thread, []uint64) uint64 { return 0 })
		start = clk.Now()
		if _, err := sys.HVM.AsyncCall(clk, noop); err != nil {
			t.Fatal(err)
		}
		out["async"] = clk.Now() - start

		p, err := openSyncEcho(sys, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		start = clk.Now()
		if _, _, err := p.Invoke(clk, linuxabi.Call{}, 0); err != nil {
			t.Fatal(err)
		}
		out["sync"] = clk.Now() - start
		return out
	}

	off := measure(nil)
	on := measure(telemetry.New())
	for name, want := range off {
		if got := on[name]; got != want {
			t.Errorf("%s latency changed with tracing on: %d vs %d cycles (delta %d)",
				name, got, want, int64(got)-int64(want))
		}
	}
}

func reportVCycles(b *testing.B, total cycles.Cycles) {
	b.ReportMetric(float64(total)/float64(b.N), "vcycles/op")
}

// ---- Figure 2: ROS<->HRT round-trip latencies ---------------------------

func BenchmarkFig2_AddressSpaceMerger(b *testing.B) {
	sys := newHybrid(b, 1)
	clk := sys.Main.Clock
	start := clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.HVM.MergeAddressSpace(clk, sys.Proc.CR3()); err != nil {
			b.Fatal(err)
		}
	}
	reportVCycles(b, clk.Now()-start)
}

func BenchmarkFig2_AsynchronousCall(b *testing.B) {
	sys := newHybrid(b, 1)
	clk := sys.Main.Clock
	noop := sys.AK.RegisterFunc("bench_noop", func(*aerokernel.Thread, []uint64) uint64 { return 0 })
	start := clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.HVM.AsyncCall(clk, noop); err != nil {
			b.Fatal(err)
		}
	}
	reportVCycles(b, clk.Now()-start)
}

// openSyncEcho opens the section 4.3 synchronous channel between the ROS
// boot core and an HRT poller on hrtCore, answering every call with 0. As
// in Figure 2 the ends are swapped, since the call runs from the ROS to
// the HRT. Close the channel to stop the poller.
func openSyncEcho(sys *core.System, hrtCore machine.CoreID) (*hvm.PolledChannel, error) {
	clk := sys.Main.Clock
	p, err := sys.HVM.OpenPolled(clk, hvm.PollSync, hrtCore, sys.Kernel.BootCore())
	if err != nil {
		return nil, err
	}
	pollClk := cycles.NewClock(clk.Now())
	go func() {
		for p.Serve(pollClk, func(linuxabi.Call) linuxabi.Result { return linuxabi.Result{} }) {
		}
	}()
	return p, nil
}

func benchSyncCall(b *testing.B, hrtCore machine.CoreID) {
	sys := newHybrid(b, hrtCore)
	clk := sys.Main.Clock
	p, err := openSyncEcho(sys, hrtCore)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	start := clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Invoke(clk, linuxabi.Call{}, 0); err != nil {
			b.Fatal(err)
		}
	}
	reportVCycles(b, clk.Now()-start)
}

func BenchmarkFig2_SynchronousCallSameSocket(b *testing.B)  { benchSyncCall(b, 1) }
func BenchmarkFig2_SynchronousCallCrossSocket(b *testing.B) { benchSyncCall(b, 4) }

// ---- Figure 9: system call latency, Virtual vs Multiverse ---------------

// fig9Op issues one instance of the named call against env.
func fig9Op(b *testing.B, env core.Env, name string, fd uint64, buf uint64, payload []byte) {
	switch name {
	case "getpid":
		env.VDSO(linuxabi.SysGetpid)
	case "gettimeofday":
		env.VDSO(linuxabi.SysGettimeofday)
	case "fwrite":
		env.Syscall(linuxabi.Call{Num: linuxabi.SysWrite, Args: [6]uint64{fd, buf, uint64(len(payload))}, Data: payload})
	case "stat":
		env.Syscall(linuxabi.Call{Num: linuxabi.SysStat, Path: "/fig9/in.dat"})
	case "read":
		env.Syscall(linuxabi.Call{Num: linuxabi.SysLseek, Args: [6]uint64{fd, 0, 0}})
		env.Syscall(linuxabi.Call{Num: linuxabi.SysRead, Args: [6]uint64{fd, buf, 1 << 20}})
	case "getcwd":
		env.Syscall(linuxabi.Call{Num: linuxabi.SysGetcwd})
	case "open":
		r := env.Syscall(linuxabi.Call{Num: linuxabi.SysOpen, Path: "/fig9/in.dat", Args: [6]uint64{0, linuxabi.ORdonly}})
		env.Syscall(linuxabi.Call{Num: linuxabi.SysClose, Args: [6]uint64{r.Ret}})
	case "mmap":
		r := env.Syscall(linuxabi.Call{Num: linuxabi.SysMmap, Args: [6]uint64{0, 1 << 20, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous}})
		env.Syscall(linuxabi.Call{Num: linuxabi.SysMunmap, Args: [6]uint64{r.Ret, 1 << 20}})
	default:
		b.Fatalf("unknown fig9 op %q", name)
	}
}

func fig9Setup(b *testing.B, env core.Env) (fd, buf uint64, payload []byte) {
	mres := env.Syscall(linuxabi.Call{Num: linuxabi.SysMmap, Args: [6]uint64{0, 1 << 20, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous}})
	for off := uint64(0); off < 1<<20; off += 4096 {
		if err := env.Touch(mres.Ret+off, true); err != nil {
			b.Fatal(err)
		}
	}
	o := env.Syscall(linuxabi.Call{Num: linuxabi.SysOpen, Path: "/fig9/in.dat", Args: [6]uint64{0, linuxabi.ORdwr}})
	return o.Ret, mres.Ret, make([]byte, 1<<20)
}

func fig9FS(b *testing.B, sys *core.System) {
	b.Helper()
	if err := sys.Kernel.FS().MkdirAll("/fig9"); err != nil {
		b.Fatal(err)
	}
	if err := sys.Kernel.FS().WriteFile("/fig9/in.dat", make([]byte, 1<<20)); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig9_Virtual(b *testing.B) {
	calls := []string{"getpid", "gettimeofday", "fwrite", "stat", "read", "getcwd", "open", "close", "mmap"}
	for _, name := range calls {
		if name == "close" {
			continue // folded into open
		}
		b.Run(name, func(b *testing.B) {
			sys, err := core.NewSystem(nil, core.Options{Virtual: true, AppName: "fig9"})
			if err != nil {
				b.Fatal(err)
			}
			fig9FS(b, sys)
			env := sys.NativeEnv()
			fd, buf, payload := fig9Setup(b, env)
			clk := env.Clock()
			start := clk.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fig9Op(b, env, name, fd, buf, payload)
			}
			reportVCycles(b, clk.Now()-start)
		})
	}
}

func BenchmarkFig9_Multiverse(b *testing.B) {
	calls := []string{"getpid", "gettimeofday", "fwrite", "stat", "read", "getcwd", "open", "mmap"}
	for _, name := range calls {
		b.Run(name, func(b *testing.B) {
			sys := newHybrid(b, 1)
			fig9FS(b, sys)
			var total cycles.Cycles
			if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
				fd, buf, payload := fig9Setup(b, env)
				clk := env.Clock()
				start := clk.Now()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fig9Op(b, env, name, fd, buf, payload)
				}
				total = clk.Now() - start
				return 0
			}); err != nil {
				b.Fatal(err)
			}
			reportVCycles(b, total)
		})
	}
}

// ---- Figures 10-13: the Racket-stand-in benchmarks ----------------------

// BenchmarkFig13 runs each workload in each world; one op = one complete
// benchmark process execution. vcycles/op is the end-to-end virtual
// runtime Figure 13 plots.
func BenchmarkFig13(b *testing.B) {
	worlds := []core.World{core.WorldNative, core.WorldVirtual, core.WorldHRT}
	for _, p := range bench.Programs() {
		for _, w := range worlds {
			p, w := p, w
			b.Run(fmt.Sprintf("%s/%s", p.Name, w), func(b *testing.B) {
				var total cycles.Cycles
				for i := 0; i < b.N; i++ {
					res, err := bench.RunBenchmark(p, w, core.Options{}, false)
					if err != nil {
						b.Fatal(err)
					}
					total += res.Cycles
				}
				reportVCycles(b, total)
			})
		}
	}
}

// BenchmarkIncrementalPort runs the GC benchmark in the three incremental-
// porting configurations (native, initial hybridization, AK memory port).
func BenchmarkIncrementalPort(b *testing.B) {
	p, _ := bench.ProgramByName("binary-tree-2")
	cfgs := []struct {
		name string
		w    core.World
		ak   bool
	}{
		{"Native", core.WorldNative, false},
		{"Multiverse", core.WorldHRT, false},
		{"Multiverse+AKMemory", core.WorldHRT, true},
	}
	for _, c := range cfgs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var total cycles.Cycles
			for i := 0; i < b.N; i++ {
				res, err := bench.RunBenchmark(p, c.w, core.Options{}, c.ak)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Cycles
			}
			reportVCycles(b, total)
		})
	}
}

// BenchmarkHPCG runs the mini-Legion CG solve in each world.
func BenchmarkHPCG(b *testing.B) {
	for _, w := range []core.World{core.WorldNative, core.WorldHRT} {
		w := w
		b.Run(w.String(), func(b *testing.B) {
			var total cycles.Cycles
			for i := 0; i < b.N; i++ {
				sys, err := bench.NewSystemForWorld(w, core.Options{FS: vfs.New(), AppName: "hpcg"})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sys.RunMain(func(env core.Env) uint64 {
					rt, rerr := legion.New(env, 4)
					if rerr != nil {
						b.Error(rerr)
						return 1
					}
					defer rt.Shutdown()
					res, rerr := legion.RunHPCG(rt, env, 16384, 50)
					if rerr != nil {
						b.Error(rerr)
						return 1
					}
					total += res.Cycles
					return 0
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportVCycles(b, total)
		})
	}
}

// BenchmarkFig11_Startup measures runtime startup (Figure 11's workload).
func BenchmarkFig11_Startup(b *testing.B) {
	var total cycles.Cycles
	for i := 0; i < b.N; i++ {
		res, err := bench.RunStartup(core.WorldNative)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Cycles
	}
	reportVCycles(b, total)
}

// ---- Nautilus primitives vs Linux (section 2) ---------------------------

func BenchmarkPrimitives_ROSThreadCreateJoin(b *testing.B) {
	sys, err := core.NewSystem(nil, core.Options{AppName: "prim"})
	if err != nil {
		b.Fatal(err)
	}
	clk := sys.Main.Clock
	start := clk.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := sys.Proc.NewThread(sys.Kernel.BootCore())
		t.Start(clk, func(*ros.Thread) {})
		t.Join(sys.Main)
	}
	reportVCycles(b, clk.Now()-start)
}

func BenchmarkPrimitives_AKThreadCreateJoin(b *testing.B) {
	sys := newHybrid(b, 1)
	var total cycles.Cycles
	if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
		clk := env.Clock()
		start := clk.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := sys.AK.CreateThread(clk, sys.Opts.HRTCores[0], aerokernel.Superposition{}, nil, nil)
			t.Start(func(*aerokernel.Thread) uint64 { return 0 })
			t.Join(clk)
		}
		total = clk.Now() - start
		return 0
	}); err != nil {
		b.Fatal(err)
	}
	reportVCycles(b, total)
}

// ---- Ablations (DESIGN.md) ----------------------------------------------

func BenchmarkAblation_SymbolCache(b *testing.B) {
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			sys := newHybrid(b, 1)
			set := core.NewOverrideSet([]core.OverrideSpec{{Legacy: "f", AKSymbol: "nk_sched_yield"}}, cached)
			w, _ := set.Lookup("f")
			var total cycles.Cycles
			if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
				t := env.(interface {
					HRTThreadForBench() *aerokernel.Thread
				}).HRTThreadForBench()
				if _, err := w.Invoke(t); err != nil { // warm
					b.Fatal(err)
				}
				clk := env.Clock()
				start := clk.Now()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := w.Invoke(t); err != nil {
						b.Fatal(err)
					}
				}
				total = clk.Now() - start
				return 0
			}); err != nil {
				b.Fatal(err)
			}
			reportVCycles(b, total)
		})
	}
}

func BenchmarkAblation_Remerge(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "duplicate-fault"
		if eager {
			name = "eager"
		}
		b.Run(name, func(b *testing.B) {
			var total cycles.Cycles
			for i := 0; i < b.N; i++ {
				sys := newHybrid(b, 1)
				sys.AK.SetEagerRemerge(eager)
				start := sys.Main.Clock.Now()
				if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
					r := env.Syscall(linuxabi.Call{Num: linuxabi.SysMmap, Args: [6]uint64{0, 64 * 4096, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous}})
					for off := uint64(0); off < 64*4096; off += 4096 {
						if err := env.Touch(r.Ret+off, true); err != nil {
							panic(err)
						}
					}
					return 0
				}); err != nil {
					b.Fatal(err)
				}
				total += sys.Main.Clock.Now() - start
			}
			reportVCycles(b, total)
		})
	}
}

func BenchmarkAblation_Pinning(b *testing.B) {
	for _, pin := range []bool{false, true} {
		name := "demand-fault"
		if pin {
			name = "pinned"
		}
		b.Run(name, func(b *testing.B) {
			var total cycles.Cycles
			for i := 0; i < b.N; i++ {
				sys := newHybrid(b, 1)
				r := sys.Proc.Syscall(sys.Main, linuxabi.Call{Num: linuxabi.SysMmap, Args: [6]uint64{0, 64 * 4096, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous}})
				if pin {
					for off := uint64(0); off < 64*4096; off += 4096 {
						sys.Proc.Touch(sys.Main, r.Ret+off, true)
					}
				}
				if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
					clk := env.Clock()
					start := clk.Now()
					for off := uint64(0); off < 64*4096; off += 4096 {
						if err := env.Touch(r.Ret+off, true); err != nil {
							panic(err)
						}
					}
					total += clk.Now() - start
					return 0
				}); err != nil {
					b.Fatal(err)
				}
			}
			reportVCycles(b, total)
		})
	}
}

func BenchmarkAblation_ChannelKind(b *testing.B) {
	b.Run("async", BenchmarkFig2_AsynchronousCall)
	b.Run("sync", func(b *testing.B) { benchSyncCall(b, 1) })
}

// ---- The interpreter itself (Go-level performance) ----------------------

func BenchmarkInterpreter_Fib(b *testing.B) {
	sys, err := core.NewSystem(nil, core.Options{AppName: "interp", FS: preludeFS(b)})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := scheme.NewEngine(sys.NativeEnv())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.RunString("(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunString("(fib 15)"); err != nil {
			b.Fatal(err)
		}
	}
}

func preludeFS(b *testing.B) *vfs.FS {
	b.Helper()
	fs := vfs.New()
	if err := scheme.InstallPrelude(fs); err != nil {
		b.Fatal(err)
	}
	return fs
}
