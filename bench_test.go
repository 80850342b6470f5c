// Package multiverse_test holds the repository-level benchmark harness:
// testing.B benchmarks for the end-to-end tables of the paper's
// evaluation, the Nautilus primitives, and the ablation benches DESIGN.md
// calls out. The latency tables' benchmarks (Figures 2 and 9 and the
// channel-kind ablation) live beside their figure code in internal/bench,
// timing the closures those tables average.
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
	"multiverse/internal/legion"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
	"multiverse/internal/ros"
	"multiverse/internal/scheme"
	"multiverse/internal/vfs"
)

// newHybrid builds an initialized hybrid system for microbenchmarks.
func newHybrid(b *testing.B, hrtCore machine.CoreID) *core.System {
	b.Helper()
	sys, err := bench.NewSystemForWorld(core.WorldHRT, core.Options{
		AppName: "bench", HRTCores: []machine.CoreID{hrtCore},
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func reportVCycles(b *testing.B, total cycles.Cycles) {
	b.ReportMetric(float64(total)/float64(b.N), "vcycles/op")
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
