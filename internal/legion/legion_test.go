package legion_test

import (
	"testing"

	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/legion"
	"multiverse/internal/vfs"
)

// withRuntime runs fn against a legion runtime in the given world.
func withRuntime(t *testing.T, world core.World, workers int, fn func(env core.Env, rt *legion.Runtime)) *core.System {
	t.Helper()
	sys, err := bench.NewSystemForWorld(world, core.Options{FS: vfs.New(), AppName: "legion"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		rt, rerr := legion.New(env, workers)
		if rerr != nil {
			t.Error(rerr)
			return 1
		}
		defer rt.Shutdown()
		fn(env, rt)
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestIndexLaunchCoversRange(t *testing.T) {
	withRuntime(t, core.WorldNative, 3, func(env core.Env, rt *legion.Runtime) {
		n := 100
		seen := make([]int, n)
		rt.IndexLaunch(n, func(w core.Env, i int) { seen[i]++ })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("index %d visited %d times", i, c)
			}
		}
		if rt.Launches != 1 {
			t.Errorf("launches = %d", rt.Launches)
		}
	})
}

func TestReduceSums(t *testing.T) {
	withRuntime(t, core.WorldNative, 4, func(env core.Env, rt *legion.Runtime) {
		got := rt.Reduce(1000, func(w core.Env, i int) float64 { return float64(i) })
		if got != 499500 {
			t.Errorf("reduce = %v", got)
		}
	})
}

func TestSyncBindingByWorld(t *testing.T) {
	withRuntime(t, core.WorldNative, 2, func(env core.Env, rt *legion.Runtime) {
		if rt.SyncBinding() != "futex" {
			t.Errorf("native binding = %s", rt.SyncBinding())
		}
	})
	withRuntime(t, core.WorldHRT, 2, func(env core.Env, rt *legion.Runtime) {
		if rt.SyncBinding() != "aerokernel-events" {
			t.Errorf("HRT binding = %s", rt.SyncBinding())
		}
	})
}

func TestHPCGConvergesEverywhere(t *testing.T) {
	for _, world := range []core.World{core.WorldNative, core.WorldVirtual, core.WorldHRT} {
		world := world
		t.Run(world.String(), func(t *testing.T) {
			withRuntime(t, world, 4, func(env core.Env, rt *legion.Runtime) {
				res, err := legion.RunHPCG(rt, env, 32768, 60)
				if err != nil {
					t.Fatal(err)
				}
				if res.Residual > 1e-6 {
					t.Errorf("residual = %v after %d iterations", res.Residual, res.Iterations)
				}
				if err := legion.VerifySolution(res.X, 1e-6); err != nil {
					t.Error(err)
				}
				if res.SyncOps == 0 {
					t.Error("no synchronization recorded")
				}
				t.Logf("%s: %.3f ms virtual, %d sync ops, binding=%s",
					world, res.Cycles.Nanoseconds()/1e6, res.SyncOps, res.SyncBinding)
			})
		})
	}
}

// TestHPCGHRTBeatsNative reproduces the paper's section 2 claim: with
// synchronization bound to AeroKernel events, the parallel runtime
// outperforms its Linux self on the same workload.
func TestHPCGHRTBeatsNative(t *testing.T) {
	measure := func(world core.World) float64 {
		var secs float64
		withRuntime(t, world, 4, func(env core.Env, rt *legion.Runtime) {
			res, err := legion.RunHPCG(rt, env, 32768, 60)
			if err != nil {
				t.Fatal(err)
			}
			secs = res.Cycles.Seconds()
		})
		return secs
	}
	native := measure(core.WorldNative)
	hrt := measure(core.WorldHRT)
	speedup := native / hrt
	t.Logf("HPCG: native %.5fs, HRT %.5fs — speedup %.2fx", native, hrt, speedup)
	if speedup < 1.05 {
		t.Errorf("HRT speedup %.3fx; want visible improvement (paper: up to 1.2-1.4x)", speedup)
	}
	if speedup > 3.0 {
		t.Errorf("HRT speedup %.3fx implausibly large", speedup)
	}
}

// TestHPCGDeterministic pins the scheduler-off executor to virtual time:
// repeated solves in one world give identical cycles, whatever order the
// host runs the worker threads in.
func TestHPCGDeterministic(t *testing.T) {
	for _, world := range []core.World{core.WorldNative, core.WorldHRT} {
		t.Run(world.String(), func(t *testing.T) {
			var first uint64
			for run := 0; run < 3; run++ {
				withRuntime(t, world, 4, func(env core.Env, rt *legion.Runtime) {
					res, err := legion.RunHPCG(rt, env, 8192, 20)
					if err != nil {
						t.Fatal(err)
					}
					got := uint64(res.Cycles)
					if run == 0 {
						first = got
					} else if got != first {
						t.Errorf("run %d: %d cycles, run 0: %d", run, got, first)
					}
				})
			}
		})
	}
}

func TestShutdownIdempotentAndJoins(t *testing.T) {
	withRuntime(t, core.WorldNative, 2, func(env core.Env, rt *legion.Runtime) {
		rt.IndexLaunch(10, func(core.Env, int) {})
		rt.Shutdown()
		rt.Shutdown() // second call is a no-op
	})
}

func TestNewRejectsZeroWorkers(t *testing.T) {
	sys, err := bench.NewSystemForWorld(core.WorldNative, core.Options{FS: vfs.New(), AppName: "legion0"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		if _, rerr := legion.New(env, 0); rerr == nil {
			t.Error("zero workers accepted")
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
}
