package legion_test

import (
	"math"
	"testing"

	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/legion"
	"multiverse/internal/vfs"
)

// withStealRuntime runs fn against a scheduler-mode legion runtime (per-core
// run queues + Chase–Lev work stealing over 4 HRT cores).
func withStealRuntime(t *testing.T, name string, workers int, fn func(env core.Env, rt *legion.Runtime)) {
	t.Helper()
	sys, err := bench.NewSystemForWorld(core.WorldHRT, core.Options{
		FS: vfs.New(), AppName: name,
		Scheduler: true, HRTCores: core.HRTCoreRange(4),
	})
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
}

func TestStealIndexLaunchCoversRange(t *testing.T) {
	withStealRuntime(t, "steal-cover", 6, func(env core.Env, rt *legion.Runtime) {
		n := 10_000
		seen := make([]int, n)
		rt.IndexLaunch(n, func(w core.Env, i int) { seen[i]++ })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("index %d visited %d times", i, c)
			}
		}
	})
}

// TestStealReduceMatchesSerial is the per-task accumulator-slot guarantee:
// the reduction is combined in slot order over a decomposition that depends
// only on n, so a stealing run with many workers and a static split with
// the scheduler off are bit-identical to a serial 1-worker run —
// floating-point non-associativity cannot leak the steal pattern, the
// worker count or the mode into the result.
func TestStealReduceMatchesSerial(t *testing.T) {
	// Harmonic-like terms: reassociating this sum changes its low bits.
	term := func(w core.Env, i int) float64 { return 1.0 / float64(i+1) }
	n := 50_000

	var serial float64
	withStealRuntime(t, "steal-red-1", 1, func(env core.Env, rt *legion.Runtime) {
		serial = rt.Reduce(n, term)
	})
	var stealing, native, hrt float64
	withStealRuntime(t, "steal-red-8", 8, func(env core.Env, rt *legion.Runtime) {
		stealing = rt.Reduce(n, term)
	})
	withRuntime(t, core.WorldNative, 4, func(env core.Env, rt *legion.Runtime) {
		native = rt.Reduce(n, term)
	})
	withRuntime(t, core.WorldHRT, 4, func(env core.Env, rt *legion.Runtime) {
		hrt = rt.Reduce(n, term)
	})
	for _, c := range []struct {
		name string
		v    float64
	}{{"8 stealing workers", stealing}, {"Native, 4 workers", native}, {"HRT, 4 workers, no scheduler", hrt}} {
		if math.Float64bits(serial) != math.Float64bits(c.v) {
			t.Errorf("reduce differs: 1 worker %.17g (%#x), %s %.17g (%#x)",
				serial, math.Float64bits(serial), c.name, c.v, math.Float64bits(c.v))
		}
	}

	// And the value is actually the sum.
	want := 0.0
	for i := n - 1; i >= 0; i-- {
		want += 1.0 / float64(i+1)
	}
	if math.Abs(serial-want) > 1e-9 {
		t.Errorf("reduce = %v, want about %v", serial, want)
	}
}

func TestStealImbalancedWorkSteals(t *testing.T) {
	withStealRuntime(t, "steal-imbalance", 4, func(env core.Env, rt *legion.Runtime) {
		// Cost ramps with the index: the workers owning the tail deques
		// fall behind and the early finishers steal from them.
		for round := 0; round < 3; round++ {
			rt.IndexLaunch(4096, func(w core.Env, i int) {
				w.Compute(cycles.Cycles(20 + i/4))
			})
		}
		if rt.Steals == 0 {
			t.Error("imbalanced launch recorded no steals")
		}
	})
}
