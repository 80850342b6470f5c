package bench

import (
	"fmt"

	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/legion"
)

// HPCG parameters for the figure (scaled from the paper's testbed run).
const (
	hpcgN       = 32768
	hpcgIters   = 60
	hpcgWorkers = 4
)

// hpcgWorlds are the hpcg suite's worlds in run order, each with the
// synchronization binding legion must choose there.
var hpcgWorlds = []struct {
	world   core.World
	binding string
}{
	{core.WorldNative, "futex"},
	{core.WorldVirtual, "futex"},
	{core.WorldHRT, "aerokernel-events"},
}

// hpcgMetrics is what the hpcg suite pins of each solve: legion's sync
// ops and index launches, and the solve's latency, whose sum is the
// solve's cycles on the master's clock.
var hpcgMetrics = metricSet{
	counters:   []string{"legion.sync_ops", "legion.launches"},
	histograms: map[string][]string{"legion.solve.latency": nil},
}

// solveCycles is the virtual time of the run's HPCG solve, boot excluded.
func (r *Run) solveCycles() uint64 { return r.Histograms["legion.solve.latency"].Sum }

// runHPCG boots a system for world under opts, solves the CG system of n
// rows for iters iterations on workers legion workers, and fails unless
// the solution verifies. The returned system's registry holds legion's
// instruments and, with the scheduler on, the scheduler's. It is the one
// HPCG run behind the hpcg and scheduler suites, simspeed's HPCG unit and
// `mvrun -bench hpcg`.
func runHPCG(world core.World, opts core.Options, workers, n, iters int) (*core.System, *legion.HPCGResult, error) {
	var res *legion.HPCGResult
	sys, err := runMain(world, "hpcg", opts, func(env core.Env) error {
		rt, err := legion.New(env, workers)
		if err != nil {
			return err
		}
		defer rt.Shutdown()
		if res, err = legion.RunHPCG(rt, env, n, iters); err != nil {
			return err
		}
		return legion.VerifySolution(res.X, 1e-6)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("bench: HPCG on %s: %w", world, err)
	}
	return sys, res, nil
}

// CollectHPCGBaseline runs the mini task-parallel runtime's
// conjugate-gradient solve once in each world, with synchronization bound
// to futexes on the ROS and to AeroKernel events in the HRT. It fails
// unless every solution verifies, each world binds its expected
// primitive, every world performs the same sync-op count, and Multiverse
// solves faster than Native.
func CollectHPCGBaseline() (*Runs, error) {
	doc := &Runs{Note: regenerateNote("hpcg")}
	for _, w := range hpcgWorlds {
		sys, res, err := runHPCG(w.world, core.Options{}, hpcgWorkers, hpcgN, hpcgIters)
		if err != nil {
			return nil, err
		}
		if res.SyncBinding != w.binding {
			return nil, fmt.Errorf("bench: HPCG on %s binds %s, want %s", w.world, res.SyncBinding, w.binding)
		}
		doc.Runs = append(doc.Runs, hpcgMetrics.project("hpcg", w.world.String(), sys.Metrics(), sys.Main.Clock.Now()))
	}
	native, hrt := doc.Runs[0], doc.Runs[len(doc.Runs)-1]
	for _, r := range doc.Runs {
		if r.Counters["legion.sync_ops"] != native.Counters["legion.sync_ops"] {
			return nil, fmt.Errorf("bench: HPCG sync ops differ: %s %d, %s %d",
				native.Config, native.Counters["legion.sync_ops"], r.Config, r.Counters["legion.sync_ops"])
		}
	}
	if hrt.solveCycles() >= native.solveCycles() {
		return nil, fmt.Errorf("bench: HPCG %s (%d cycles) does not beat %s (%d cycles)",
			hrt.Config, hrt.solveCycles(), native.Config, native.solveCycles())
	}
	return doc, nil
}

// FigureHPCG reproduces the paper's section 2 Legion/HPCG experiment
// shape from the HPCG suite's document. The paper reports HRT speedups of
// up to 20% (Xeon Phi) and up to 40% (x64).
func FigureHPCG() (*Table, error) {
	doc, err := CollectHPCGBaseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("HPCG (mini-Legion): CG n=%d, %d iterations, %d workers", hpcgN, hpcgIters, hpcgWorkers),
		Header: []string{"World", "Runtime (ms)", "Sync binding", "Sync ops", "Speedup vs Native"},
	}
	base := doc.Runs[0].solveCycles()
	for i, r := range doc.Runs {
		t.AddRow(
			r.Config,
			fmt.Sprintf("%.3f", cycles.Cycles(r.solveCycles()).Nanoseconds()/1e6),
			hpcgWorlds[i].binding,
			fmt.Sprintf("%d", r.Counters["legion.sync_ops"]),
			fmt.Sprintf("%.2fx", float64(base)/float64(r.solveCycles())),
		)
	}
	t.AddNote("paper (section 2): HPCG-on-Legion HRT speedups up to 20%% (Phi) / 40%% (x64)")
	return t, nil
}
