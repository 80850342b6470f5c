package bench

import (
	"fmt"

	"multiverse/internal/core"
	"multiverse/internal/legion"
	"multiverse/internal/vfs"
)

// HPCG parameters for the figure (scaled from the paper's testbed run).
const (
	hpcgN     = 32768
	hpcgIters = 60
)

// FigureHPCG reproduces the paper's section 2 Legion/HPCG experiment
// shape: the mini task-parallel runtime solving a conjugate-gradient
// system in each world, with synchronization bound to futexes on the ROS
// and to AeroKernel events in the HRT. The paper reports HRT speedups of
// up to 20% (Xeon Phi) and up to 40% (x64).
func FigureHPCG(workers int) (*Table, error) {
	if workers <= 0 {
		workers = 4
	}
	type row struct {
		world core.World
		res   *legion.HPCGResult
	}
	var rows []row
	for _, world := range []core.World{core.WorldNative, core.WorldVirtual, core.WorldHRT} {
		sys, err := NewSystemForWorld(world, core.Options{FS: vfs.New(), AppName: "hpcg"})
		if err != nil {
			return nil, err
		}
		var res *legion.HPCGResult
		var rerr error
		if _, err := sys.RunMain(func(env core.Env) uint64 {
			rt, e := legion.New(env, workers)
			if e != nil {
				rerr = e
				return 1
			}
			defer rt.Shutdown()
			res, rerr = legion.RunHPCG(rt, env, hpcgN, hpcgIters)
			return 0
		}); err != nil {
			return nil, err
		}
		if rerr != nil {
			return nil, rerr
		}
		if verr := legion.VerifySolution(res.X, 1e-6); verr != nil {
			return nil, fmt.Errorf("bench: HPCG on %s: %w", world, verr)
		}
		rows = append(rows, row{world: world, res: res})
	}

	t := &Table{
		Title:  fmt.Sprintf("HPCG (mini-Legion): CG n=%d, %d iterations, %d workers", hpcgN, hpcgIters, workers),
		Header: []string{"World", "Runtime (ms)", "Sync binding", "Sync ops", "Speedup vs Native"},
	}
	base := rows[0].res.Cycles
	for _, r := range rows {
		t.AddRow(
			r.world.String(),
			fmt.Sprintf("%.3f", r.res.Cycles.Nanoseconds()/1e6),
			r.res.SyncBinding,
			fmt.Sprintf("%d", r.res.SyncOps),
			fmt.Sprintf("%.2fx", float64(base)/float64(r.res.Cycles)),
		)
	}
	t.AddNote("paper (section 2): HPCG-on-Legion HRT speedups up to 20%% (Phi) / 40%% (x64)")
	return t, nil
}
