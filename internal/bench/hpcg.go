package bench

import (
	"fmt"

	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/legion"
	"multiverse/internal/vfs"
)

// HPCG parameters for the figure (scaled from the paper's testbed run).
const (
	hpcgN       = 32768
	hpcgIters   = 60
	hpcgWorkers = 4
)

// HPCGWorld is one world's solve in the HPCG suite.
type HPCGWorld struct {
	World       string `json:"world"`
	Cycles      uint64 `json:"cycles"`
	SyncBinding string `json:"sync_binding"`
	SyncOps     int    `json:"sync_ops"`
	Launches    int    `json:"launches"`
}

// HPCGBaseline is the BENCH_pr20.json document: the section 2
// Legion/HPCG solve in the Native, Virtual and Multiverse worlds, with
// the scheduler off.
type HPCGBaseline struct {
	// Note documents how to regenerate the file.
	Note    string      `json:"note"`
	N       int         `json:"hpcg_n"`
	Iters   int         `json:"hpcg_iters"`
	Workers int         `json:"workers"`
	Worlds  []HPCGWorld `json:"worlds"`
}

// CollectHPCGBaseline runs the mini task-parallel runtime's
// conjugate-gradient solve once in each world, with synchronization bound
// to futexes on the ROS and to AeroKernel events in the HRT. It fails
// unless every solution verifies, every world performs the same sync-op
// count, and Multiverse beats Native.
func CollectHPCGBaseline() (*HPCGBaseline, error) {
	b := &HPCGBaseline{Note: regenerateNote("hpcg"), N: hpcgN, Iters: hpcgIters, Workers: hpcgWorkers}
	for _, world := range []core.World{core.WorldNative, core.WorldVirtual, core.WorldHRT} {
		sys, err := NewSystemForWorld(world, core.Options{FS: vfs.New(), AppName: "hpcg"})
		if err != nil {
			return nil, err
		}
		var res *legion.HPCGResult
		var rerr error
		if _, err := sys.RunMain(func(env core.Env) uint64 {
			rt, e := legion.New(env, hpcgWorkers)
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
		b.Worlds = append(b.Worlds, HPCGWorld{
			World:       world.String(),
			Cycles:      uint64(res.Cycles),
			SyncBinding: res.SyncBinding,
			SyncOps:     res.SyncOps,
			Launches:    res.Launches,
		})
	}
	native, hrt := b.Worlds[0], b.Worlds[len(b.Worlds)-1]
	for _, w := range b.Worlds {
		if w.SyncOps != native.SyncOps {
			return nil, fmt.Errorf("bench: HPCG sync ops differ: %s %d, %s %d",
				native.World, native.SyncOps, w.World, w.SyncOps)
		}
	}
	if hrt.Cycles >= native.Cycles {
		return nil, fmt.Errorf("bench: HPCG %s (%d cycles) does not beat %s (%d cycles)",
			hrt.World, hrt.Cycles, native.World, native.Cycles)
	}
	return b, nil
}

// FigureHPCG reproduces the paper's section 2 Legion/HPCG experiment
// shape from the HPCG suite's document. The paper reports HRT speedups of
// up to 20% (Xeon Phi) and up to 40% (x64).
func FigureHPCG() (*Table, error) {
	b, err := CollectHPCGBaseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("HPCG (mini-Legion): CG n=%d, %d iterations, %d workers", b.N, b.Iters, b.Workers),
		Header: []string{"World", "Runtime (ms)", "Sync binding", "Sync ops", "Speedup vs Native"},
	}
	base := b.Worlds[0].Cycles
	for _, w := range b.Worlds {
		t.AddRow(
			w.World,
			fmt.Sprintf("%.3f", cycles.Cycles(w.Cycles).Nanoseconds()/1e6),
			w.SyncBinding,
			fmt.Sprintf("%d", w.SyncOps),
			fmt.Sprintf("%.2fx", float64(base)/float64(w.Cycles)),
		)
	}
	t.AddNote("paper (section 2): HPCG-on-Legion HRT speedups up to 20%% (Phi) / 40%% (x64)")
	return t, nil
}
