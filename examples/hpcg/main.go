// HPCG on the mini-Legion runtime: the paper's section 2 motivation,
// end to end. A task-parallel runtime runs a conjugate-gradient solve in
// all three worlds; on the ROS its barrier synchronization costs futex
// system calls, while in the HRT it binds to AeroKernel events — the
// specialization that gave the hand-ported Legion its HPCG speedups.
//
// Run: go run ./examples/hpcg
package main

import (
	"fmt"
	"log"

	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/legion"
	"multiverse/internal/vfs"
)

const (
	n       = 16384
	iters   = 50
	workers = 4
)

func solve(world core.World) *legion.HPCGResult {
	sys, err := bench.NewSystemForWorld(world, core.Options{FS: vfs.New(), AppName: "hpcg"})
	if err != nil {
		log.Fatal(err)
	}
	var res *legion.HPCGResult
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		rt, rerr := legion.New(env, workers)
		if rerr != nil {
			log.Fatal(rerr)
		}
		defer rt.Shutdown()
		res, rerr = legion.RunHPCG(rt, env, n, iters)
		if rerr != nil {
			log.Fatal(rerr)
		}
		return 0
	}); err != nil {
		log.Fatal(err)
	}
	if err := legion.VerifySolution(res.X, 1e-5); err != nil {
		log.Fatalf("%s solved wrong: %v", world, err)
	}
	return res
}

func main() {
	fmt.Printf("HPCG: CG n=%d, %d iterations, %d workers\n\n", n, iters, workers)
	base := solve(core.WorldNative)
	for _, world := range []core.World{core.WorldNative, core.WorldVirtual, core.WorldHRT} {
		res := solve(world)
		fmt.Printf("%-11s %8.3f ms  sync=%-17s residual=%.2e  speedup=%.2fx\n",
			world, res.Cycles.Nanoseconds()/1e6, res.SyncBinding, res.Residual,
			float64(base.Cycles)/float64(res.Cycles))
	}
	fmt.Println("\nSame solver, same sync-op count — only the wakeup primitive changed.")
}
