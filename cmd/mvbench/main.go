// mvbench regenerates the paper's evaluation tables and figures from the
// simulated systems.
//
// Usage:
//
//	mvbench -figure all
//	mvbench -figure 13
//	mvbench -figure 2 -runs 25
//	mvbench -figure primitives
//	mvbench -figure ablations
package main

import (
	"flag"
	"fmt"
	"os"

	"multiverse/internal/bench"
)

func main() {
	figure := flag.String("figure", "all", "which figure to regenerate: 2, 8, 9, 10, 11, 12, 13, primitives, hpcg, incremental, router, merger, scheduler, faults, obsv, exitless, density, grid, ablations, all")
	runs := flag.Int("runs", 10, "measurement repetitions for latency figures (the paper averages 10 runs)")
	flag.Parse()

	type job struct {
		name string
		run  func() (*bench.Table, error)
	}
	jobs := []job{
		{"2", func() (*bench.Table, error) { return bench.Figure2(*runs) }},
		{"8", bench.Figure8},
		{"9", func() (*bench.Table, error) { return bench.Figure9(*runs) }},
		{"10", bench.Figure10},
		{"11", bench.Figure11},
		{"12", bench.Figure12},
		{"13", bench.Figure13},
		{"primitives", func() (*bench.Table, error) { return bench.PrimitivesTable(*runs) }},
		{"hpcg", bench.FigureHPCG},
		{"incremental", func() (*bench.Table, error) { return bench.FigureIncremental("binary-tree-2") }},
		{"router", bench.FigureRouter},
		{"merger", bench.FigureMerger},
		{"scheduler", bench.FigureScheduler},
		{"faults", bench.FigureFaults},
		{"obsv", bench.FigureObsv},
		{"exitless", bench.FigureExitless},
		{"density", bench.FigureDensity},
		{"grid", bench.FigureGrid},
		{"ablations", nil}, // expanded below
	}

	ablations := []job{
		{"ablation:symbol-cache", func() (*bench.Table, error) { return bench.AblationSymbolCache(*runs * 5) }},
		{"ablation:remerge", bench.AblationRemerge},
		{"ablation:pinning", bench.AblationPinning},
		{"ablation:channel-kind", func() (*bench.Table, error) { return bench.AblationChannelKind(*runs) }},
		{"ablation:sync-syscalls", func() (*bench.Table, error) { return bench.AblationSyncSyscalls(*runs) }},
	}

	var selected []job
	for _, j := range jobs {
		if *figure != "all" && *figure != j.name {
			continue
		}
		if j.name == "ablations" {
			selected = append(selected, ablations...)
			continue
		}
		selected = append(selected, j)
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "mvbench: unknown figure %q\n", *figure)
		os.Exit(2)
	}

	failed := false
	for _, j := range selected {
		t, err := j.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvbench: figure %s: %v\n", j.name, err)
			failed = true
			continue
		}
		fmt.Println(t)
	}
	if failed {
		os.Exit(1)
	}
}
