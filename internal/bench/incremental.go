package bench

import (
	"fmt"

	"multiverse/internal/core"
)

// incrementalProgram is the GC benchmark the incremental-porting table
// ports: its overhead is almost all forwarded memory management.
const incrementalProgram = "binary-tree-2"

// FigureIncremental demonstrates the paper's whole point end to end: the
// automatic hybridization is "a starting point for HRT development" whose
// overhead the developer removes by porting the hotspot functionality into
// the AeroKernel. It runs the GC benchmark three ways:
//
//	Native                 — the original user-level baseline
//	Multiverse (initial)   — automatic hybridization, everything forwarded
//	Multiverse + AK memory — after porting the GC's mmap/mprotect/munmap
//	                         and fault handling into the AeroKernel
//
// The paper: "The next steps would be to port bottleneck functionality,
// for example the mmap(), mprotect(), and signal mechanisms the garbage
// collector depends on, to kernel mode via AeroKernel ... all of which
// can occur hundreds of times faster within the kernel."
func FigureIncremental() (*Table, error) {
	prog, ok := ProgramByName(incrementalProgram)
	if !ok {
		return nil, fmt.Errorf("bench: %s program missing from the suite", incrementalProgram)
	}

	type cfg struct {
		label    string
		world    core.World
		akMemory bool
	}
	cfgs := []cfg{
		{"Native", core.WorldNative, false},
		{"Multiverse (initial hybridization)", core.WorldHRT, false},
		{"Multiverse + AK memory port", core.WorldHRT, true},
	}

	t := &Table{
		Title:  fmt.Sprintf("Incremental porting payoff: %s", prog.Name),
		Header: []string{"Configuration", "Runtime (s)", "vs Native", "Fwd Syscalls", "Fwd Faults"},
	}
	var native float64
	for _, c := range cfgs {
		res, err := RunBenchmark(prog, c.world, core.Options{}, c.akMemory)
		if err != nil {
			return nil, err
		}
		if c.world == core.WorldNative {
			native = res.Seconds
		}
		t.AddRow(
			c.label,
			fmt.Sprintf("%.4f", res.Seconds),
			fmt.Sprintf("%.2fx", res.Seconds/native),
			fmt.Sprintf("%d", res.ForwardedSyscalls),
			fmt.Sprintf("%d", res.ForwardedFaults),
		)
	}
	t.AddNote("porting the GC's memory management into the AeroKernel removes most forwarding")
	return t, nil
}
