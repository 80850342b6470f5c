package bench

import (
	"bytes"
	"fmt"

	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/ros"
	"multiverse/internal/scheme"
	"multiverse/internal/telemetry"
	"multiverse/internal/vfs"
)

// RunResult is everything one benchmark run yields.
type RunResult struct {
	Program string
	World   core.World
	// Opts is the configuration the system booted with, defaults filled
	// in.
	Opts core.Options

	// Cycles is the end-to-end virtual runtime observed by the process's
	// main thread (what `time` would report on the testbed).
	Cycles  cycles.Cycles
	Seconds float64

	Stats  ros.Stats
	Output []byte

	// Multiverse-only counters; every other registry metric is read
	// from Metrics.
	ForwardedSyscalls uint64
	ForwardedFaults   uint64
	Merges            int
	Remerges          int

	// Runtime-internal counters.
	GCCollections uint64
	BarrierFaults uint64
	TimerFires    uint64 // scheduler ticks (SIGVTALRM) delivered
	Reductions    uint64

	// Telemetry of the run: Tracer is nil unless tracing was requested;
	// Metrics is always populated; Recorder is the flight recorder (nil
	// only when Options.NoRecorder ran the system dark); Hotspots is the
	// legacy-interface profile (nil outside WorldHRT).
	Tracer   *telemetry.Tracer
	Metrics  *telemetry.Registry
	Recorder *telemetry.Recorder
	Hotspots *core.HotspotProfile
}

// BenchDir is where the harness installs program files.
const BenchDir = "/bench"

// provisionFS builds the ROS filesystem image: library collection plus the
// benchmark program.
func provisionFS(prog *Program) (*vfs.FS, error) {
	fs := vfs.New()
	if err := scheme.InstallPrelude(fs); err != nil {
		return nil, err
	}
	if prog != nil {
		if err := fs.MkdirAll(BenchDir); err != nil {
			return nil, err
		}
		if err := fs.WriteFile(BenchDir+"/"+prog.Name+".scm", []byte(prog.Source)); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// NewSystemForWorld boots a system for one of Figure 13's three worlds.
// The world sets opts.Hybrid and opts.Virtual; every other option goes to
// core.NewSystem unchanged. For WorldHRT the returned system is hybrid
// and already initialized (AeroKernel booted, address spaces merged).
func NewSystemForWorld(world core.World, opts core.Options) (*core.System, error) {
	switch world {
	case core.WorldNative, core.WorldVirtual:
		opts.Hybrid, opts.Virtual = false, world == core.WorldVirtual
		return core.NewSystem(nil, opts)
	case core.WorldHRT:
		opts.Hybrid = true
	default:
		return nil, fmt.Errorf("bench: unknown world %v", world)
	}
	fat, err := core.Build(core.BuildInput{
		App:        core.NewAppImage(opts.AppName),
		AeroKernel: core.NewAeroKernelImage(),
	})
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(fat, opts)
	if err != nil {
		return nil, err
	}
	if err := sys.InitRuntime(); err != nil {
		return nil, err
	}
	return sys, nil
}

// RunBenchmark executes one program in one world and collects the result.
// The harness installs the program into a fresh opts.FS and names the
// process after it; akMemory switches the runtime's GC to AeroKernel
// memory management (only meaningful — and only permitted — in WorldHRT).
func RunBenchmark(prog Program, world core.World, opts core.Options, akMemory bool) (*RunResult, error) {
	if akMemory && world != core.WorldHRT {
		return nil, fmt.Errorf("bench: AK memory requires the Multiverse world")
	}
	fs, err := provisionFS(&prog)
	if err != nil {
		return nil, err
	}
	opts.FS, opts.AppName = fs, prog.Name
	sys, err := NewSystemForWorld(world, opts)
	if err != nil {
		return nil, err
	}

	var engRef *scheme.Engine
	var runErr error
	_, err = sys.RunMain(func(env core.Env) uint64 {
		eng, eerr := scheme.NewEngine(env)
		if eerr != nil {
			runErr = eerr
			return 1
		}
		engRef = eng
		if akMemory {
			if eerr := eng.EnableAKMemory(); eerr != nil {
				runErr = eerr
				return 1
			}
		}
		if _, eerr := eng.RunFile(BenchDir + "/" + prog.Name + ".scm"); eerr != nil {
			runErr = eerr
			return 1
		}
		eng.Shutdown()
		return 0
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, fmt.Errorf("bench: %s on %s: %w", prog.Name, world, runErr)
	}

	res := ResultOf(sys, prog.Name, world, engRef)
	if prog.Check != "" && !bytes.Contains(res.Output, []byte(prog.Check)) {
		return nil, fmt.Errorf("bench: %s on %s: output check %q failed (got %d bytes)",
			prog.Name, world, prog.Check, len(res.Output))
	}
	return res, nil
}

// ResultOf reads the result of a finished run off its system; eng is the
// run's Scheme engine (nil when none ran, leaving the runtime counters
// zero).
func ResultOf(sys *core.System, program string, world core.World, eng *scheme.Engine) *RunResult {
	res := &RunResult{
		Program:  program,
		World:    world,
		Opts:     sys.Opts,
		Cycles:   sys.Main.Clock.Now(),
		Stats:    sys.Proc.Stats(),
		Output:   sys.Proc.Stdout(),
		Tracer:   sys.Tracer(),
		Metrics:  sys.Metrics(),
		Recorder: sys.Recorder(),
	}
	res.Seconds = res.Cycles.Seconds()
	if eng != nil {
		res.GCCollections = eng.Interp().GC().Collections
		res.BarrierFaults = eng.Interp().GC().BarrierFaults
		res.TimerFires = eng.Interp().TimerFires()
		res.Reductions = eng.Interp().Reductions()
	}
	if sys.AK != nil {
		res.ForwardedSyscalls = sys.AK.ForwardedSyscalls()
		res.ForwardedFaults = sys.AK.ForwardedFaults()
		res.Merges = sys.AK.MergeCount()
		res.Remerges = sys.AK.RemergeCount()
		res.Hotspots = sys.Hotspots()
	}
	return res
}

// runMain boots a system for world under opts, named app, with the
// library collection installed, and runs main on its main thread. It
// returns the finished system, whose registry and main clock the
// suites read, or main's error.
func runMain(world core.World, app string, opts core.Options, main func(core.Env) error) (*core.System, error) {
	fs, err := provisionFS(nil)
	if err != nil {
		return nil, err
	}
	opts.FS, opts.AppName = fs, app
	sys, err := NewSystemForWorld(world, opts)
	if err != nil {
		return nil, err
	}
	var runErr error
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		if runErr = main(env); runErr != nil {
			return 1
		}
		return 0
	}); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return sys, nil
}

// RunStartup boots the engine (GC heap creation, prelude load, timer
// setup) without running any benchmark — the Figure 11 configuration
// ("utilization of system calls in the Racket runtime without any
// benchmark").
func RunStartup(world core.World) (*RunResult, error) {
	sys, err := runMain(world, "startup", core.Options{}, func(env core.Env) error {
		eng, err := scheme.NewEngine(env)
		if err != nil {
			return err
		}
		eng.Shutdown()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ResultOf(sys, "startup", world, nil), nil
}
