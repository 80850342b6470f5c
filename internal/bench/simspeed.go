package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"multiverse/internal/core"
	"multiverse/internal/cycles"
)

// The simspeed suite measures the simulator itself: how many simulated
// cycles the host executes per wall-clock second (the figure that ceilings
// the density and grid ambitions — ROADMAP open item 3). Virtual-cycle
// fields are deterministic and pinned exactly; wall-clock fields are
// host-dependent and carry a tolerance band in CI.
//
// The composite is fasta+HPCG: three hybrid fasta runs exercising the
// router tiers (plain, exitless rings, merger+scheduler) plus one
// scheduler-on HPCG solve. The four units share nothing — each builds its
// own machine, system, and runtime — so they are the canonical
// "independent execution groups" of the host-parallel mode: each unit runs
// on its own host goroutine, determinism preserved per unit and
// cross-checked byte-identical against the serial pass.

// simspeedReps is how many wall-clock repetitions the collection takes;
// the pinned figure is the best (min-wall) rep, which is the standard
// discipline for wall benchmarks on a noisy host.
const simspeedReps = 3

// prePRSimspeed is the simspeed of the composite measured at the commit
// before the raw-speed pass (serial, min of 3 reps, same collection
// procedure) on the reference CI host class. The pinned Speedup field is
// measured against it.
const prePRSimspeed = 4.80e8

// SimspeedUnit is one composite member: its deterministic virtual-cycle
// figure (exact) and its identity.
type SimspeedUnit struct {
	Name string `json:"name"`
	// Cycles is the end-to-end virtual time of the unit's main thread —
	// deterministic, pinned exactly.
	Cycles uint64 `json:"cycles"`
	// ForwardedSyscalls is the unit's boundary-crossing count — also
	// deterministic and pinned exactly.
	ForwardedSyscalls uint64 `json:"forwarded_syscalls"`
}

// SimspeedBaseline is the BENCH_pr8.json document.
type SimspeedBaseline struct {
	Note    string `json:"note"`
	ClockHz uint64 `json:"clock_hz"`
	Reps    int    `json:"reps"`

	// Units and TotalCycles are deterministic: exact in CI.
	Units       []SimspeedUnit `json:"units"`
	TotalCycles uint64         `json:"total_cycles"`

	// HostParallelMatch records that every unit's cycles and output were
	// byte-identical between the serial pass and the host-parallel passes.
	HostParallelMatch bool `json:"host_parallel_match"`

	// Wall-clock figures (CI tolerance ±20%): the serial pass and the
	// best host-parallel rep, and the headline simspeed figures.
	SerialHostSeconds   float64 `json:"serial_host_seconds"`
	ParallelHostSeconds float64 `json:"parallel_host_seconds"`
	// SerialSimspeed and Simspeed are simulated cycles per host-second,
	// serial and host-parallel respectively.
	SerialSimspeed float64 `json:"serial_simspeed"`
	Simspeed       float64 `json:"simspeed"`

	// PrePRSimspeed is the recorded pre-optimization baseline;
	// Speedup = Simspeed / PrePRSimspeed.
	PrePRSimspeed float64 `json:"pre_pr_simspeed"`
	Speedup       float64 `json:"speedup_vs_pre_pr"`
}

// simspeedResult is one executed unit: the pinned figures plus the output
// fingerprint used for the serial/parallel byte-identity cross-check.
type simspeedResult struct {
	unit   SimspeedUnit
	output []byte
}

// simspeedUnits is the composite definition. Each entry is fully
// self-contained and safe to run on its own host goroutine.
func simspeedUnits() []struct {
	name string
	run  func() (*simspeedResult, error)
} {
	progRun := func(name string, cfg RunConfig) func() (*simspeedResult, error) {
		return func() (*simspeedResult, error) {
			prog, ok := ProgramByName(name)
			if !ok {
				return nil, fmt.Errorf("bench: no program %q", name)
			}
			res, err := RunBenchmarkCfg(prog, core.WorldHRT, cfg)
			if err != nil {
				return nil, err
			}
			return &simspeedResult{
				unit: SimspeedUnit{
					Cycles:            uint64(res.Cycles),
					ForwardedSyscalls: res.ForwardedSyscalls,
				},
				output: res.Output,
			}, nil
		}
	}
	return []struct {
		name string
		run  func() (*simspeedResult, error)
	}{
		{"fasta/router", progRun("fasta", RunConfig{Router: true})},
		{"fasta/exitless", progRun("fasta", RunConfig{Router: true, Exitless: true})},
		{"fasta-3/merger+sched", progRun("fasta-3", RunConfig{Router: true, Merger: true, Scheduler: true})},
		{"hpcg/sched-4c8w", func() (*simspeedResult, error) {
			run, err := runHPCGWorkload(true, 4, 8)
			if err != nil {
				return nil, err
			}
			// The solve has no stdout; the result vector digest plays the
			// role of the output fingerprint.
			var buf bytes.Buffer
			for _, x := range run.Result.X {
				fmt.Fprintf(&buf, "%.17g\n", x)
			}
			return &simspeedResult{
				unit: SimspeedUnit{
					Cycles:            uint64(run.End),
					ForwardedSyscalls: uint64(run.Result.SyncOps),
				},
				output: buf.Bytes(),
			}, nil
		}},
	}
}

// runSimspeedSerial runs the composite one unit after another on the
// calling goroutine, returning the per-unit results and the wall time.
func runSimspeedSerial() ([]*simspeedResult, time.Duration, error) {
	units := simspeedUnits()
	out := make([]*simspeedResult, len(units))
	start := time.Now()
	for i, u := range units {
		r, err := u.run()
		if err != nil {
			return nil, 0, fmt.Errorf("bench: simspeed unit %s: %w", u.name, err)
		}
		r.unit.Name = u.name
		out[i] = r
	}
	return out, time.Since(start), nil
}

// runSimspeedParallel runs every unit on its own host goroutine — the
// units share no channels or address spaces, so this is the host-parallel
// independent-group mode — and returns the per-unit results and the wall
// time of the whole composite.
func runSimspeedParallel() ([]*simspeedResult, time.Duration, error) {
	units := simspeedUnits()
	out := make([]*simspeedResult, len(units))
	errs := make([]error, len(units))
	start := time.Now()
	done := make(chan int, len(units))
	for i := range units {
		go func(i int) {
			r, err := units[i].run()
			if err == nil {
				r.unit.Name = units[i].name
			}
			out[i], errs[i] = r, err
			done <- i
		}(i)
	}
	for range units {
		<-done
	}
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("bench: simspeed unit %s (parallel): %w", units[i].name, err)
		}
	}
	return out, wall, nil
}

// CollectSimspeedBaseline measures the composite: one serial pass pins the
// virtual-cycle figures, then simspeedReps host-parallel passes measure
// wall clock, each cross-checked byte-identical against the serial pass.
func CollectSimspeedBaseline() (*SimspeedBaseline, error) {
	// Pin the host collector to a batch-throughput configuration for the
	// measured region. The composite churns short-lived simulation state
	// (heap-segment arenas, machine images), and at the default GOGC the
	// host collector's pacing — and therefore the measured wall time —
	// tracks whatever ambient heap the test process happens to carry.
	// Fixing the target makes simspeed comparable across runs and
	// environments; a forced collection first gives every run the same
	// starting heap.
	runtime.GC()
	prevGC := debug.SetGCPercent(300)
	defer debug.SetGCPercent(prevGC)

	serial, serialWall, err := runSimspeedSerial()
	if err != nil {
		return nil, err
	}

	b := &SimspeedBaseline{
		Note:    regenerateNote("simspeed") + "; cycle fields exact, wall fields ±20%",
		ClockHz: uint64(cycles.ClockHz),
		Reps:    simspeedReps,
	}
	for _, r := range serial {
		b.Units = append(b.Units, r.unit)
		b.TotalCycles += r.unit.Cycles
	}

	bestParallel := time.Duration(0)
	b.HostParallelMatch = true
	for rep := 0; rep < simspeedReps; rep++ {
		par, wall, err := runSimspeedParallel()
		if err != nil {
			return nil, err
		}
		for i, r := range par {
			if r.unit != serial[i].unit {
				return nil, fmt.Errorf("bench: simspeed unit %s diverged under host parallelism: serial %+v, parallel %+v",
					r.unit.Name, serial[i].unit, r.unit)
			}
			if !bytes.Equal(r.output, serial[i].output) {
				return nil, fmt.Errorf("bench: simspeed unit %s output diverged under host parallelism", r.unit.Name)
			}
		}
		if bestParallel == 0 || wall < bestParallel {
			bestParallel = wall
		}
	}

	b.SerialHostSeconds = serialWall.Seconds()
	b.ParallelHostSeconds = bestParallel.Seconds()
	b.SerialSimspeed = float64(b.TotalCycles) / b.SerialHostSeconds
	b.Simspeed = float64(b.TotalCycles) / b.ParallelHostSeconds
	b.PrePRSimspeed = prePRSimspeed
	if prePRSimspeed > 0 {
		b.Speedup = b.Simspeed / prePRSimspeed
	}
	return b, nil
}

// parseSimspeed decodes a pinned BENCH_pr8.json document.
func parseSimspeed(pinned []byte) (*SimspeedBaseline, error) {
	var b SimspeedBaseline
	if err := json.Unmarshal(pinned, &b); err != nil {
		return nil, fmt.Errorf("simspeed: parsing pinned document: %w", err)
	}
	return &b, nil
}

// checkSimspeed is the simspeed suite's deterministic check: units, total
// cycles, and the host-parallel match must equal the pinned document
// exactly. The wall-clock fields are simspeedHostBound's business.
func checkSimspeed(pinnedBlob []byte, fresh any) error {
	pinned, err := parseSimspeed(pinnedBlob)
	if err != nil {
		return err
	}
	f := fresh.(*SimspeedBaseline)
	if f.TotalCycles != pinned.TotalCycles || !slices.Equal(f.Units, pinned.Units) || !f.HostParallelMatch {
		return fmt.Errorf("simspeed: units %+v (total %d cycles, host-parallel match %v), pinned %+v (total %d cycles)",
			f.Units, f.TotalCycles, f.HostParallelMatch, pinned.Units, pinned.TotalCycles)
	}
	return nil
}

// simspeedHostBound is the simspeed suite's host-time gate: the fresh
// simspeed figures must agree with the pinned ones within tol (0.2 =
// ±20%, applied as a ratio band in both directions).
func simspeedHostBound(pinnedBlob []byte, fresh any, tol float64) (string, error) {
	pinned, err := parseSimspeed(pinnedBlob)
	if err != nil {
		return "", err
	}
	f := fresh.(*SimspeedBaseline)
	wallOK := func(name string, got, want float64) error {
		if want <= 0 {
			return nil
		}
		if got < want*(1-tol) || got > want*(1+tol) {
			return fmt.Errorf("simspeed: %s = %.3g outside ±%.0f%% of pinned %.3g", name, got, tol*100, want)
		}
		return nil
	}
	if err := wallOK("simspeed", f.Simspeed, pinned.Simspeed); err != nil {
		return "", err
	}
	if err := wallOK("serial_simspeed", f.SerialSimspeed, pinned.SerialSimspeed); err != nil {
		return "", err
	}
	return fmt.Sprintf("%d cycles exact, %.3g cyc/s host-parallel (pinned %.3g, ±%.0f%%), %.2fx vs pre-PR",
		f.TotalCycles, f.Simspeed, pinned.Simspeed, tol*100, f.Speedup), nil
}

// FigureSimspeed renders the simspeed composite as a table.
func FigureSimspeed() (*Table, error) {
	b, err := CollectSimspeedBaseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Simspeed figure: simulated cycles per host-second, fasta+HPCG composite",
		Header: []string{"Unit", "Cycles", "Fwd syscalls"},
	}
	for _, u := range b.Units {
		t.AddRow(u.Name, fmt.Sprintf("%d", u.Cycles), fmt.Sprintf("%d", u.ForwardedSyscalls))
	}
	t.AddNote("total %d simulated cycles; serial %.3f s (%.3g cyc/s), host-parallel %.3f s (%.3g cyc/s)",
		b.TotalCycles, b.SerialHostSeconds, b.SerialSimspeed, b.ParallelHostSeconds, b.Simspeed)
	if b.PrePRSimspeed > 0 {
		t.AddNote("pre-PR baseline %.3g cyc/s: %.2fx", b.PrePRSimspeed, b.Speedup)
	}
	return t, nil
}
