package bench

import (
	"bytes"
	"fmt"

	"multiverse/internal/core"
	"multiverse/internal/faults"
)

// faultsProgram is the workload the faults suite measures: fasta is the
// heaviest write mix in the suite, so it crosses the boundary often
// enough for injected transport faults and partner deaths to land
// mid-protocol.
const faultsProgram = "fasta"

// FaultsRun is one configuration of the faults suite: end-to-end cycles,
// the injection/recovery activity, and whether the program's output was
// byte-identical to the clean run (the recovery correctness property).
type FaultsRun struct {
	Config string `json:"config"`
	Cycles uint64 `json:"cycles"`

	Injected    uint64 `json:"injected"`
	Retransmits uint64 `json:"retransmits"`
	Dedups      uint64 `json:"dedups"`
	Corrupt     uint64 `json:"corrupt_detected"`
	Recoveries  uint64 `json:"recoveries"`
	Degraded    uint64 `json:"degraded"`

	// RecoveryLatencyCycles is the summed virtual time from partner death
	// to the respawned partner resuming service.
	RecoveryLatencyCycles uint64 `json:"recovery_latency_cycles"`

	OutputMatchesClean bool `json:"output_matches_clean"`
}

// faultsConfigs are the suite's five configurations, in run order.
func faultsConfigs() []struct {
	Name string
	Plan *faults.Plan
} {
	return []struct {
		Name string
		Plan *faults.Plan
	}{
		{"clean", nil},
		// Plumbed but clean: the fault plane armed with every rate zero.
		// Sequencing, checksums, and kill rolls all run; the acceptance bar
		// is zero added virtual cycles against the clean run.
		{"plumbed", &faults.Plan{Seed: 1}},
		// Random transport faults plus rare partner deaths, with budget to
		// recover from all of them.
		{"faulted", &faults.Plan{Seed: 7, Rate: 0.02, KillRate: 0.001, RecoveryBudget: 64}},
		// Scripted single partner death at program start: the recovery-
		// latency measurement the baseline pins.
		{"scenario", &faults.Plan{Seed: 1, Spec: []faults.Injection{{Kind: "partner-kill"}}}},
		// Budget exhaustion: every serviced envelope kills the partner;
		// after one respawn the group degrades to ROS-only execution.
		{"degraded", &faults.Plan{Seed: 3, KillRate: 1, RecoveryBudget: 1}},
	}
}

// FaultsBaseline is the BENCH_pr5.json document: the deterministic
// injection/recovery activity and cycle totals the regression tests pin.
type FaultsBaseline struct {
	// Note documents how to regenerate the file.
	Note    string      `json:"note"`
	Program string      `json:"program"`
	Runs    []FaultsRun `json:"runs"`
}

// CollectFaultsBaseline runs the five-configuration faults suite on the
// fasta benchmark, clean first, and validates its structural invariants
// before returning: the plumbed run charges exactly the clean run's
// cycles (overhead-when-clean is zero, not merely <=1%), every faulted
// configuration recovers to byte-identical output, the faulted run
// injects and retransmits, the scripted partner death recovers once with
// its latency recorded, and the degraded run degrades.
func CollectFaultsBaseline() (*FaultsBaseline, error) {
	prog, ok := ProgramByName(faultsProgram)
	if !ok {
		return nil, fmt.Errorf("bench: %s program missing from the suite", faultsProgram)
	}
	var runs []FaultsRun
	var cleanOut []byte
	for _, cfg := range faultsConfigs() {
		res, err := RunBenchmark(prog, core.WorldHRT, core.Options{Faults: cfg.Plan}, false)
		if err != nil {
			return nil, fmt.Errorf("bench: faults config %s: %w", cfg.Name, err)
		}
		if cfg.Name == "clean" {
			cleanOut = res.Output
		}
		m := res.Metrics
		injected := uint64(0)
		for _, k := range []string{"drop-notify", "dup-notify", "delay-inject",
			"corrupt-frame", "partner-stall", "partner-kill", "hrt-panic"} {
			injected += m.Counter("faults.injected." + k).Value()
		}
		runs = append(runs, FaultsRun{
			Config:                cfg.Name,
			Cycles:                uint64(res.Cycles),
			Injected:              injected,
			Retransmits:           m.Counter("faults.retransmit").Value(),
			Dedups:                m.Counter("faults.dedup").Value(),
			Corrupt:               m.Counter("faults.corrupt.detected").Value(),
			Recoveries:            m.Counter("faults.recovery").Value(),
			Degraded:              m.Counter("faults.degraded").Value(),
			RecoveryLatencyCycles: uint64(m.LatencyHistogram("faults.recovery.latency").Sum()),
			OutputMatchesClean:    bytes.Equal(res.Output, cleanOut),
		})
	}
	if runs[1].Cycles != runs[0].Cycles {
		return nil, fmt.Errorf("bench: plumbed run charges %d cycles vs clean %d — the unfired fault plane is not free",
			runs[1].Cycles, runs[0].Cycles)
	}
	for _, r := range runs {
		if !r.OutputMatchesClean {
			return nil, fmt.Errorf("bench: faults config %s diverged from the clean output", r.Config)
		}
	}
	if f := runs[2]; f.Injected == 0 || f.Retransmits == 0 {
		return nil, fmt.Errorf("bench: faulted run injected %d faults, %d retransmits — the plane never fired",
			f.Injected, f.Retransmits)
	}
	if s := runs[3]; s.Recoveries != 1 || s.RecoveryLatencyCycles == 0 {
		return nil, fmt.Errorf("bench: scenario run: recoveries=%d latency=%d, want one measured recovery",
			s.Recoveries, s.RecoveryLatencyCycles)
	}
	if d := runs[4]; d.Degraded != 1 {
		return nil, fmt.Errorf("bench: degraded run: faults.degraded=%d, want 1", d.Degraded)
	}
	return &FaultsBaseline{
		Note:    regenerateNote("faults"),
		Program: faultsProgram,
		Runs:    runs,
	}, nil
}

// FigureFaults renders the faults suite: the five fasta configurations
// with their injection counts, recovery activity, and the
// output-correctness verdict the collection enforced.
func FigureFaults() (*Table, error) {
	b, err := CollectFaultsBaseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Faults figure: injection and recovery on fasta, WorldHRT",
		Header: []string{
			"Config", "Cycles", "Overhead", "Injected", "Retransmits",
			"Dedups", "Corrupt", "Recoveries", "Degraded", "Output",
		},
	}
	clean := b.Runs[0].Cycles
	for _, r := range b.Runs {
		t.AddRow(
			r.Config,
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%+.2f%%", 100*(float64(r.Cycles)/float64(clean)-1)),
			fmt.Sprintf("%d", r.Injected),
			fmt.Sprintf("%d", r.Retransmits),
			fmt.Sprintf("%d", r.Dedups),
			fmt.Sprintf("%d", r.Corrupt),
			fmt.Sprintf("%d", r.Recoveries),
			fmt.Sprintf("%d", r.Degraded),
			"identical",
		)
	}
	t.AddNote("scripted partner death recovered in %d virtual cycles (respawn + merge replay + redelivery)",
		b.Runs[3].RecoveryLatencyCycles)
	t.AddNote("plumbed = fault plane armed with all rates zero; its overhead against clean is the suite's acceptance bar (0.00%%)")
	return t, nil
}
