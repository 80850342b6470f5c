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

// faultsConfigs are the suite's four fault-plane configurations, in run
// order. Their clean reference is the WorldHRT sweep's fasta run with
// every option off, pinned there once.
func faultsConfigs() []struct {
	Name string
	Plan *faults.Plan
} {
	return []struct {
		Name string
		Plan *faults.Plan
	}{
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

// faultsMetrics is what the faults suite pins of each run: the
// injections of every kind, the recovery activity, and the recovery
// latency (its sum is the virtual time from partner death to the
// respawned partner resuming service).
var faultsMetrics = func() metricSet {
	ms := metricSet{
		counters: []string{"faults.retransmit", "faults.dedup", "faults.corrupt.detected",
			"faults.recovery", "faults.degraded"},
		histograms: map[string][]string{"faults.recovery.latency": nil},
	}
	for k := faults.DropNotify; k <= faults.HRTPanic; k++ {
		ms.counters = append(ms.counters, "faults.injected."+k.String())
	}
	return ms
}()

// injected is the run's fault injections of every kind.
func (r *Run) injected() uint64 {
	var n uint64
	for k := faults.DropNotify; k <= faults.HRTPanic; k++ {
		n += r.Counters["faults.injected."+k.String()]
	}
	return n
}

// CollectFaultsBaseline runs the four fault-plane configurations on the
// fasta benchmark and validates the suite's structural invariants
// against the sweep's clean run before returning: the plumbed run
// charges exactly the clean run's cycles (overhead-when-clean is zero,
// not merely <=1%), every faulted configuration recovers to output
// byte-identical to the clean run's, the faulted run injects and
// retransmits, the scripted partner death recovers once with its latency
// recorded, and the degraded run degrades.
func CollectFaultsBaseline() (*Runs, error) {
	prog, ok := ProgramByName(faultsProgram)
	if !ok {
		return nil, fmt.Errorf("bench: %s program missing from the suite", faultsProgram)
	}
	sweep, err := CollectSweepBaseline()
	if err != nil {
		return nil, err
	}
	clean := sweep.find(faultsProgram, "off")
	doc := &Runs{Note: regenerateNote("faults")}
	for _, cfg := range faultsConfigs() {
		res, err := RunBenchmark(prog, core.WorldHRT, core.Options{Faults: cfg.Plan}, false)
		if err != nil {
			return nil, fmt.Errorf("bench: faults config %s: %w", cfg.Name, err)
		}
		if !bytes.Equal(res.Output, clean.output) {
			return nil, fmt.Errorf("bench: faults config %s diverged from the clean output", cfg.Name)
		}
		doc.Runs = append(doc.Runs, faultsMetrics.project(cfg.Name, res))
	}
	runs := doc.Runs
	if runs[0].Cycles != clean.Cycles {
		return nil, fmt.Errorf("bench: plumbed run charges %d cycles vs clean %d — the unfired fault plane is not free",
			runs[0].Cycles, clean.Cycles)
	}
	if f := runs[1]; f.injected() == 0 || f.Counters["faults.retransmit"] == 0 {
		return nil, fmt.Errorf("bench: faulted run injected %d faults, %d retransmits — the plane never fired",
			f.injected(), f.Counters["faults.retransmit"])
	}
	if s := runs[2]; s.Counters["faults.recovery"] != 1 || s.Histograms["faults.recovery.latency"].Sum == 0 {
		return nil, fmt.Errorf("bench: scenario run: recoveries=%d latency=%d, want one measured recovery",
			s.Counters["faults.recovery"], s.Histograms["faults.recovery.latency"].Sum)
	}
	if d := runs[3]; d.Counters["faults.degraded"] != 1 {
		return nil, fmt.Errorf("bench: degraded run: faults.degraded=%d, want 1", d.Counters["faults.degraded"])
	}
	return doc, nil
}

// FigureFaults renders the faults suite: the sweep's clean fasta run and
// the four fault-plane configurations, with their injection counts,
// recovery activity, and the output-correctness verdict the collection
// enforced.
func FigureFaults() (*Table, error) {
	b, err := CollectFaultsBaseline()
	if err != nil {
		return nil, err
	}
	sweep, err := CollectSweepBaseline()
	if err != nil {
		return nil, err
	}
	rows := append([]Run{*sweep.find(faultsProgram, "off")}, b.Runs...)
	rows[0].Config = "clean"
	t := &Table{
		Title: "Faults figure: injection and recovery on fasta, WorldHRT",
		Header: []string{
			"Config", "Cycles", "Overhead", "Injected", "Retransmits",
			"Dedups", "Corrupt", "Recoveries", "Degraded", "Output",
		},
	}
	clean := rows[0].Cycles
	for _, r := range rows {
		c := r.Counters
		t.AddRow(
			r.Config,
			fmt.Sprintf("%d", r.Cycles),
			fmt.Sprintf("%+.2f%%", 100*(float64(r.Cycles)/float64(clean)-1)),
			fmt.Sprintf("%d", r.injected()),
			fmt.Sprintf("%d", c["faults.retransmit"]),
			fmt.Sprintf("%d", c["faults.dedup"]),
			fmt.Sprintf("%d", c["faults.corrupt.detected"]),
			fmt.Sprintf("%d", c["faults.recovery"]),
			fmt.Sprintf("%d", c["faults.degraded"]),
			"identical",
		)
	}
	t.AddNote("scripted partner death recovered in %d virtual cycles (respawn + merge replay + redelivery)",
		b.Runs[2].Histograms["faults.recovery.latency"].Sum)
	t.AddNote("plumbed = fault plane armed with all rates zero; its overhead against clean is the suite's acceptance bar (0.00%%)")
	return t, nil
}
