package bench

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"multiverse/internal/core"
	"multiverse/internal/faults"
	"multiverse/internal/telemetry"
)

// obsvProgram is the workload the observability suite measures: fasta is
// the heaviest write mix in the suite, so it crosses the boundary often
// enough for the recorder, tracer, and SLO histograms to all be on hot
// paths.
const obsvProgram = "fasta"

// ObsvWallOverheadBound is the acceptance bar on armed wall-clock cost:
// the fully armed run (flight recorder + tracer + SLO histograms) may
// cost at most 10% more host time than the dark run. It is a host-time
// gate, checked by `mvtool bench -suite obsv -compare` and not by tier-1
// tests.
const ObsvWallOverheadBound = 1.10

// obsvConfig is one configuration of the suite.
type obsvConfig struct {
	Name   string
	Armed  bool // tracer + flight recorder
	Faults *faults.Plan
}

// obsvConfigs are the suite's three configurations, in run order.
func obsvConfigs() []obsvConfig {
	return []obsvConfig{
		// Dark: no recorder, no tracer — the reference for both virtual
		// cycles and wall time. SLO histograms stay on (they are part of
		// the always-on metrics registry).
		{"dark", false, nil},
		// Armed: flight recorder and tracer both live. The acceptance
		// bar: identical cycles and output, bounded wall overhead.
		{"armed", true, nil},
		// Faulted: scripted transport faults plus a partner death under
		// the armed plane, so the pinned recorder totals cover the whole
		// causal chain (doorbell, fault roll, retransmit, requeue,
		// respawn).
		{"faulted", true, &faults.Plan{Seed: 7, Rate: 0.02, KillRate: 0.001, RecoveryBudget: 64}},
	}
}

// busiestSLO returns the name of the most-populated SLO histogram (ties
// break to the lexicographically first name: EachHistogram visits in
// name order), or "" when the run has none.
func busiestSLO(reg *telemetry.Registry) string {
	var best string
	var bestCount uint64
	reg.EachHistogram(func(name string, h *telemetry.Histogram) {
		if !strings.HasPrefix(name, telemetry.SLOPrefix) {
			return
		}
		if n := h.Count(); best == "" || n > bestCount {
			best, bestCount = name, n
		}
	})
	return best
}

// runObsvConfig executes one configuration.
func runObsvConfig(prog Program, cfg obsvConfig) (*RunResult, error) {
	opts := core.Options{Faults: cfg.Faults}
	if cfg.Armed {
		opts.Tracer = telemetry.New()
	} else {
		opts.NoRecorder = true
	}
	return RunBenchmark(prog, core.WorldHRT, opts, false)
}

// obsvReps is how many times each configuration runs in the collection;
// every rep must agree on cycles.
const obsvReps = 3

// CollectObsvBaseline runs the observability suite on the fasta
// benchmark, with the dark run anchoring the zero-perturbation
// comparison, and validates its structural invariants before returning:
// every run's output is byte-identical to dark's, every run without a
// fault plan charges dark's cycles, the armed run's recorder and SLO
// histograms saw traffic, and the faulted run's recovery activity
// reached the ring. Each run pins its busiest SLO histogram with the
// quantiles the figure prints and its recorder total. The wall-clock
// bound is not checked here; obsvHostBound holds it.
func CollectObsvBaseline() (*Runs, error) {
	prog, ok := ProgramByName(obsvProgram)
	if !ok {
		return nil, fmt.Errorf("bench: %s program missing from the suite", obsvProgram)
	}
	doc := &Runs{Note: regenerateNote("obsv")}
	var dark *RunResult
	for _, cfg := range obsvConfigs() {
		var res *RunResult
		for rep := 0; rep < obsvReps; rep++ {
			r, err := runObsvConfig(prog, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: obsv config %s: %w", cfg.Name, err)
			}
			if res != nil && r.Cycles != res.Cycles {
				return nil, fmt.Errorf("bench: obsv config %s: cycles diverged across reps (%d vs %d)",
					cfg.Name, r.Cycles, res.Cycles)
			}
			res = r
		}
		if dark == nil {
			dark = res
		}
		if !bytes.Equal(res.Output, dark.Output) || (cfg.Faults == nil && res.Cycles != dark.Cycles) {
			return nil, fmt.Errorf("bench: obsv config %s perturbed the run (cycles %d vs dark %d, output match=%v)",
				cfg.Name, res.Cycles, dark.Cycles, bytes.Equal(res.Output, dark.Output))
		}
		slo := metricSet{histograms: map[string][]string{busiestSLO(res.Metrics): {"p50", "p99", "p999"}}}
		run := slo.project(res.Program, cfg.Name, res.Metrics, res.Cycles)
		run.RecorderEvents = res.Recorder.Total()
		doc.Runs = append(doc.Runs, run)
	}
	armed, faulted := doc.Runs[1], doc.Runs[2]
	if _, slo := sloOf(armed); armed.RecorderEvents == 0 || slo.Count == 0 {
		return nil, fmt.Errorf("bench: armed run recorded no events (recorder=%d slo=%d) — the planes never engaged",
			armed.RecorderEvents, slo.Count)
	}
	if faulted.RecorderEvents <= armed.RecorderEvents {
		return nil, fmt.Errorf("bench: faulted run: recorder=%d (armed=%d) — recovery activity missing from the ring",
			faulted.RecorderEvents, armed.RecorderEvents)
	}
	return doc, nil
}

// sloOf returns the name and summary of the one SLO histogram an obsv
// run pins.
func sloOf(r Run) (string, Hist) {
	for name, h := range r.Histograms {
		return name, h
	}
	return "", Hist{}
}

// obsvPairs is how many dark/armed pairs the host-time gate times. One
// fasta run is tens of milliseconds of host time, and host drift between
// two blocks of reps moved the ratio of their minima by more than the 10%
// bound; a ratio within each back-to-back pair cancels the drift, and the
// median of this many pairs keeps the statistic's spread across
// invocations inside the bound on a 2-CPU host.
const obsvPairs = 101

// obsvHostBound is the obsv suite's host-time gate: over obsvPairs
// back-to-back pairs of a dark and an armed fasta run, the median armed
// run may cost at most ObsvWallOverheadBound times its pair's dark run.
func obsvHostBound(_ []byte, _ any, _ float64) (string, error) {
	prog, _ := ProgramByName(obsvProgram) // the collection already found it
	cfgs := obsvConfigs()[:2]             // dark, armed
	ratios := make([]float64, obsvPairs)
	for p := range ratios {
		// Alternate which config runs first, so neither always inherits
		// the other's warm host state.
		var wall [2]time.Duration
		for _, i := range [][2]int{{0, 1}, {1, 0}}[p%2] {
			start := time.Now()
			if _, err := runObsvConfig(prog, cfgs[i]); err != nil {
				return "", fmt.Errorf("obsv: %s run: %w", cfgs[i].Name, err)
			}
			wall[i] = time.Since(start)
		}
		ratios[p] = float64(wall[1]) / float64(wall[0])
	}
	sort.Float64s(ratios)
	ratio := ratios[obsvPairs/2]
	if ratio > ObsvWallOverheadBound {
		return "", fmt.Errorf("obsv: armed wall overhead %.1f%% exceeds the %.0f%% bound",
			100*(ratio-1), 100*(ObsvWallOverheadBound-1))
	}
	return fmt.Sprintf("armed wall overhead %.1f%% (bound %.0f%%)", 100*(ratio-1), 100*(ObsvWallOverheadBound-1)), nil
}

// FigureObsv renders the observability suite: the three fasta
// configurations with their recorder/SLO activity and the
// zero-perturbation verdicts the collection enforced. The armed run's
// wall-clock overhead is host time, so it stays out of the table;
// `mvtool bench -suite obsv -compare` prints it.
func FigureObsv() (*Table, error) {
	b, err := CollectObsvBaseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Observability figure: armed tracing/recording on fasta, WorldHRT",
		Header: []string{
			"Config", "Cycles", "CyclesMatch", "Output", "RecEvents",
			"SLOMetric", "p50", "p99", "p99.9",
		},
	}
	for _, r := range b.Runs {
		// The collection holds every run without a fault plan to dark's
		// cycles.
		cm := "yes"
		if r.Cycles != b.Runs[0].Cycles {
			cm = "n/a (faulted)"
		}
		name, slo := sloOf(r)
		t.AddRow(
			r.Config,
			fmt.Sprintf("%d", r.Cycles),
			cm,
			"identical",
			fmt.Sprintf("%d", r.RecorderEvents),
			name,
			fmt.Sprintf("%d", slo.Quantiles["p50"]),
			fmt.Sprintf("%d", slo.Quantiles["p99"]),
			fmt.Sprintf("%d", slo.Quantiles["p999"]),
		)
	}
	t.AddNote("SLO metric shown is the busiest slo.g<group>.<syscall> histogram of each run")
	return t, nil
}
