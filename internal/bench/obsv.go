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

// ObsvRun is one configuration of the observability suite. Every field
// is deterministic — wall-clock timings are deliberately kept out of the
// pinned document.
type ObsvRun struct {
	Config string `json:"config"`
	Cycles uint64 `json:"cycles"`

	// CyclesMatchDark / OutputMatchesDark are the zero-perturbation
	// property: arming every observability plane must leave virtual time
	// and program output byte-identical.
	CyclesMatchDark   bool `json:"cycles_match_dark"`
	OutputMatchesDark bool `json:"output_matches_dark"`

	// RecorderEvents is the flight recorder's lifetime event count (the
	// ring may have wrapped; this counts everything ever recorded).
	RecorderEvents uint64 `json:"recorder_events"`

	// SLOMetric is the busiest per-group, per-syscall SLO histogram of
	// the run, with its population and latency quantiles.
	SLOMetric string `json:"slo_metric"`
	SLOCount  uint64 `json:"slo_count"`
	SLOP50    uint64 `json:"slo_p50"`
	SLOP99    uint64 `json:"slo_p99"`
	SLOP999   uint64 `json:"slo_p999"`
}

// obsvConfigs are the suite's three configurations, in run order.
func obsvConfigs() []struct {
	Name   string
	Armed  bool // tracer + flight recorder
	Faults *faults.Plan
} {
	return []struct {
		Name   string
		Armed  bool
		Faults *faults.Plan
	}{
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

// busiestSLO returns the name and snapshot of the most-populated SLO
// histogram (ties break to the lexicographically first name, so the
// choice is deterministic).
func busiestSLO(s *telemetry.MetricsSnapshot) (string, *telemetry.HistogramSnapshot) {
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		if strings.HasPrefix(name, telemetry.SLOPrefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var bestName string
	var best *telemetry.HistogramSnapshot
	for _, name := range names {
		h := s.Histograms[name]
		if best == nil || h.Count > best.Count {
			bestName, best = name, h
		}
	}
	return bestName, best
}

// runObsvConfig executes one configuration and reports the run plus its
// host wall time.
func runObsvConfig(prog Program, armed bool, plan *faults.Plan) (*RunResult, time.Duration, error) {
	opts := core.Options{Faults: plan}
	if armed {
		opts.Tracer = telemetry.New()
	} else {
		opts.NoRecorder = true
	}
	start := time.Now()
	res, err := RunBenchmark(prog, core.WorldHRT, opts, false)
	return res, time.Since(start), err
}

// ObsvBaseline is the BENCH_pr6.json document: the deterministic
// observability activity the regression tests pin. The armed/dark
// wall-clock ratio rides along for the host-time gate but stays out of
// the byte-pinned file.
type ObsvBaseline struct {
	// Note documents how to regenerate the file.
	Note    string    `json:"note"`
	Program string    `json:"program"`
	Runs    []ObsvRun `json:"runs"`
	// WallRatio is the armed run's host wall time over the dark run's
	// (minimum over the suite's reps each).
	WallRatio float64 `json:"-"`
}

// obsvReps is how many times each configuration runs: the wall time
// takes the minimum to damp scheduler noise, and every rep must agree on
// cycles.
const obsvReps = 3

// CollectObsvBaseline runs the observability suite on the fasta
// benchmark, with the dark run anchoring the zero-perturbation
// comparison, and validates its structural invariants before returning:
// the armed run is cycle- and output-identical to dark, the recorder
// actually saw traffic, and the faulted run's recovery activity reached
// the ring. The wall-clock bound is not checked here; obsvHostBound
// holds it.
func CollectObsvBaseline() (*ObsvBaseline, error) {
	prog, ok := ProgramByName(obsvProgram)
	if !ok {
		return nil, fmt.Errorf("bench: %s program missing from the suite", obsvProgram)
	}
	var runs []ObsvRun
	var darkCycles uint64
	var darkOut []byte
	wall := make(map[string]time.Duration)
	for _, cfg := range obsvConfigs() {
		var res *RunResult
		best := time.Duration(0)
		for rep := 0; rep < obsvReps; rep++ {
			r, d, err := runObsvConfig(prog, cfg.Armed, cfg.Faults)
			if err != nil {
				return nil, fmt.Errorf("bench: obsv config %s: %w", cfg.Name, err)
			}
			if res != nil && r.Cycles != res.Cycles {
				return nil, fmt.Errorf("bench: obsv config %s: cycles diverged across reps (%d vs %d)",
					cfg.Name, r.Cycles, res.Cycles)
			}
			if best == 0 || d < best {
				best = d
			}
			res = r
		}
		wall[cfg.Name] = best
		if cfg.Name == "dark" {
			darkCycles = uint64(res.Cycles)
			darkOut = res.Output
		}
		sloName, slo := busiestSLO(res.Metrics.Snapshot())
		run := ObsvRun{
			Config:            cfg.Name,
			Cycles:            uint64(res.Cycles),
			CyclesMatchDark:   cfg.Faults == nil && uint64(res.Cycles) == darkCycles,
			OutputMatchesDark: bytes.Equal(res.Output, darkOut),
			RecorderEvents:    res.Recorder.Total(),
			SLOMetric:         sloName,
		}
		if slo != nil {
			run.SLOCount = slo.Count
			run.SLOP50 = slo.Quantile(0.50)
			run.SLOP99 = slo.Quantile(0.99)
			run.SLOP999 = slo.Quantile(0.999)
		}
		runs = append(runs, run)
	}
	armed, faulted := runs[1], runs[2]
	if !armed.CyclesMatchDark || !armed.OutputMatchesDark {
		return nil, fmt.Errorf("bench: armed observability perturbed the run (cycles match=%v output match=%v)",
			armed.CyclesMatchDark, armed.OutputMatchesDark)
	}
	if armed.RecorderEvents == 0 || armed.SLOCount == 0 {
		return nil, fmt.Errorf("bench: armed run recorded no events (recorder=%d slo=%d) — the planes never engaged",
			armed.RecorderEvents, armed.SLOCount)
	}
	if !faulted.OutputMatchesDark || faulted.RecorderEvents <= armed.RecorderEvents {
		return nil, fmt.Errorf("bench: faulted run: output match=%v recorder=%d (armed=%d) — recovery activity missing from the ring",
			faulted.OutputMatchesDark, faulted.RecorderEvents, armed.RecorderEvents)
	}
	return &ObsvBaseline{
		Note:      regenerateNote("obsv"),
		Program:   obsvProgram,
		Runs:      runs,
		WallRatio: float64(wall["armed"]) / float64(wall["dark"]),
	}, nil
}

// obsvHostBound is the obsv suite's host-time gate: the armed run may
// cost at most ObsvWallOverheadBound times the dark run's wall time.
func obsvHostBound(_ []byte, fresh any, _ float64) (string, error) {
	ratio := fresh.(*ObsvBaseline).WallRatio
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
		cm := "yes"
		if !r.CyclesMatchDark {
			cm = "n/a (faulted)"
		}
		t.AddRow(
			r.Config,
			fmt.Sprintf("%d", r.Cycles),
			cm,
			"identical",
			fmt.Sprintf("%d", r.RecorderEvents),
			r.SLOMetric,
			fmt.Sprintf("%d", r.SLOP50),
			fmt.Sprintf("%d", r.SLOP99),
			fmt.Sprintf("%d", r.SLOP999),
		)
	}
	t.AddNote("SLO metric shown is the busiest slo.g<group>.<syscall> histogram of each run")
	return t, nil
}
