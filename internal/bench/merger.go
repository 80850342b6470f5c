package bench

import (
	"fmt"

	"multiverse/internal/core"
	"multiverse/internal/telemetry"
)

// MergerComparison is one benchmark's WorldHRT run with the incremental
// merger off vs on: end-to-end cycles, merger activity (merges and
// duplicate-fault re-merges), the PML4 entries actually copied, and how
// the TLB shootdowns and write-barrier faults were serviced.
type MergerComparison struct {
	Program string `json:"program"`

	OffCycles uint64 `json:"off_cycles"`
	OnCycles  uint64 `json:"on_cycles"`

	OffMerges   uint64 `json:"off_merges"`
	OnMerges    uint64 `json:"on_merges"`
	OffRemerges uint64 `json:"off_remerges"`
	OnRemerges  uint64 `json:"on_remerges"`

	// Entry copies: the PML4 entries charged across all merges. Off, every
	// merge copies the whole lower half; on, re-merges copy only slots
	// whose ROS generation stamp moved.
	OffEntriesCopied uint64 `json:"off_entries_copied"`
	OnEntriesCopied  uint64 `json:"on_entries_copied"`
	DeltaEntries     uint64 `json:"delta_entries"`

	// Shootdowns: full broadcasts vs per-slot targeted invalidations.
	OffBroadcasts uint64 `json:"off_broadcasts"`
	OnBroadcasts  uint64 `json:"on_broadcasts"`
	Targeted      uint64 `json:"targeted_shootdowns"`

	// LocalFaults is how many protection faults the fast lane resolved
	// HRT-locally instead of forwarding to the ROS.
	LocalFaults uint64 `json:"local_faults"`
}

// EntriesSaved is how many PML4-entry copies the delta merger avoided.
func (c *MergerComparison) EntriesSaved() uint64 {
	if c.OffEntriesCopied < c.OnEntriesCopied {
		return 0
	}
	return c.OffEntriesCopied - c.OnEntriesCopied
}

// CompareMerger runs one benchmark in WorldHRT twice — merger off, then
// merger on — and pairs the results. Both runs are deterministic, so the
// comparison is too.
func CompareMerger(prog Program) (*MergerComparison, error) {
	off, err := RunBenchmarkCfg(prog, core.WorldHRT, RunConfig{})
	if err != nil {
		return nil, err
	}
	on, err := RunBenchmarkCfg(prog, core.WorldHRT, RunConfig{Merger: true})
	if err != nil {
		return nil, err
	}
	return &MergerComparison{
		Program:          prog.Name,
		OffCycles:        uint64(off.Cycles),
		OnCycles:         uint64(on.Cycles),
		OffMerges:        uint64(off.Merges),
		OnMerges:         uint64(on.Merges),
		OffRemerges:      uint64(off.Remerges),
		OnRemerges:       uint64(on.Remerges),
		OffEntriesCopied: off.PML4EntriesCopied,
		OnEntriesCopied:  on.PML4EntriesCopied,
		DeltaEntries:     on.MergerDeltaEntries,
		OffBroadcasts:    off.MergerBroadcast,
		OnBroadcasts:     on.MergerBroadcast,
		Targeted:         on.MergerTargeted,
		LocalFaults:      on.LocalFaults,
	}, nil
}

// MergerBaseline is the BENCH_pr3.json document: the deterministic
// per-benchmark merger activity and cycle totals the regression tests pin.
type MergerBaseline struct {
	// Note documents how to regenerate the file.
	Note       string             `json:"note"`
	Benchmarks []MergerComparison `json:"benchmarks"`
}

// CollectMergerBaseline runs the seven-benchmark suite in WorldHRT with
// the incremental merger off and on and returns the comparison set. It
// enforces the suite-wide acceptance invariants before returning: the
// merger reduces both the charged PML4-entry copies and the broadcast
// shootdowns.
func CollectMergerBaseline() (*MergerBaseline, error) {
	b := &MergerBaseline{Note: regenerateNote("merger")}
	var offEntries, onEntries, offBcast, onBcast uint64
	for _, p := range Programs() {
		cmp, err := CompareMerger(p)
		if err != nil {
			return nil, err
		}
		b.Benchmarks = append(b.Benchmarks, *cmp)
		offEntries += cmp.OffEntriesCopied
		onEntries += cmp.OnEntriesCopied
		offBcast += cmp.OffBroadcasts
		onBcast += cmp.OnBroadcasts
	}
	if onEntries >= offEntries {
		return nil, fmt.Errorf("bench: merger did not reduce charged PML4-entry copies: off=%d on=%d",
			offEntries, onEntries)
	}
	if onBcast >= offBcast {
		return nil, fmt.Errorf("bench: merger did not reduce broadcast shootdowns: off=%d on=%d",
			offBcast, onBcast)
	}
	return b, nil
}

// FigureMerger regenerates the incremental-merger comparison: the seven
// benchmarks in WorldHRT with the merger off vs on (entry copies saved,
// shootdown mix, locally resolved faults, cycle totals).
func FigureMerger() (*Table, error) {
	t := &Table{
		Title: "Merger figure: incremental state superposition, WorldHRT merger off vs on",
		Header: []string{
			"Benchmark", "Cycles (off)", "Cycles (on)", "Speedup",
			"Merges", "Entries off/on", "Saved",
			"Bcast off/on", "Targeted", "Local faults",
		},
	}
	var last *MergerComparison
	for _, p := range Programs() {
		c, err := CompareMerger(p)
		if err != nil {
			return nil, err
		}
		last = c
		t.AddRow(
			c.Program,
			fmt.Sprintf("%d", c.OffCycles),
			fmt.Sprintf("%d", c.OnCycles),
			fmt.Sprintf("%.3fx", float64(c.OffCycles)/float64(c.OnCycles)),
			fmt.Sprintf("%d+%d", c.OnMerges, c.OnRemerges),
			fmt.Sprintf("%d/%d", c.OffEntriesCopied, c.OnEntriesCopied),
			fmt.Sprintf("%d", c.EntriesSaved()),
			fmt.Sprintf("%d/%d", c.OffBroadcasts, c.OnBroadcasts),
			fmt.Sprintf("%d", c.Targeted),
			fmt.Sprintf("%d", c.LocalFaults),
		)
	}
	if last != nil {
		t.AddNote("off re-merges copy all %d lower-half entries and broadcast a full flush; on, only generation-stamped deltas move and small deltas invalidate per slot", 256)
	}

	// Latency detail from an instrumented merger-on run of the fasta
	// benchmark (the heaviest write/GC mix in the suite).
	reg, err := mergerMetricsRun()
	if err != nil {
		return nil, err
	}
	latencyHistogramNotes(t, reg, "ak.merge.latency", "fault.local.latency")
	return t, nil
}

// mergerMetricsRun executes one merger-on run and returns its registry for
// the latency notes.
func mergerMetricsRun() (*telemetry.Registry, error) {
	p, ok := ProgramByName("fasta")
	if !ok {
		return nil, fmt.Errorf("bench: fasta program missing from the suite")
	}
	res, err := RunBenchmarkCfg(p, core.WorldHRT, RunConfig{Merger: true})
	if err != nil {
		return nil, err
	}
	return res.Metrics, nil
}
