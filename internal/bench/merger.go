package bench

import (
	"fmt"

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

// mergerRow projects the merger suite's row from a program's off and
// merger-on runs.
func mergerRow(off, on *RunResult) MergerComparison {
	return MergerComparison{
		Program:          on.Program,
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
	}
}

// MergerBaseline is the BENCH_pr3.json document: the deterministic
// per-benchmark merger activity and cycle totals the regression tests pin.
type MergerBaseline struct {
	// Note documents how to regenerate the file.
	Note       string             `json:"note"`
	Benchmarks []MergerComparison `json:"benchmarks"`
	// latency is the metrics registry of fasta's merger-on run (the
	// heaviest write/GC mix in the suite), the figure's latency detail.
	latency *telemetry.Registry
}

// CollectMergerBaseline projects the seven-benchmark WorldHRT sweep onto
// the incremental merger off/on comparison set. It enforces the
// suite-wide acceptance invariants before returning: the merger reduces
// both the charged PML4-entry copies and the broadcast shootdowns.
func CollectMergerBaseline() (*MergerBaseline, error) {
	rows, err := hrtSweep()
	if err != nil {
		return nil, err
	}
	b := &MergerBaseline{Note: regenerateNote("merger")}
	var offEntries, onEntries, offBcast, onBcast uint64
	for _, r := range rows {
		c := r.merger
		b.Benchmarks = append(b.Benchmarks, c)
		if c.Program == "fasta" {
			b.latency = r.mergerMetrics
		}
		offEntries += c.OffEntriesCopied
		onEntries += c.OnEntriesCopied
		offBcast += c.OffBroadcasts
		onBcast += c.OnBroadcasts
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

// FigureMerger renders the merger suite: the seven benchmarks in
// WorldHRT with the merger off vs on (entry copies saved, shootdown mix,
// locally resolved faults, cycle totals).
func FigureMerger() (*Table, error) {
	b, err := CollectMergerBaseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Merger figure: incremental state superposition, WorldHRT merger off vs on",
		Header: []string{
			"Benchmark", "Cycles (off)", "Cycles (on)", "Speedup",
			"Merges", "Entries off/on", "Saved",
			"Bcast off/on", "Targeted", "Local faults",
		},
	}
	for _, c := range b.Benchmarks {
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
	t.AddNote("off re-merges copy all %d lower-half entries and broadcast a full flush; on, only generation-stamped deltas move and small deltas invalidate per slot", 256)
	latencyHistogramNotes(t, b.latency, "ak.merge.latency", "fault.local.latency")
	return t, nil
}
