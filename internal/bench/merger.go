package bench

import "fmt"

// FigureMerger renders the merger suite: the seven benchmarks in
// WorldHRT with the delta merger off vs on (cycle totals, merges and
// duplicate-fault re-merges, and the PML4 entries copied: off, every
// merge copies the whole lower half; on, re-merges copy only slots whose
// ROS generation stamp moved).
func FigureMerger() (*Table, error) {
	sweep, err := CollectSweepBaseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Merger figure: incremental state superposition, WorldHRT merger off vs on",
		Header: []string{
			"Benchmark", "Cycles (off)", "Cycles (on)", "Speedup",
			"Merges", "Entries off/on", "Saved",
		},
	}
	for _, p := range Programs() {
		off, on := sweep.find(p.Name, "off"), sweep.find(p.Name, "merger")
		offEntries, onEntries := off.Counters["paging.pml4_entries_copied"], on.Counters["paging.pml4_entries_copied"]
		t.AddRow(
			p.Name,
			fmt.Sprintf("%d", off.Cycles),
			fmt.Sprintf("%d", on.Cycles),
			fmt.Sprintf("%.3fx", float64(off.Cycles)/float64(on.Cycles)),
			fmt.Sprintf("%d+%d", on.Counters["ak.merges"], on.Counters["ak.remerges"]),
			fmt.Sprintf("%d/%d", offEntries, onEntries),
			fmt.Sprintf("%d", int64(offEntries)-int64(onEntries)),
		)
	}
	t.AddNote("off re-merges copy all %d lower-half entries; on, only generation-stamped deltas move; every merge broadcasts a full flush", 256)
	// fasta's merger-on run is the heaviest write/GC mix in the suite.
	latencyNote(t, "ak.merge.latency", sweep.find("fasta", "merger").Histograms["ak.merge.latency"])
	return t, nil
}
