package bench

import "testing"

// TestMergerRegression is the deterministic acceptance check of the
// delta merger: on a GC-heavy benchmark the delta path must re-merge,
// charge fewer PML4-entry copies and fewer cycles than the fixed path.
// TestRouterRegression checks the same sweep runs reproduce exactly.
func TestMergerRegression(t *testing.T) {
	p, _ := ProgramByName("fasta")
	runs, err := sweepProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	off, on := runs[0], runs[2]
	if on.Counters["ak.remerges"] == 0 {
		t.Error("benchmark exercised no re-merges; the delta path was never taken")
	}
	offEntries, onEntries := off.Counters["paging.pml4_entries_copied"], on.Counters["paging.pml4_entries_copied"]
	if onEntries >= offEntries {
		t.Errorf("delta merger did not reduce PML4-entry copies: off=%d on=%d", offEntries, onEntries)
	}
	if on.Cycles >= off.Cycles {
		t.Errorf("merger did not reduce end-to-end cycles: off=%d on=%d", off.Cycles, on.Cycles)
	}
}
