package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// repoRoot is where the pinned baselines live, relative to this package.
var repoRoot = filepath.Join("..", "..")

// runBaseline is what TestBaselines runs for each suite: collect
// and encode, then either write dir/s.File (update) or check the fresh
// document against it. A failing collection returns before anything is
// written.
func runBaseline(s Suite, dir string, update bool) error {
	doc, blob, err := s.Baseline()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, s.File)
	if update {
		return os.WriteFile(path, blob, 0o644)
	}
	pinned, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading %s (regenerate with MV_UPDATE_BASELINE=1): %w", path, err)
	}
	return s.Verify(pinned, doc, blob)
}

// TestBaselines checks every pinned suite of the table against its file
// at the repository root, one subtest per suite; table-only rows have no
// file and are skipped, and rows that share a document (router and
// merger) each check it. With MV_UPDATE_BASELINE=1 it rewrites the files
// instead; a collection that breaks one of its suite's acceptance
// invariants fails either way.
func TestBaselines(t *testing.T) {
	pinned, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var suites []Suite
	files := map[string]bool{}
	for _, s := range Suites {
		if s.File != "" {
			suites = append(suites, s)
			files[s.File] = true
		}
	}
	if len(pinned) != len(files) {
		t.Errorf("%d pinned BENCH_*.json files, %d files named by the table", len(pinned), len(files))
	}
	update := os.Getenv("MV_UPDATE_BASELINE") != ""
	for _, s := range suites {
		t.Run(s.Name, func(t *testing.T) {
			if err := runBaseline(s, repoRoot, update); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSelect pins the -suite names: all is every row but the host-timed
// simspeed suite, a group name picks its rows, and one name one row.
func TestSelect(t *testing.T) {
	all := Select("all")
	if len(all) != len(Suites)-1 {
		t.Errorf("all selects %d of %d rows, want every row but simspeed", len(all), len(Suites))
	}
	for _, s := range all {
		if s.Name == "simspeed" {
			t.Error("all selects the host-timed simspeed suite")
		}
	}
	if n := len(Select("ablations")); n != 5 {
		t.Errorf("ablations selects %d rows, want 5", n)
	}
	if rows := Select("2"); len(rows) != 1 || rows[0].Name != "2" {
		t.Errorf("2 selects %d rows, want Figure 2 alone", len(rows))
	}
	if rows := Select("8"); rows != nil {
		t.Errorf("8 selects %d rows; Figure 8 is mvtool sloc, not a row", len(rows))
	}
}

// TestRunBaselineStubs runs runBaseline on stub suites in a temp dir: a
// failing collection leaves the target file unwritten even in update
// mode, a written file checks clean, and a drifted one is caught.
func TestRunBaselineStubs(t *testing.T) {
	dir := t.TempDir()
	broken := Suite{Name: "broken", File: "BENCH_broken.json", Collect: func() (any, error) {
		return nil, errors.New("acceptance invariant violated")
	}}
	if err := runBaseline(broken, dir, true); err == nil {
		t.Error("failing collection reported success")
	}
	if _, err := os.Stat(filepath.Join(dir, broken.File)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failing collection wrote %s (stat: %v)", broken.File, err)
	}

	doc := map[string]int{"cycles": 1}
	stub := Suite{Name: "stub", File: "BENCH_stub.json", Collect: func() (any, error) { return doc, nil }}
	if err := runBaseline(stub, dir, true); err != nil {
		t.Fatal(err)
	}
	if err := runBaseline(stub, dir, false); err != nil {
		t.Errorf("freshly written baseline does not check clean: %v", err)
	}
	doc["cycles"] = 2
	if err := runBaseline(stub, dir, false); err == nil {
		t.Error("drifted collection checked clean")
	}
}

// readPinned decodes a pinned baseline at the repository root into v.
func readPinned(t *testing.T, file string, v any) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(repoRoot, file))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, v); err != nil {
		t.Fatalf("parsing %s: %v", file, err)
	}
}
