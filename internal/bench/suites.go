package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// Suite is one pinned-baseline benchmark suite: a deterministic
// collection whose canonical encoding is committed at the repository
// root. TestBaselines checks every entry of Suites against its file, CI
// byte-compares the `mvtool bench -suite NAME -json` output with it, and
// `mvtool bench -suite NAME -compare FILE` adds the suite's host-time
// bound, if it has one.
type Suite struct {
	Name string
	// File is the pinned document's name at the repository root.
	File string
	// Collect runs the suite and returns its document. It fails when any
	// of the suite's acceptance invariants does not hold, so a failing
	// collection can never be pinned.
	Collect func() (any, error)
	// Figure renders the suite as a table.
	Figure func() (*Table, error)
	// Check compares a fresh document with the pinned bytes. Nil means
	// byte equality of the canonical encodings; only a suite whose
	// document carries host-time fields supplies its own.
	Check func(pinned []byte, fresh any) error
	// HostBound is the suite's host-time gate, run only by -compare and
	// never by tier-1 tests. It returns a one-line summary on success.
	HostBound func(pinned []byte, fresh any, tol float64) (string, error)
}

// Suites is the table of pinned-baseline suites, in PR order.
var Suites = []Suite{
	{Name: "router", File: "BENCH_pr2.json", Collect: collect(CollectRouterBaseline), Figure: FigureRouter},
	{Name: "merger", File: "BENCH_pr3.json", Collect: collect(CollectMergerBaseline), Figure: FigureMerger},
	{Name: "scheduler", File: "BENCH_pr4.json", Collect: collect(CollectSchedulerBaseline), Figure: FigureScheduler},
	{Name: "faults", File: "BENCH_pr5.json", Collect: collect(CollectFaultsBaseline), Figure: FigureFaults},
	{Name: "obsv", File: "BENCH_pr6.json", Collect: collect(CollectObsvBaseline), Figure: FigureObsv,
		HostBound: obsvHostBound},
	{Name: "exitless", File: "BENCH_pr7.json", Collect: collect(CollectExitlessBaseline), Figure: FigureExitless},
	{Name: "simspeed", File: "BENCH_pr8.json", Collect: collect(CollectSimspeedBaseline), Figure: FigureSimspeed,
		Check: checkSimspeed, HostBound: simspeedHostBound},
	{Name: "density", File: "BENCH_pr9.json", Collect: collect(CollectDensityBaseline), Figure: FigureDensity},
	{Name: "grid", File: "BENCH_pr10.json", Collect: collect(CollectGridBaseline), Figure: FigureGrid},
}

// collect adapts a typed collection function to Suite.Collect.
func collect[T any](f func() (*T, error)) func() (any, error) {
	return func() (any, error) { return f() }
}

// SuiteByName looks a suite up in the table.
func SuiteByName(name string) (Suite, bool) {
	for _, s := range Suites {
		if s.Name == name {
			return s, true
		}
	}
	return Suite{}, false
}

// regenerateNote is the note every pinned document carries: the two
// commands that regenerate it.
func regenerateNote(suite string) string {
	return fmt.Sprintf("regenerate: MV_UPDATE_BASELINE=1 go test ./internal/bench -run 'TestBaselines/%s$' (or mvtool bench -suite %s -json)",
		suite, suite)
}

// Encode renders a baseline document as its canonical pinned bytes:
// two-space indented JSON with a trailing newline.
func Encode(doc any) ([]byte, error) {
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Baseline collects the suite and returns the document with its
// canonical encoding.
func (s Suite) Baseline() (any, []byte, error) {
	doc, err := s.Collect()
	if err != nil {
		return nil, nil, fmt.Errorf("suite %s: %w", s.Name, err)
	}
	blob, err := Encode(doc)
	return doc, blob, err
}

// Verify is the suite's deterministic check of a fresh document (and its
// encoding) against the pinned bytes.
func (s Suite) Verify(pinned []byte, fresh any, blob []byte) error {
	if s.Check != nil {
		return s.Check(pinned, fresh)
	}
	if bytes.Equal(pinned, blob) {
		return nil
	}
	want, got := strings.Split(string(pinned), "\n"), strings.Split(string(blob), "\n")
	for i := 0; ; i++ {
		if i >= len(want) || i >= len(got) || want[i] != got[i] {
			return fmt.Errorf("suite %s drifted from %s at line %d:\npinned: %s\nfresh:  %s\n%s",
				s.Name, s.File, i+1, lineAt(want, i), lineAt(got, i), regenerateNote(s.Name))
		}
	}
}

// lineAt returns lines[i], or a marker past the end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of file>"
}
