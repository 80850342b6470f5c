package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// Suite is one row of the figure registry: one table of the paper's
// evaluation or of an extension suite. `mvtool bench -suite all` prints
// every deterministic row in table order, and CI compares that output
// byte for byte with FIGURES.txt. A row with a File is also a pinned
// suite: TestBaselines checks its document against the file, CI
// byte-compares the `mvtool bench -suite NAME -json` output with it, and
// `mvtool bench -suite NAME -compare FILE` adds the suite's host-time
// bound, if it has one.
type Suite struct {
	Name string
	// File is the pinned document's name at the repository root. A row
	// without one is table-only and has no Collect.
	File string
	// Collect runs the suite and returns its document. It fails when any
	// of the suite's acceptance invariants does not hold, so a failing
	// collection can never be pinned.
	Collect func() (any, error)
	// Figure renders the row as a table; a pinned suite renders the
	// document its Collect returns.
	Figure func() (*Table, error)
	// Check compares a fresh document with the pinned bytes. Nil means
	// byte equality of the canonical encodings; only a suite whose
	// document carries host-time fields supplies its own, and its table
	// reads host time too, so `all` leaves it out.
	Check func(pinned []byte, fresh any) error
	// HostBound is the suite's host-time gate, run only by -compare and
	// never by tier-1 tests. It returns a one-line summary on success.
	HostBound func(pinned []byte, fresh any, tol float64) (string, error)
}

// Suites is the figure registry, in FIGURES.txt order: the paper's
// figures and tables, the pinned extension suites in the order they were
// added, then the ablations.
var Suites = []Suite{
	{Name: "2", Figure: Figure2},
	{Name: "9", Figure: Figure9},
	{Name: "10", Figure: Figure10},
	{Name: "11", Figure: Figure11},
	{Name: "12", Figure: Figure12},
	{Name: "13", Figure: Figure13},
	{Name: "primitives", Figure: PrimitivesTable},
	{Name: "hpcg", File: "BENCH_pr20.json", Collect: collect(CollectHPCGBaseline), Figure: FigureHPCG},
	{Name: "incremental", Figure: FigureIncremental},
	{Name: "router", File: "BENCH_pr2.json", Collect: collect(CollectRouterBaseline), Figure: FigureRouter},
	{Name: "merger", File: "BENCH_pr3.json", Collect: collect(CollectMergerBaseline), Figure: FigureMerger},
	{Name: "scheduler", File: "BENCH_pr4.json", Collect: collect(CollectSchedulerBaseline), Figure: FigureScheduler},
	{Name: "faults", File: "BENCH_pr5.json", Collect: collect(CollectFaultsBaseline), Figure: FigureFaults},
	{Name: "obsv", File: "BENCH_pr6.json", Collect: collect(CollectObsvBaseline), Figure: FigureObsv,
		HostBound: obsvHostBound},
	{Name: "simspeed", File: "BENCH_pr8.json", Collect: collect(CollectSimspeedBaseline), Figure: FigureSimspeed,
		Check: checkSimspeed, HostBound: simspeedHostBound},
	{Name: "density", File: "BENCH_pr9.json", Collect: collect(CollectDensityBaseline), Figure: FigureDensity},
	{Name: "grid", File: "BENCH_pr10.json", Collect: collect(CollectGridBaseline), Figure: FigureGrid},
	{Name: "ablations/symbol-cache", Figure: AblationSymbolCache},
	{Name: "ablations/remerge", Figure: AblationRemerge},
	{Name: "ablations/pinning", Figure: AblationPinning},
	{Name: "ablations/channel-kind", Figure: AblationChannelKind},
	{Name: "ablations/sync-syscalls", Figure: AblationSyncSyscalls},
}

// collect adapts a typed collection function to Suite.Collect.
func collect[T any](f func() (*T, error)) func() (any, error) {
	return func() (any, error) { return f() }
}

// Select returns the rows a -suite argument names: "all" is every
// deterministic row (FIGURES.txt), a group such as "ablations" is every
// row named "ablations/...", and any other name is the one row of that
// name. It returns nil for an unknown name.
func Select(name string) []Suite {
	var rows []Suite
	for _, s := range Suites {
		if (name == "all" && s.Check == nil) || s.Name == name || strings.HasPrefix(s.Name, name+"/") {
			rows = append(rows, s)
		}
	}
	return rows
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
