package bench

import (
	"bytes"
	"strings"
	"testing"

	"multiverse/internal/core"
	"multiverse/internal/telemetry"
)

// traceRun executes one traced multiverse benchmark run and returns the
// exported Chrome trace JSON.
func traceRun(t *testing.T, progName string) []byte {
	t.Helper()
	p, ok := ProgramByName(progName)
	if !ok {
		t.Fatalf("unknown program %q", progName)
	}
	tr := telemetry.New()
	if _, err := RunBenchmark(p, core.WorldHRT, core.Options{Tracer: tr}, false); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceGoldenDeterminism extends the repository's reproducibility
// claim to the telemetry layer: the exported Chrome trace of a run is
// byte-identical across independent runs, and it contains the spans the
// paper's boundary-crossing story is told in.
func TestTraceGoldenDeterminism(t *testing.T) {
	a := traceRun(t, "fasta")
	b := traceRun(t, "fasta")
	if !bytes.Equal(a, b) {
		// Find the first differing line for a usable failure message.
		la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
		for i := 0; i < len(la) && i < len(lb); i++ {
			if la[i] != lb[i] {
				t.Fatalf("trace differs across runs at line %d:\n  run1: %s\n  run2: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("trace differs across runs: %d vs %d bytes", len(a), len(b))
	}

	out := string(a)
	for _, span := range []string{
		`"name":"forward:syscall"`,
		`"name":"forward:page-fault"`,
		`"name":"merger"`,
		`"name":"gc-pause"`,
		`"name":"mark"`,
		`"name":"sweep"`,
	} {
		if !strings.Contains(out, span) {
			t.Errorf("trace missing %s", span)
		}
	}
	// Flow links stitch the HRT side to the ROS service side.
	if !strings.Contains(out, `"ph":"s"`) || !strings.Contains(out, `"ph":"f"`) {
		t.Error("trace has no flow events")
	}
}

// TestTracedRunMatchesUntraced is the no-observer-effect check at the
// system level: a traced run and an untraced run of the same program
// agree on every virtual-time outcome.
func TestTracedRunMatchesUntraced(t *testing.T) {
	p, _ := ProgramByName("fasta")
	plain, err := RunBenchmark(p, core.WorldHRT, core.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunBenchmark(p, core.WorldHRT, core.Options{Tracer: telemetry.New()}, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cycles != traced.Cycles {
		t.Errorf("tracing changed runtime: %d vs %d cycles", plain.Cycles, traced.Cycles)
	}
	if plain.ForwardedSyscalls != traced.ForwardedSyscalls ||
		plain.ForwardedFaults != traced.ForwardedFaults ||
		plain.Merges != traced.Merges {
		t.Error("tracing changed boundary accounting")
	}
	if !bytes.Equal(plain.Output, traced.Output) {
		t.Error("tracing changed program output")
	}
}
