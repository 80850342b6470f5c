package bench

import (
	"strings"
	"testing"

	"multiverse/internal/core"
	"multiverse/internal/scheme"
)

// TestREPLInKernelMode is the paper's headline user experience: "the user
// sees precisely the same interface (an interactive REPL environment, for
// example) as out-of-the-box Racket" — while the engine runs as a kernel.
func TestREPLInKernelMode(t *testing.T) {
	input := "(+ 1 2)\n(define (sq x) (* x x))\n(sq 12)\n(car 5)\n(sq 3)\n"

	transcript := func(world core.World) string {
		fs, err := provisionFS(nil)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystemForWorld(world, core.Options{FS: fs, AppName: "repl"})
		if err != nil {
			t.Fatal(err)
		}
		sys.Proc.SetStdin([]byte(input))
		if _, err := sys.RunMain(func(env core.Env) uint64 {
			eng, eerr := scheme.NewEngine(env)
			if eerr != nil {
				t.Error(eerr)
				return 1
			}
			if eerr := eng.REPL(); eerr != nil {
				t.Error(eerr)
				return 1
			}
			eng.Shutdown()
			return 0
		}); err != nil {
			t.Fatal(err)
		}
		return string(sys.Proc.Stdout())
	}

	native := transcript(core.WorldNative)
	hybrid := transcript(core.WorldHRT)
	if native != hybrid {
		t.Fatalf("REPL transcripts differ:\nnative: %q\nhybrid: %q", native, hybrid)
	}
	for _, want := range []string{"> 3", "> 144", "> 9", "car: not a pair"} {
		if !strings.Contains(native, want) {
			t.Errorf("transcript missing %q:\n%s", want, native)
		}
	}
	// The error for (car 5) must not have killed the session: (sq 3)
	// still evaluated afterwards.
	if strings.Index(native, "car: not a pair") > strings.Index(native, "> 9") {
		t.Error("REPL did not continue past the error")
	}
}

// TestGoldenOutputs pins the deterministic full outputs of the two
// checksum-style benchmarks (identical across worlds by the other tests;
// identical across time by this one).
func TestGoldenOutputs(t *testing.T) {
	golden := map[string]string{
		"fannkuch-redux": "-18\nPfannkuchen(7) = 16\n", // checksum is enumeration-order dependent; ours uses Heap order
		"binary-tree-2": "stretch tree of depth 11\t check: 4095\n" +
			"1024\t trees of depth 4\t check: 31744\n" +
			"256\t trees of depth 6\t check: 32512\n" +
			"64\t trees of depth 8\t check: 32704\n" +
			"16\t trees of depth 10\t check: 32752\n" +
			"long lived tree of depth 10\t check: 2047\n",
	}
	for name, want := range golden {
		p, _ := ProgramByName(name)
		res, err := RunBenchmark(p, core.WorldNative, core.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if string(res.Output) != want {
			t.Errorf("%s output:\n%q\nwant:\n%q", name, res.Output, want)
		}
	}
}
