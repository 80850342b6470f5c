package vcode_test

import (
	"bytes"
	"strings"
	"testing"

	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/linuxabi"
	"multiverse/internal/vcode"
	"multiverse/internal/vfs"
)

// runVCode executes a program in the given world and returns the system
// plus any run error.
func runVCode(t *testing.T, world core.World, src string) (*core.System, error) {
	t.Helper()
	sys, err := bench.NewSystemForWorld(world, core.Options{FS: vfs.New(), AppName: "vcode"})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := vcode.Parse(src)
	if err != nil {
		return sys, err
	}
	var runErr error
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		vm := vcode.NewVM(env)
		runErr = vm.Run(prog)
		if vm.Depth() != 0 && runErr == nil {
			runErr = errLeftover
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	return sys, runErr
}

var errLeftover = &leftoverErr{}

type leftoverErr struct{}

func (*leftoverErr) Error() string { return "stack not empty at exit" }

const dotProduct = `
; dot product of [0..7] with itself, scaled by 2
IOTA 8
DUP
MUL
SUM
SCALE 2
WRITE
HALT
`

func TestDotProduct(t *testing.T) {
	sys, err := runVCode(t, core.WorldNative, dotProduct)
	if err != nil {
		t.Fatal(err)
	}
	// sum(i^2, i<8) = 140; x2 = 280
	if got := string(sys.Proc.Stdout()); got != "[280]\n" {
		t.Errorf("output = %q", got)
	}
}

func TestPrefixSumAndReductions(t *testing.T) {
	sys, err := runVCode(t, core.WorldNative, `
IOTA 5
SCAN
WRITE
CONST 3 7
SUM
WRITE
IOTA 4
MAX
WRITE
HALT`)
	if err != nil {
		t.Fatal(err)
	}
	want := "[0 1 3 6 10]\n[21]\n[3]\n"
	if got := string(sys.Proc.Stdout()); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestVMErrors(t *testing.T) {
	cases := []string{
		"ADD",                    // underflow
		"BOGUS",                  // unknown op
		"CONST 4 1\nIOTA 3\nADD", // length mismatch
		"CONST 1",                // missing operand
	}
	for _, src := range cases {
		if _, err := runVCode(t, core.WorldNative, src); err == nil {
			t.Errorf("program %q ran without error", src)
		}
	}
	if _, err := vcode.Parse("CONST x y"); err == nil {
		t.Error("non-numeric operand parsed")
	}
}

// TestVCodeHybridized: the second runtime hybridizes exactly like the
// first — identical output, with its vector mmap/munmap traffic forwarded.
func TestVCodeHybridized(t *testing.T) {
	var outputs [][]byte
	for _, w := range []core.World{core.WorldNative, core.WorldVirtual, core.WorldHRT} {
		sys, err := runVCode(t, w, dotProduct)
		if err != nil {
			t.Fatalf("%v: %v", w, err)
		}
		outputs = append(outputs, sys.Proc.Stdout())
		if w == core.WorldHRT {
			if sys.AK.ForwardedSyscalls() == 0 || sys.AK.ForwardedFaults() == 0 {
				t.Error("VCODE run forwarded nothing — not hybridized?")
			}
			st := sys.Proc.Stats()
			if st.Syscalls[linuxabi.SysMmap] == 0 || st.Syscalls[linuxabi.SysMunmap] == 0 {
				t.Error("vector memory traffic missing")
			}
		}
	}
	if !bytes.Equal(outputs[0], outputs[1]) || !bytes.Equal(outputs[0], outputs[2]) {
		t.Error("VCODE output differs across worlds")
	}
}

func TestParseComments(t *testing.T) {
	p, err := vcode.Parse("; header\n\nIOTA 3\n  ; indented comment\nPOP\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Ops) != 2 {
		t.Errorf("ops = %d", len(p.Ops))
	}
	if !strings.EqualFold(p.Ops[0].Name, "IOTA") {
		t.Errorf("first op = %s", p.Ops[0].Name)
	}
}
