package scheme

import (
	"math"
	"sort"
	"testing"

	"multiverse/internal/core"
	"multiverse/internal/cycles"
)

// codedNames lists the coded builtins in code order.
func codedNames() []string {
	names := make([]string, 0, len(primCodes))
	for name := range primCodes {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return primCodes[names[i]] < primCodes[names[j]] })
	return names
}

// newPrimTestInterp boots a native interpreter for the primitive tests.
func newPrimTestInterp(tb testing.TB) *Interp {
	tb.Helper()
	sys, err := core.NewSystem(nil, core.Options{AppName: "prim-test"})
	if err != nil {
		tb.Fatalf("NewSystem: %v", err)
	}
	in, err := NewInterp(sys.NativeEnv())
	if err != nil {
		tb.Fatalf("NewInterp: %v", err)
	}
	return in
}

// Operand values the fuzz input indexes: fixnums and indices, boxed ints,
// ints beyond ±2^53, ints whose sums and products overflow int64, and
// floats with their edge cases.
var (
	primInts = []int64{
		0, 1, 2, 3, -1, -7, 4096, 4097, -128, -129,
		1<<53 + 1, -(1<<53 + 1), 1 << 53, math.MaxInt64, math.MinInt64, 1 << 62,
	}
	primFloats = []float64{
		0, math.Copysign(0, -1), 1.5, -2.5, 2, math.NaN(),
		math.Inf(1), math.Inf(-1), 1e308, 0.1,
	}
)

// primOperand builds one operand from a kind byte and a value byte: a
// number, a pair, a vector or a string of up to three elements, a
// character, or '().
func primOperand(in *Interp, kind, val byte) *Obj {
	n := int(val % 4)
	switch kind % 7 {
	case 0:
		return in.NewInt(primInts[int(val)%len(primInts)])
	case 1:
		return in.NewFloat(primFloats[int(val)%len(primFloats)])
	case 2:
		return in.Cons(in.NewInt(int64(val)), in.NewFloat(float64(val)/2))
	case 3:
		v := make([]*Obj, n)
		for i := range v {
			v[i] = in.NewInt(int64(i) * 10)
		}
		return in.NewVector(v)
	case 4:
		b := make([]byte, n)
		for i := range b {
			b[i] = 'a' + byte(i)
		}
		return in.NewString(b)
	case 5:
		return in.NewChar(rune('a' + val%26))
	default:
		return Nil
	}
}

// primOutcome is everything one application leaves behind.
type primOutcome struct {
	Kind       Kind
	Bits       int64  // Int of the value: a float's bits, an int, a char
	Out        string // the written value, or the error text
	Operands   string // the operands, written after the application
	HeapBytes  uint64 // simulated-heap bytes allocated
	Cycles     cycles.Cycles
	Faults     uint64 // write-barrier faults taken
	Reductions uint64
}

// applyCoded builds the operands that ops encode (two bytes each, at most
// four operands) and applies the builtin name to them. With inline, the
// application takes the evaluator's path, inline for a coded builtin with
// at most maxPrimOperands operands; without it, the operands go onto the
// operand stack and Fn applies them. With old, the operands sit in
// write-protected old segments, so a store to them takes a barrier fault.
func applyCoded(in *Interp, name string, ops []byte, old, inline bool) primOutcome {
	g := in.gc
	if old || g.allocBytes > gcMinHeap {
		g.Collect()
	}
	args := make([]*Obj, 0, 4)
	for i := 0; i+1 < len(ops) && len(args) < 4; i += 2 {
		args = append(args, primOperand(in, ops[i], ops[i+1]))
	}
	keep := in.NewVector(append([]*Obj(nil), args...))
	in.global.Define(in.Intern("prim-test-operands"), keep) // a root
	if old {
		g.Collect() // the operands are old and protected now
	}
	g.threshold = math.MaxUint64 // no collection inside the application

	fn := in.global.lookup(in.Intern(name))
	nodes := make([]*node, len(args))
	for i, a := range args {
		nodes[i] = &node{op: opConst, val: a}
	}
	clock := func() cycles.Cycles { return in.os.Clock().Now() + in.pendingCompute }
	heap0, cyc0, faults0, red0 := g.allocBytes, clock(), g.BarrierFaults, in.reductions
	var v *Obj
	var err error
	if inline && fn.special != primNone && len(nodes) <= maxPrimOperands {
		v, err = in.applyPrim(fn, nodes, in.global)
	} else {
		v, err = in.applyBuiltin(fn, nodes, in.global)
	}
	out := primOutcome{
		HeapBytes:  g.allocBytes - heap0,
		Cycles:     clock() - cyc0,
		Faults:     g.BarrierFaults - faults0,
		Reductions: in.reductions - red0,
		Operands:   WriteString(keep),
	}
	if err != nil {
		out.Out = err.Error()
	} else {
		out.Kind, out.Bits, out.Out = v.Kind, v.Int, WriteString(v)
	}
	return out
}

// FuzzPrimMatchesBuiltin: applying a coded builtin inline gives what its
// Fn gives for the same operands — the same value (kind and bits), the
// same error text, the same simulated-heap allocation, cycles, barrier
// faults and reductions, and the same operands afterwards. Two
// interpreters run in lockstep, one applying inline and one through Fn.
func FuzzPrimMatchesBuiltin(f *testing.F) {
	names := codedNames()
	kinds := []byte{0, 1, 2, 3, 4, 5, 6}
	for code := range names {
		for n := 0; n <= 4; n++ {
			for k, kind := range kinds {
				// Either the first operand has each kind in turn and the
				// rest are ints (the third a char), so index and arity
				// cases come up, or every operand has the same kind.
				for _, same := range []bool{false, true} {
					if same && n < 2 {
						continue // the same seed as !same
					}
					ops := make([]byte, 0, 2*n)
					for i := 0; i < n; i++ {
						opKind := kind
						if !same && i == 2 {
							opKind = 5
						} else if !same && i > 0 {
							opKind = 0
						}
						ops = append(ops, opKind, byte(k+3*i))
					}
					f.Add(uint8(code), ops, same)
				}
			}
		}
	}
	// Numeric primitives: every mix of ints and floats in two operands,
	// each value with the one two places on in the tables, and in three
	// operands around the value 1 from the tables' edge values.
	for code, name := range names {
		if c := primCodes[name]; c < primAdd || c > primGe {
			continue
		}
		for i := range primInts {
			j := byte((i + 2) % len(primInts))
			for mix := byte(0); mix < 4; mix++ {
				f.Add(uint8(code), []byte{mix & 1, byte(i), mix >> 1, j}, false)
			}
		}
		for _, i := range []byte{10, 12, 13, 14} {
			for mix := byte(0); mix < 8; mix++ {
				f.Add(uint8(code), []byte{mix & 1, i, mix >> 1 & 1, 1, mix >> 2, i}, false)
			}
		}
	}
	// Indexed primitives: each index from -7 to 3 into each length from
	// 0 to 3, in the nursery and in an old segment.
	for code, name := range names {
		kind := byte(3)
		switch name {
		case "string-ref", "string-set!":
			kind = 4
		case "vector-ref", "vector-set!":
		default:
			continue
		}
		for length := byte(0); length < 4; length++ {
			for idx := byte(0); idx < 6; idx++ {
				ops := []byte{kind, length, 0, idx, 5, idx}
				if name == "vector-ref" || name == "string-ref" {
					ops = ops[:4]
				}
				for _, old := range []bool{false, true} {
					f.Add(uint8(code), ops, old)
				}
			}
		}
	}
	inline, ref := newPrimTestInterp(f), newPrimTestInterp(f)
	f.Fuzz(func(t *testing.T, code uint8, ops []byte, old bool) {
		name := names[int(code)%len(names)]
		got := applyCoded(inline, name, ops, old, true)
		want := applyCoded(ref, name, ops, old, false)
		if got != want {
			t.Fatalf("%s on %v (old %v):\ninline %#v\n    Fn %#v", name, ops, old, got, want)
		}
	})
}

// TestPrimCodesStamped: each coded builtin carries its name's code, and
// no other builtin carries one.
func TestPrimCodesStamped(t *testing.T) {
	in := newPrimTestInterp(t)
	coded := 0
	for sym, c := range in.global.big {
		b := c.v
		if b.Kind != KBuiltin {
			continue
		}
		want := primCodes[string(sym.ext.Str)]
		if b.special != want {
			t.Errorf("%s: code %d, want %d", sym.ext.Str, b.special, want)
		}
		if want != primNone {
			coded++
		}
	}
	if coded != len(primCodes) {
		t.Errorf("%d coded builtins bound, want %d", coded, len(primCodes))
	}
}
