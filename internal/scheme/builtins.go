package scheme

import (
	"math"
	"strconv"

	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
)

// installBuiltins populates the global environment. Builtins charge work
// through tick() at application sites plus explicit charges for
// data-proportional operations.
func installBuiltins(in *Interp) {
	def := in.defineBuiltin

	wantArgs := func(name string, args []*Obj, n int) error {
		if len(args) != n {
			return evalError("%s: want %d args, got %d", name, n, len(args))
		}
		return nil
	}

	// ---- pairs & lists ------------------------------------------------

	def("cons", func(in *Interp, a []*Obj) (*Obj, error) {
		if err := wantArgs("cons", a, 2); err != nil {
			return nil, err
		}
		return in.Cons(a[0], a[1]), nil
	})
	def("car", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KPair {
			return nil, evalError("car: not a pair")
		}
		return a[0].Car, nil
	})
	def("cdr", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KPair {
			return nil, evalError("cdr: not a pair")
		}
		return a[0].Cdr, nil
	})
	def("set-car!", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[0].Kind != KPair {
			return nil, evalError("set-car!: not a pair")
		}
		in.gc.WriteBarrier(a[0])
		a[0].Car = a[1]
		return Unspecified, nil
	})
	def("set-cdr!", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[0].Kind != KPair {
			return nil, evalError("set-cdr!: not a pair")
		}
		in.gc.WriteBarrier(a[0])
		a[0].Cdr = a[1]
		return Unspecified, nil
	})
	// Compound accessors.
	compound := map[string]string{
		"caar": "aa", "cadr": "da", "cdar": "ad", "cddr": "dd",
		"caddr": "dda", "cadddr": "ddda", "cdddr": "ddd",
	}
	for name, path := range compound {
		p := path
		n := name
		def(n, func(in *Interp, a []*Obj) (*Obj, error) {
			if len(a) != 1 {
				return nil, evalError("%s: want 1 arg", n)
			}
			o := a[0]
			for _, step := range p {
				if o.Kind != KPair {
					return nil, evalError("%s: not a pair", n)
				}
				if step == 'a' {
					o = o.Car
				} else {
					o = o.Cdr
				}
			}
			return o, nil
		})
	}
	def("list", func(in *Interp, a []*Obj) (*Obj, error) { return in.List(a...), nil })
	def("length", func(in *Interp, a []*Obj) (*Obj, error) {
		if err := wantArgs("length", a, 1); err != nil {
			return nil, err
		}
		n := int64(0)
		for cur := a[0]; cur.Kind == KPair; cur = cur.Cdr {
			n++
		}
		in.charge(4 * uint64AsCycles(n))
		return in.NewInt(n), nil
	})
	def("append", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) == 0 {
			return Nil, nil
		}
		out := a[len(a)-1]
		for i := len(a) - 2; i >= 0; i-- {
			items, ok := ListToSlice(a[i])
			if !ok {
				return nil, evalError("append: improper list")
			}
			for j := len(items) - 1; j >= 0; j-- {
				out = in.Cons(items[j], out)
			}
		}
		return out, nil
	})
	def("reverse", func(in *Interp, a []*Obj) (*Obj, error) {
		if err := wantArgs("reverse", a, 1); err != nil {
			return nil, err
		}
		out := Nil
		for cur := a[0]; cur.Kind == KPair; cur = cur.Cdr {
			out = in.Cons(cur.Car, out)
		}
		return out, nil
	})
	def("list-ref", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[1].Kind != KInt {
			return nil, evalError("list-ref: malformed")
		}
		cur := a[0]
		for i := int64(0); i < a[1].Int; i++ {
			if cur.Kind != KPair {
				return nil, evalError("list-ref: index out of range")
			}
			cur = cur.Cdr
		}
		if cur.Kind != KPair {
			return nil, evalError("list-ref: index out of range")
		}
		return cur.Car, nil
	})
	def("list-tail", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[1].Kind != KInt {
			return nil, evalError("list-tail: malformed")
		}
		cur := a[0]
		for i := int64(0); i < a[1].Int; i++ {
			if cur.Kind != KPair {
				return nil, evalError("list-tail: index out of range")
			}
			cur = cur.Cdr
		}
		return cur, nil
	})
	member := func(name string, eq func(a, b *Obj) bool) func(*Interp, []*Obj) (*Obj, error) {
		return func(in *Interp, a []*Obj) (*Obj, error) {
			if len(a) != 2 {
				return nil, evalError("%s: want 2 args", name)
			}
			for cur := a[1]; cur.Kind == KPair; cur = cur.Cdr {
				if eq(a[0], cur.Car) {
					return cur, nil
				}
			}
			return False, nil
		}
	}
	def("memq", member("memq", func(a, b *Obj) bool { return a == b || eqv(a, b) }))
	def("member", member("member", equalObj))
	assoc := func(name string, eq func(a, b *Obj) bool) func(*Interp, []*Obj) (*Obj, error) {
		return func(in *Interp, a []*Obj) (*Obj, error) {
			if len(a) != 2 {
				return nil, evalError("%s: want 2 args", name)
			}
			for cur := a[1]; cur.Kind == KPair; cur = cur.Cdr {
				if cur.Car.Kind == KPair && eq(a[0], cur.Car.Car) {
					return cur.Car, nil
				}
			}
			return False, nil
		}
	}
	def("assq", assoc("assq", func(a, b *Obj) bool { return a == b || eqv(a, b) }))
	def("assoc", assoc("assoc", equalObj))
	def("map", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) < 2 {
			return nil, evalError("map: want proc + list(s)")
		}
		lists := make([][]*Obj, len(a)-1)
		n := -1
		for i, l := range a[1:] {
			items, ok := ListToSlice(l)
			if !ok {
				return nil, evalError("map: improper list")
			}
			lists[i] = items
			if n < 0 || len(items) < n {
				n = len(items)
			}
		}
		var out []*Obj
		for i := 0; i < n; i++ {
			args := make([]*Obj, len(lists))
			for j := range lists {
				args[j] = lists[j][i]
			}
			v, err := in.Apply(a[0], args)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return in.List(out...), nil
	})
	def("for-each", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) < 2 {
			return nil, evalError("for-each: want proc + list(s)")
		}
		items, ok := ListToSlice(a[1])
		if !ok {
			return nil, evalError("for-each: improper list")
		}
		for _, it := range items {
			if _, err := in.Apply(a[0], []*Obj{it}); err != nil {
				return nil, err
			}
		}
		return Unspecified, nil
	})
	def("apply", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) < 2 {
			return nil, evalError("apply: want proc + args + list")
		}
		last, ok := ListToSlice(a[len(a)-1])
		if !ok {
			return nil, evalError("apply: last argument must be a list")
		}
		args := append(append([]*Obj(nil), a[1:len(a)-1]...), last...)
		return in.Apply(a[0], args)
	})

	// ---- numbers -------------------------------------------------------

	// The arithmetic and comparison builtins share their kernels with
	// the evaluator's inline primitives (prim.go).
	arith := func(name string, op uint8, unit int64) {
		def(name, func(in *Interp, a []*Obj) (*Obj, error) {
			if len(a) == 0 {
				return in.NewInt(unit), nil
			}
			if err := wantNumbers(name, a); err != nil {
				return nil, err
			}
			return in.arith(op, a), nil
		})
	}
	arith("+", primAdd, 0)
	arith("*", primMul, 1)
	arith("-", primSub, 0)
	def("/", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) == 0 {
			return nil, evalError("/: want at least 1 arg")
		}
		if err := wantNumbers("/", a); err != nil {
			return nil, err
		}
		return in.divide(a), nil
	})
	intBin := func(name string, op func(int64, int64) (int64, error)) {
		def(name, func(in *Interp, a []*Obj) (*Obj, error) {
			if len(a) != 2 || a[0].Kind != KInt || a[1].Kind != KInt {
				return nil, evalError("%s: want 2 integers", name)
			}
			v, err := op(a[0].Int, a[1].Int)
			if err != nil {
				return nil, err
			}
			return in.NewInt(v), nil
		})
	}
	intBin("quotient", func(a, b int64) (int64, error) {
		if b == 0 {
			return 0, evalError("quotient: division by zero")
		}
		return a / b, nil
	})
	intBin("remainder", func(a, b int64) (int64, error) {
		if b == 0 {
			return 0, evalError("remainder: division by zero")
		}
		return a % b, nil
	})
	intBin("modulo", func(a, b int64) (int64, error) {
		if b == 0 {
			return 0, evalError("modulo: division by zero")
		}
		return modulo(a, b), nil
	})
	intBin("bitwise-and", func(a, b int64) (int64, error) { return a & b, nil })
	intBin("bitwise-ior", func(a, b int64) (int64, error) { return a | b, nil })
	intBin("bitwise-xor", func(a, b int64) (int64, error) { return a ^ b, nil })
	intBin("arithmetic-shift", func(a, b int64) (int64, error) {
		if b >= 0 {
			return a << uint(b), nil
		}
		return a >> uint(-b), nil
	})

	cmp := func(name string, op uint8) {
		def(name, func(in *Interp, a []*Obj) (*Obj, error) {
			if len(a) < 2 {
				return nil, evalError("%s: want at least 2 args", name)
			}
			if err := wantNumbers(name, a); err != nil {
				return nil, err
			}
			return compare(op, a), nil
		})
	}
	cmp("=", primNumEq)
	cmp("<", primLt)
	cmp(">", primGt)
	cmp("<=", primLe)
	cmp(">=", primGe)

	def("min", minMax("min", func(a, b float64) bool { return a < b }))
	def("max", minMax("max", func(a, b float64) bool { return a > b }))

	numPred := func(name string, ok func(*Obj) bool) {
		def(name, func(in *Interp, a []*Obj) (*Obj, error) {
			if err := wantArgs(name, a, 1); err != nil {
				return nil, err
			}
			return Boolean(ok(a[0])), nil
		})
	}
	numPred("zero?", func(o *Obj) bool { return IsNumber(o) && AsFloat(o) == 0 })
	numPred("positive?", func(o *Obj) bool { return IsNumber(o) && AsFloat(o) > 0 })
	numPred("negative?", func(o *Obj) bool { return IsNumber(o) && AsFloat(o) < 0 })
	numPred("even?", func(o *Obj) bool { return o.Kind == KInt && o.Int%2 == 0 })
	numPred("odd?", func(o *Obj) bool { return o.Kind == KInt && o.Int%2 != 0 })
	numPred("number?", IsNumber)
	numPred("integer?", func(o *Obj) bool {
		return o.Kind == KInt || (o.Kind == KFloat && o.F() == math.Trunc(o.F()))
	})
	numPred("real?", IsNumber)
	numPred("exact?", func(o *Obj) bool { return o.Kind == KInt })
	numPred("inexact?", func(o *Obj) bool { return o.Kind == KFloat })

	def("add1", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || !IsNumber(a[0]) {
			return nil, evalError("add1: want a number")
		}
		if a[0].Kind == KInt {
			return in.NewInt(a[0].Int + 1), nil
		}
		return in.NewFloat(a[0].F() + 1), nil
	})
	def("sub1", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || !IsNumber(a[0]) {
			return nil, evalError("sub1: want a number")
		}
		if a[0].Kind == KInt {
			return in.NewInt(a[0].Int - 1), nil
		}
		return in.NewFloat(a[0].F() - 1), nil
	})
	def("abs", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || !IsNumber(a[0]) {
			return nil, evalError("abs: want a number")
		}
		if a[0].Kind == KInt {
			if a[0].Int < 0 {
				return in.NewInt(-a[0].Int), nil
			}
			return a[0], nil
		}
		return in.NewFloat(math.Abs(a[0].F())), nil
	})

	mathFn := func(name string, fn func(float64) float64) {
		def(name, func(in *Interp, a []*Obj) (*Obj, error) {
			if len(a) != 1 || !IsNumber(a[0]) {
				return nil, evalError("%s: want a number", name)
			}
			in.charge(60) // libm call
			return in.NewFloat(fn(AsFloat(a[0]))), nil
		})
	}
	mathFn("sqrt", math.Sqrt)
	mathFn("sin", math.Sin)
	mathFn("cos", math.Cos)
	mathFn("exp", math.Exp)
	mathFn("log", math.Log)
	mathFn("atan", math.Atan)

	def("expt", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || !IsNumber(a[0]) || !IsNumber(a[1]) {
			return nil, evalError("expt: want 2 numbers")
		}
		if a[0].Kind == KInt && a[1].Kind == KInt && a[1].Int >= 0 {
			out := int64(1)
			for i := int64(0); i < a[1].Int; i++ {
				out *= a[0].Int
			}
			return in.NewInt(out), nil
		}
		return in.NewFloat(math.Pow(AsFloat(a[0]), AsFloat(a[1]))), nil
	})
	roundFn := func(name string, fn func(float64) float64) {
		def(name, func(in *Interp, a []*Obj) (*Obj, error) {
			if len(a) != 1 || !IsNumber(a[0]) {
				return nil, evalError("%s: want a number", name)
			}
			if a[0].Kind == KInt {
				return a[0], nil
			}
			return in.NewFloat(fn(a[0].F())), nil
		})
	}
	roundFn("floor", math.Floor)
	roundFn("ceiling", math.Ceil)
	roundFn("truncate", math.Trunc)
	roundFn("round", math.RoundToEven)

	def("exact->inexact", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || !IsNumber(a[0]) {
			return nil, evalError("exact->inexact: want a number")
		}
		return in.NewFloat(AsFloat(a[0])), nil
	})
	def("inexact->exact", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || !IsNumber(a[0]) {
			return nil, evalError("inexact->exact: want a number")
		}
		return in.NewInt(int64(AsFloat(a[0]))), nil
	})
	def("number->string", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) < 1 || !IsNumber(a[0]) {
			return nil, evalError("number->string: want a number")
		}
		return in.NewString([]byte(WriteString(a[0]))), nil
	})
	def("string->number", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KString {
			return nil, evalError("string->number: want a string")
		}
		s := string(a[0].ext.Str)
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return in.NewInt(i), nil
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return in.NewFloat(f), nil
		}
		return False, nil
	})

	// ---- predicates ----------------------------------------------------

	numPred("null?", func(o *Obj) bool { return o.Kind == KNil })
	numPred("pair?", func(o *Obj) bool { return o.Kind == KPair })
	numPred("list?", func(o *Obj) bool { _, ok := ListToSlice(o); return ok })
	numPred("symbol?", func(o *Obj) bool { return o.Kind == KSymbol })
	numPred("string?", func(o *Obj) bool { return o.Kind == KString })
	numPred("vector?", func(o *Obj) bool { return o.Kind == KVector })
	numPred("char?", func(o *Obj) bool { return o.Kind == KChar })
	numPred("boolean?", func(o *Obj) bool { return o.Kind == KBool })
	numPred("procedure?", func(o *Obj) bool { return o.Kind == KClosure || o.Kind == KBuiltin })
	numPred("eof-object?", func(o *Obj) bool { return o.Kind == KEOF })

	def("not", func(in *Interp, a []*Obj) (*Obj, error) {
		if err := wantArgs("not", a, 1); err != nil {
			return nil, err
		}
		return Boolean(!Truthy(a[0])), nil
	})
	def("eq?", func(in *Interp, a []*Obj) (*Obj, error) {
		if err := wantArgs("eq?", a, 2); err != nil {
			return nil, err
		}
		return Boolean(a[0] == a[1] || eqv(a[0], a[1])), nil
	})
	def("eqv?", func(in *Interp, a []*Obj) (*Obj, error) {
		if err := wantArgs("eqv?", a, 2); err != nil {
			return nil, err
		}
		return Boolean(eqv(a[0], a[1])), nil
	})
	def("equal?", func(in *Interp, a []*Obj) (*Obj, error) {
		if err := wantArgs("equal?", a, 2); err != nil {
			return nil, err
		}
		return Boolean(equalObj(a[0], a[1])), nil
	})

	// ---- vectors ---------------------------------------------------------

	def("vector", func(in *Interp, a []*Obj) (*Obj, error) {
		return in.NewVector(append([]*Obj(nil), a...)), nil
	})
	def("make-vector", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) < 1 || a[0].Kind != KInt || a[0].Int < 0 {
			return nil, evalError("make-vector: want a size")
		}
		fill := Unspecified
		if len(a) >= 2 {
			fill = a[1]
		}
		v := make([]*Obj, a[0].Int)
		for i := range v {
			v[i] = fill
		}
		in.charge(2 * uint64AsCycles(a[0].Int))
		return in.NewVector(v), nil
	})
	def("vector-ref", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[0].Kind != KVector || a[1].Kind != KInt {
			return nil, evalError("vector-ref: malformed")
		}
		i := a[1].Int
		if i < 0 || i >= int64(len(a[0].ext.Vec)) {
			return nil, evalError("vector-ref: index %d out of range [0,%d)", i, len(a[0].ext.Vec))
		}
		return a[0].ext.Vec[i], nil
	})
	def("vector-set!", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 3 || a[0].Kind != KVector || a[1].Kind != KInt {
			return nil, evalError("vector-set!: malformed")
		}
		i := a[1].Int
		if i < 0 || i >= int64(len(a[0].ext.Vec)) {
			return nil, evalError("vector-set!: index %d out of range [0,%d)", i, len(a[0].ext.Vec))
		}
		in.gc.WriteBarrier(a[0])
		a[0].ext.Vec[i] = a[2]
		return Unspecified, nil
	})
	def("vector-length", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KVector {
			return nil, evalError("vector-length: want a vector")
		}
		return in.NewInt(int64(len(a[0].ext.Vec))), nil
	})
	def("vector-fill!", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[0].Kind != KVector {
			return nil, evalError("vector-fill!: malformed")
		}
		in.gc.WriteBarrier(a[0])
		for i := range a[0].ext.Vec {
			a[0].ext.Vec[i] = a[1]
		}
		in.charge(2 * uint64AsCycles(int64(len(a[0].ext.Vec))))
		return Unspecified, nil
	})
	def("vector->list", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KVector {
			return nil, evalError("vector->list: want a vector")
		}
		return in.List(a[0].ext.Vec...), nil
	})
	def("list->vector", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 {
			return nil, evalError("list->vector: want a list")
		}
		items, ok := ListToSlice(a[0])
		if !ok {
			return nil, evalError("list->vector: improper list")
		}
		return in.NewVector(items), nil
	})

	// ---- strings & chars -------------------------------------------------

	def("string-length", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KString {
			return nil, evalError("string-length: want a string")
		}
		return in.NewInt(int64(len(a[0].ext.Str))), nil
	})
	def("string-ref", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[0].Kind != KString || a[1].Kind != KInt {
			return nil, evalError("string-ref: malformed")
		}
		i := a[1].Int
		if i < 0 || i >= int64(len(a[0].ext.Str)) {
			return nil, evalError("string-ref: index out of range")
		}
		return in.NewChar(rune(a[0].ext.Str[i])), nil
	})
	def("string-set!", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 3 || a[0].Kind != KString || a[1].Kind != KInt || a[2].Kind != KChar {
			return nil, evalError("string-set!: malformed")
		}
		i := a[1].Int
		if i < 0 || i >= int64(len(a[0].ext.Str)) {
			return nil, evalError("string-set!: index out of range")
		}
		in.gc.WriteBarrier(a[0])
		a[0].ext.Str[i] = byte(a[2].Int)
		return Unspecified, nil
	})
	def("make-string", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) < 1 || a[0].Kind != KInt || a[0].Int < 0 {
			return nil, evalError("make-string: want a size")
		}
		fill := byte(' ')
		if len(a) >= 2 && a[1].Kind == KChar {
			fill = byte(a[1].Int)
		}
		b := make([]byte, a[0].Int)
		for i := range b {
			b[i] = fill
		}
		return in.NewString(b), nil
	})
	def("string-append", func(in *Interp, a []*Obj) (*Obj, error) {
		var b []byte
		for _, o := range a {
			if o.Kind != KString {
				return nil, evalError("string-append: want strings")
			}
			b = append(b, o.ext.Str...)
		}
		in.charge(uint64AsCycles(int64(len(b))))
		return in.NewString(b), nil
	})
	def("substring", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) < 2 || a[0].Kind != KString || a[1].Kind != KInt {
			return nil, evalError("substring: malformed")
		}
		lo := a[1].Int
		hi := int64(len(a[0].ext.Str))
		if len(a) >= 3 {
			if a[2].Kind != KInt {
				return nil, evalError("substring: malformed")
			}
			hi = a[2].Int
		}
		if lo < 0 || hi > int64(len(a[0].ext.Str)) || lo > hi {
			return nil, evalError("substring: range out of bounds")
		}
		return in.NewString(append([]byte(nil), a[0].ext.Str[lo:hi]...)), nil
	})
	def("string=?", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[0].Kind != KString || a[1].Kind != KString {
			return nil, evalError("string=?: want 2 strings")
		}
		return Boolean(string(a[0].ext.Str) == string(a[1].ext.Str)), nil
	})
	def("string->symbol", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KString {
			return nil, evalError("string->symbol: want a string")
		}
		return in.Intern(string(a[0].ext.Str)), nil
	})
	def("symbol->string", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KSymbol {
			return nil, evalError("symbol->string: want a symbol")
		}
		return in.NewString(append([]byte(nil), a[0].ext.Str...)), nil
	})
	def("string->list", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KString {
			return nil, evalError("string->list: want a string")
		}
		chars := make([]*Obj, len(a[0].ext.Str))
		for i, c := range a[0].ext.Str {
			chars[i] = in.NewChar(rune(c))
		}
		return in.List(chars...), nil
	})
	def("list->string", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 {
			return nil, evalError("list->string: want a list")
		}
		items, ok := ListToSlice(a[0])
		if !ok {
			return nil, evalError("list->string: improper list")
		}
		b := make([]byte, len(items))
		for i, c := range items {
			if c.Kind != KChar {
				return nil, evalError("list->string: non-char element")
			}
			b[i] = byte(c.Int)
		}
		return in.NewString(b), nil
	})
	def("string-copy", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KString {
			return nil, evalError("string-copy: want a string")
		}
		return in.NewString(append([]byte(nil), a[0].ext.Str...)), nil
	})
	def("char->integer", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KChar {
			return nil, evalError("char->integer: want a char")
		}
		return in.NewInt(a[0].Int), nil
	})
	def("integer->char", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KInt {
			return nil, evalError("integer->char: want an integer")
		}
		return in.NewChar(rune(a[0].Int)), nil
	})
	def("char=?", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[0].Kind != KChar || a[1].Kind != KChar {
			return nil, evalError("char=?: want 2 chars")
		}
		return Boolean(a[0].Int == a[1].Int), nil
	})

	// ---- I/O and system --------------------------------------------------

	def("display", func(in *Interp, a []*Obj) (*Obj, error) {
		for _, o := range a {
			s := DisplayString(o)
			in.charge(uint64AsCycles(int64(len(s))))
			in.writeOut([]byte(s))
		}
		return Unspecified, nil
	})
	def("write", func(in *Interp, a []*Obj) (*Obj, error) {
		for _, o := range a {
			s := WriteString(o)
			in.charge(uint64AsCycles(int64(len(s))))
			in.writeOut([]byte(s))
		}
		return Unspecified, nil
	})
	def("newline", func(in *Interp, a []*Obj) (*Obj, error) {
		in.writeOut([]byte{'\n'})
		return Unspecified, nil
	})
	def("write-char", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KChar {
			return nil, evalError("write-char: want a char")
		}
		in.writeOut([]byte{byte(a[0].Int)})
		return Unspecified, nil
	})
	def("write-string", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KString {
			return nil, evalError("write-string: want a string")
		}
		in.writeOut(a[0].ext.Str)
		return Unspecified, nil
	})
	def("void", func(in *Interp, a []*Obj) (*Obj, error) { return Unspecified, nil })
	def("error", func(in *Interp, a []*Obj) (*Obj, error) {
		parts := make([]string, len(a))
		for i, o := range a {
			parts[i] = DisplayString(o)
		}
		msg := ""
		for i, p := range parts {
			if i > 0 {
				msg += " "
			}
			msg += p
		}
		return nil, evalError("error: %s", msg)
	})

	// getpid / current-inexact-milliseconds ride the vdso fast path, like
	// glibc would route them.
	def("getpid", func(in *Interp, a []*Obj) (*Obj, error) {
		in.flushCompute()
		v, errno := in.os.VDSO(linuxabi.SysGetpid)
		if errno != linuxabi.OK {
			return nil, evalError("getpid: %v", errno)
		}
		return in.NewInt(int64(v)), nil
	})
	def("current-inexact-milliseconds", func(in *Interp, a []*Obj) (*Obj, error) {
		in.flushCompute()
		v, errno := in.os.VDSO(linuxabi.SysGettimeofday)
		if errno != linuxabi.OK {
			return nil, evalError("current-inexact-milliseconds: %v", errno)
		}
		return in.NewFloat(float64(v) / 1000.0), nil
	})
	def("file->string", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KString {
			return nil, evalError("file->string: want a path")
		}
		data, err := in.readFile(string(a[0].ext.Str))
		if err != nil {
			return nil, err
		}
		return in.NewString(data), nil
	})
	def("file-size", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KString {
			return nil, evalError("file-size: want a path")
		}
		in.flushCompute()
		res := in.Sys(linuxabi.Call{Num: linuxabi.SysStat, Path: string(a[0].ext.Str)})
		if !res.Ok() {
			return nil, evalError("file-size: %v", res.Err)
		}
		st, ok := linuxabi.DecodeStat(res.Data)
		if !ok {
			return nil, evalError("file-size: malformed stat data")
		}
		return in.NewInt(int64(st.Size)), nil
	})
	def("collect-garbage", func(in *Interp, a []*Obj) (*Obj, error) {
		in.gc.Collect()
		return Unspecified, nil
	})
}

func minMax(name string, better func(a, b float64) bool) func(*Interp, []*Obj) (*Obj, error) {
	return func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) == 0 {
			return nil, evalError("%s: want at least 1 arg", name)
		}
		best := a[0]
		for _, o := range a[1:] {
			if !IsNumber(o) {
				return nil, evalError("%s: not a number", name)
			}
			if better(AsFloat(o), AsFloat(best)) {
				best = o
			}
		}
		return best, nil
	}
}

// uint64AsCycles scales data-size charges safely.
func uint64AsCycles(n int64) cycles.Cycles {
	if n < 0 {
		return 0
	}
	return cycles.Cycles(n)
}
