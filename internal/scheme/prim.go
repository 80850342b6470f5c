package scheme

// Inline primitives. The builtins that dominate the benchmark programs'
// applications carry a primitive code in Obj.special, and the evaluator
// applies them in place (applyPrim): operands go into locals instead of
// onto the operand stack, and one switch replaces the indirect call
// through Fn. The code rides on the builtin object, not on its name, so a
// call site still reads its operator's binding at run time: rebinding,
// shadowing or set! of a coded name changes what the site applies, and a
// coded builtin reached under another name or through an operator
// expression is still applied inline.

// Primitive codes. primNone marks builtins that always go through Fn.
const (
	primNone uint8 = iota
	primAdd
	primSub
	primMul
	primDiv
	primModulo
	primNumEq
	primLt
	primGt
	primLe
	primGe
	primCar
	primCdr
	primCons
	primVectorRef
	primVectorSet
	primVectorLength
	primStringRef
	primStringSet
)

// primCodes maps the coded builtins' names to their primitive codes;
// defineBuiltin stamps the code on the builtin it creates.
var primCodes = map[string]uint8{
	"+":             primAdd,
	"-":             primSub,
	"*":             primMul,
	"/":             primDiv,
	"modulo":        primModulo,
	"=":             primNumEq,
	"<":             primLt,
	">":             primGt,
	"<=":            primLe,
	">=":            primGe,
	"car":           primCar,
	"cdr":           primCdr,
	"cons":          primCons,
	"vector-ref":    primVectorRef,
	"vector-set!":   primVectorSet,
	"vector-length": primVectorLength,
	"string-ref":    primStringRef,
	"string-set!":   primStringSet,
}

// maxPrimOperands is the most operands an inline application takes; a
// longer one goes through the operand stack and Fn.
const maxPrimOperands = 3

// applyPrim evaluates operands into locals, with the reductions
// pushOperands would count, and applies the coded builtin fn to them.
// Operands that do not fit the primitive go to Fn as they are, without
// being evaluated again, so every result, allocation, charge and error
// text stays Fn's.
func (in *Interp) applyPrim(fn *Obj, operands []*node, env *Frame) (*Obj, error) {
	var buf [maxPrimOperands]*Obj
	a := buf[:len(operands)]
	for i, o := range operands {
		// As in pushOperands, constants and variables are evaluated
		// here, and every other operand through eval. The switch is
		// repeated rather than shared: a helper holding it would not be
		// inlined (tick alone nearly fills Go's inlining budget), and a
		// call per operand is what this path exists to save.
		var v *Obj
		var err error
		switch o.op {
		case opConst:
			in.tick()
			v = o.val
		case opRef:
			in.tick()
			if v = o.read(env); v == nil || v.Kind == KClosure {
				v, err = in.value(o, env)
			}
		default:
			v, err = in.eval(o, env)
		}
		if err != nil {
			return nil, err
		}
		a[i] = v
	}
	if v := in.prim(fn.special, a); v != nil {
		return v, nil
	}
	abase := len(in.argStack)
	in.argStack = append(in.argStack, a...)
	v, err := fn.ext.Fn(in, in.argStack[abase:])
	in.argStack = in.argStack[:abase]
	return v, err
}

// prim applies the primitive code to a, or returns nil when a does not
// fit it: a wrong arity, an operand of the wrong type, a zero divisor or
// an index out of range.
func (in *Interp) prim(code uint8, a []*Obj) *Obj {
	switch code {
	case primAdd, primSub, primMul:
		if len(a) > 0 && allNumbers(a) {
			return in.arith(code, a)
		}
	case primDiv:
		if len(a) > 0 && allNumbers(a) {
			return in.divide(a)
		}
	case primModulo:
		if len(a) == 2 && a[0].Kind == KInt && a[1].Kind == KInt && a[1].Int != 0 {
			return in.NewInt(modulo(a[0].Int, a[1].Int))
		}
	case primNumEq, primLt, primGt, primLe, primGe:
		if len(a) > 1 && allNumbers(a) {
			return compare(code, a)
		}
	case primCar:
		if len(a) == 1 && a[0].Kind == KPair {
			return a[0].Car
		}
	case primCdr:
		if len(a) == 1 && a[0].Kind == KPair {
			return a[0].Cdr
		}
	case primCons:
		if len(a) == 2 {
			return in.Cons(a[0], a[1])
		}
	case primVectorRef:
		if len(a) == 2 && a[0].Kind == KVector && a[1].Kind == KInt {
			if v := a[0].ext.Vec; uint64(a[1].Int) < uint64(len(v)) {
				return v[a[1].Int]
			}
		}
	case primVectorSet:
		if len(a) == 3 && a[0].Kind == KVector && a[1].Kind == KInt {
			if v := a[0].ext.Vec; uint64(a[1].Int) < uint64(len(v)) {
				in.gc.WriteBarrier(a[0])
				v[a[1].Int] = a[2]
				return Unspecified
			}
		}
	case primVectorLength:
		if len(a) == 1 && a[0].Kind == KVector {
			return in.NewInt(int64(len(a[0].ext.Vec)))
		}
	case primStringRef:
		if len(a) == 2 && a[0].Kind == KString && a[1].Kind == KInt {
			if s := a[0].ext.Str; uint64(a[1].Int) < uint64(len(s)) {
				return in.NewChar(rune(s[a[1].Int]))
			}
		}
	case primStringSet:
		if len(a) == 3 && a[0].Kind == KString && a[1].Kind == KInt && a[2].Kind == KChar {
			if s := a[0].ext.Str; uint64(a[1].Int) < uint64(len(s)) {
				in.gc.WriteBarrier(a[0])
				s[a[1].Int] = byte(a[2].Int)
				return Unspecified
			}
		}
	}
	return nil
}

// ---- Arithmetic kernels ---------------------------------------------------
//
// The n-ary builtins and the inline path share these, so each operator's
// arithmetic is defined once. Callers have checked the arity and that
// every operand is a number.

// allNumbers reports whether every operand is a number.
func allNumbers(a []*Obj) bool {
	for _, o := range a {
		if o.Kind != KInt && o.Kind != KFloat {
			return false
		}
	}
	return true
}

// wantNumbers is allNumbers with the builtins' error for the first
// operand that is not a number.
func wantNumbers(name string, a []*Obj) error {
	for _, o := range a {
		if !IsNumber(o) {
			return evalError("%s: not a number: %s", name, WriteString(o))
		}
	}
	return nil
}

// arith folds +, - or * over a, left to right. The result is an integer
// when every operand is one (wrapping as int64 does). Otherwise it is the
// float fold of every operand from the first, so an integer prefix is
// widened operand by operand, not as its exact integer result. A single
// operand of - is negated.
func (in *Interp) arith(op uint8, a []*Obj) *Obj {
	x := a[0]
	if len(a) == 1 && op == primSub {
		if x.Kind == KInt {
			return in.NewInt(-x.Int)
		}
		return in.NewFloat(-x.F())
	}
	if x.Kind == KInt {
		ai, i := x.Int, 1
		for ; i < len(a) && a[i].Kind == KInt; i++ {
			ai = intOp(op, ai, a[i].Int)
		}
		if i == len(a) {
			return in.NewInt(ai)
		}
	}
	af := AsFloat(x)
	for _, o := range a[1:] {
		af = floatOp(op, af, AsFloat(o))
	}
	return in.NewFloat(af)
}

func intOp(op uint8, x, y int64) int64 {
	switch op {
	case primAdd:
		return x + y
	case primSub:
		return x - y
	default:
		return x * y
	}
}

func floatOp(op uint8, x, y float64) float64 {
	switch op {
	case primAdd:
		return x + y
	case primSub:
		return x - y
	default:
		return x * y
	}
}

// divide folds / over a. One operand is inverted as a float. An integer
// quotient stays exact while each divisor is a nonzero integer that
// divides it; otherwise the result is the float fold.
func (in *Interp) divide(a []*Obj) *Obj {
	if len(a) == 1 {
		return in.NewFloat(1 / AsFloat(a[0]))
	}
	if a[0].Kind == KInt {
		acc := a[0].Int
		exact := true
		for _, o := range a[1:] {
			if o.Kind != KInt || o.Int == 0 || acc%o.Int != 0 {
				exact = false
				break
			}
			acc /= o.Int
		}
		if exact {
			return in.NewInt(acc)
		}
	}
	af := AsFloat(a[0])
	for _, o := range a[1:] {
		af /= AsFloat(o)
	}
	return in.NewFloat(af)
}

// modulo is the remainder with the divisor's sign; b is nonzero.
func modulo(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

// compare reports whether op holds between each adjacent pair of a. Every
// operand is compared as a float, integers included.
func compare(op uint8, a []*Obj) *Obj {
	for i := 0; i+1 < len(a); i++ {
		if !cmpOp(op, AsFloat(a[i]), AsFloat(a[i+1])) {
			return False
		}
	}
	return True
}

func cmpOp(op uint8, x, y float64) bool {
	switch op {
	case primNumEq:
		return x == y
	case primLt:
		return x < y
	case primGt:
		return x > y
	case primLe:
		return x <= y
	default:
		return x >= y
	}
}
