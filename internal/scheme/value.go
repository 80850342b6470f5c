// Package scheme is the runtime system Multiverse hybridizes in this
// reproduction: a from-scratch Scheme interpreter standing in for Racket.
//
// Like Racket, it is a dynamic-language runtime whose execution is full of
// low-level OS interactions (the paper's Figure 10 point): its heap is
// built from mmap'd segments, its garbage collector uses mprotect and
// SIGSEGV-driven write barriers (the SenoraGC/precise-GC discipline), its
// cooperative green threads ride on setitimer/poll, and it loads its
// prelude through the filesystem. Every one of those interactions goes
// through the simulated Linux ABI — natively, virtualized, or forwarded
// from kernel mode when hybridized.
package scheme

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind discriminates heap objects.
type Kind uint8

// Object kinds.
const (
	KNil Kind = iota
	KBool
	KInt
	KFloat
	KChar
	KSymbol
	KString
	KPair
	KVector
	KClosure
	KBuiltin
	KUnspecified
	KEOF
	KPort
)

// Obj is one Scheme value. Objects live in GC segments: Addr is the
// simulated heap address of the cell, and seg points at its segment for
// the write barrier. Immediate-like values (small ints, booleans, nil)
// are preallocated and have no segment.
//
// Every heap cell is an Obj in one of its segment's page-sized chunks, so
// the struct's size is what each chunk's allocation, its zeroing, and the
// host collector's scans pay for: it is held to 48 bytes. Only the pairs and floats that
// churn through the heap keep their payload inline (Car/Cdr, Int,
// Float); everything else rides in ext.
type Obj struct {
	Kind Kind

	// special is the evaluator's dispatch code. On a KSymbol it is the
	// special-form code (spIf, spLet, ...), stamped at intern time so the
	// hot loop dispatches on one byte instead of converting and comparing
	// the symbol name on every combination. On a KBuiltin it is the
	// primitive code (primAdd, primCar, ...; primNone for the rest),
	// stamped by defineBuiltin, which the evaluator applies inline. Every
	// other kind leaves it zero.
	special uint8

	// idx is the cell's index in its segment, so its simulated
	// heap address is seg.base + idx*cellBytes.
	idx uint16

	// mark is the collector's mark: the object is marked in the current
	// collection when mark equals GC.epoch. It shares the first word with
	// Kind, special and idx, so none of them costs the cell space.
	mark uint32

	// Int is a KInt's value, a KChar's code point and a KBool's truth; a
	// KFloat keeps its IEEE-754 bits here, read through F.
	Int int64
	Car *Obj
	Cdr *Obj

	// ext carries the fields of the kinds that are rare next to pairs and
	// floats: strings and symbols (Str), vectors (Vec) and procedures.
	ext *objExt

	seg *segment // nil for immediates
}

// F returns a KFloat's value.
func (o *Obj) F() float64 { return math.Float64frombits(uint64(o.Int)) }

// objExt is the side car of strings, symbols and builtins (Str), vectors
// (Vec) and builtins (Fn). A closure hangs its fields off it behind one
// more pointer (procExt), so a string or vector attaches 64 bytes, not a
// closure's worth. Creation sites attach it — NewString, NewVector,
// Intern, and the closure and builtin constructors — and every consumer
// dispatches on Kind first, so consumers never see it nil.
type objExt struct {
	Str []byte // KString (mutable, as in Scheme), KSymbol and KBuiltin (name)
	Vec []*Obj // KVector elements

	// Fn is a builtin's Go implementation.
	Fn func(in *Interp, args []*Obj) (*Obj, error)

	*procExt // KClosure
}

// procExt holds a closure's fields. A closure keeps its source (Params,
// Rest, Body) and its environment because the collector marks through
// them; it runs lam, the analyzed form of that source.
type procExt struct {
	Params []*Obj // parameter symbols
	Rest   *Obj   // rest parameter symbol or nil
	Body   []*Obj
	Env    *Frame
	lam    *lambda
}

// Special-form codes. spNone marks ordinary symbols.
const (
	spNone uint8 = iota
	spQuote
	spIf
	spDefine
	spSet
	spLambda
	spBegin
	spLet
	spLetStar
	spLetrec
	spCond
	spCase
	spAnd
	spOr
	spWhen
	spUnless
	spDo
	spQuasiquote
)

// specialCodes maps special-form names to their dispatch codes.
var specialCodes = map[string]uint8{
	"quote":      spQuote,
	"if":         spIf,
	"define":     spDefine,
	"set!":       spSet,
	"lambda":     spLambda,
	"begin":      spBegin,
	"let":        spLet,
	"let*":       spLetStar,
	"letrec":     spLetrec,
	"letrec*":    spLetrec,
	"cond":       spCond,
	"case":       spCase,
	"and":        spAnd,
	"or":         spOr,
	"when":       spWhen,
	"unless":     spUnless,
	"do":         spDo,
	"quasiquote": spQuasiquote,
}

// Preallocated immediates.
var (
	Nil         = &Obj{Kind: KNil}
	True        = &Obj{Kind: KBool, Int: 1}
	False       = &Obj{Kind: KBool}
	Unspecified = &Obj{Kind: KUnspecified}
	EOFObject   = &Obj{Kind: KEOF}
)

// Boolean wraps a Go bool.
func Boolean(b bool) *Obj {
	if b {
		return True
	}
	return False
}

// Truthy follows Scheme: everything but #f is true.
func Truthy(o *Obj) bool { return o != False }

// IsNumber reports int or float.
func IsNumber(o *Obj) bool { return o.Kind == KInt || o.Kind == KFloat }

// AsFloat widens a number to float64.
func AsFloat(o *Obj) float64 {
	if o.Kind == KInt {
		return float64(o.Int)
	}
	return o.F()
}

// frameInline is how many bindings a frame holds inline. Nearly every
// frame (lambda application, let, loop bodies) binds a handful of
// symbols; only wide frames — effectively just the global environment —
// spill into a map.
const frameInline = 8

// Frame is one lexical environment frame. Frames are heap-allocated
// conceptually but represented natively; the GC treats the frame chain as
// roots through the interpreter's thread state. Bindings live in a fixed
// inline array, with a spill map for frames wider than frameInline; the
// global frame keeps every binding in the map. Analysis resolves each
// variable reference to the frame that binds it and to its slot there
// (see Interp.ref), so the hot path indexes the arrays directly; the key
// compare guards the slot against internal defines that ran in another
// order or have not run yet.
type Frame struct {
	parent *Frame
	n      int
	slots  [frameInline]binding
	big    map[*Obj]*gcell // spill for wide frames; all of the global frame

	// seen is the collector's visit stamp (see GC.epoch).
	seen uint32

	// escaped pins the frame against recycling: it is set the moment the
	// frame becomes reachable from a closure (the only way a frame can
	// outlive the evaluation that created it). See Interp.newFrame.
	escaped bool

	// loopc ties a named-let loop closure's lifetime to this frame: the
	// closure is reachable only through this frame's binding of the loop
	// name, and every path that could leak it out (value-position lookup,
	// capture by a lambda) marks the frame escaped first. So when the
	// frame comes back unescaped, the closure is provably dead and goes
	// back on the interpreter's closure free list with it.
	loopc *Obj
}

// binding is one inline slot. Key and value sit side by side, so the
// slot guard and the read touch one cache line.
type binding struct{ key, val *Obj }

// gcell is one spilled binding slot. The indirection gives a binding a
// stable identity across set!/define, so analysis resolves a global
// reference to its cell once, even before the define that fills it has
// run: an empty cell reads as unbound.
type gcell struct{ v *Obj }

// markEscaped pins f and every ancestor against recycling. Called when a
// frame is stored into a closure's Env: from then on its lifetime is the
// closure's, not the evaluation's. The walk stops at the first frame
// already marked — escaped implies all ancestors escaped, since this is
// the only place the flag is set and it always walks the full chain.
func markEscaped(f *Frame) {
	for ; f != nil && !f.escaped; f = f.parent {
		f.escaped = true
	}
}

// newFrame returns a child frame, reusing one from the free list when
// possible. Recycling is invisible to Scheme code and to the simulated
// GC: the collector discovers frames only through closure environments,
// and a frame that was ever captured by a closure is marked escaped and
// never released (see markEscaped / releaseFrame). Stale key/val
// pointers in a reused frame are unreachable — n==0 gates every scan.
func (in *Interp) newFrame(parent *Frame) *Frame {
	if n := len(in.freeFrames); n > 0 {
		f := in.freeFrames[n-1]
		in.freeFrames[n-1] = nil
		in.freeFrames = in.freeFrames[:n-1]
		f.n = 0
		f.big = nil
		f.parent = parent
		f.escaped = false
		return f
	}
	return &Frame{parent: parent}
}

// releaseFrame returns f to the free list unless it escaped into a
// closure. Callers guarantee f is off every live environment chain.
func (in *Interp) releaseFrame(f *Frame) {
	if f == nil || f.escaped {
		return
	}
	if c := f.loopc; c != nil {
		f.loopc = nil
		in.freeClosures = append(in.freeClosures, c)
	}
	in.freeFrames = append(in.freeFrames, f)
}

// cell returns f's spilled binding cell for sym, or nil.
func (f *Frame) cell(sym *Obj) *gcell {
	if f.big == nil {
		return nil
	}
	if c := f.big[sym]; c != nil && c.v != nil {
		return c
	}
	return nil
}

// lookup resolves sym from f up the chain, returning nil if no frame
// binds it. It is the slow path of a resolved reference, taken when the
// slot guard fails.
func (f *Frame) lookup(sym *Obj) *Obj {
	for fr := f; fr != nil; fr = fr.parent {
		for i := 0; i < fr.n; i++ {
			if fr.slots[i].key == sym {
				return fr.slots[i].val
			}
		}
		if c := fr.cell(sym); c != nil {
			return c.v
		}
	}
	return nil
}

// set assigns the binding lookup would find, reporting whether there was
// one.
func (f *Frame) set(sym *Obj, v *Obj) bool {
	for fr := f; fr != nil; fr = fr.parent {
		for i := 0; i < fr.n; i++ {
			if fr.slots[i].key == sym {
				fr.slots[i].val = v
				return true
			}
		}
		if c := fr.cell(sym); c != nil {
			c.v = v
			return true
		}
	}
	return false
}

// Define binds a symbol in this frame.
func (f *Frame) Define(sym *Obj, v *Obj) {
	for i := 0; i < f.n; i++ {
		if f.slots[i].key == sym {
			f.slots[i].val = v
			return
		}
	}
	if f.big == nil {
		if f.n < frameInline {
			f.slots[f.n] = binding{sym, v}
			f.n++
			return
		}
		f.big = make(map[*Obj]*gcell, 4*frameInline)
	}
	if c, ok := f.big[sym]; ok {
		c.v = v
		return
	}
	f.big[sym] = &gcell{v: v}
}

// ListToSlice converts a proper list to a slice; ok is false for improper
// lists.
func ListToSlice(o *Obj) ([]*Obj, bool) {
	var out []*Obj
	for cur := o; ; {
		switch cur.Kind {
		case KNil:
			return out, true
		case KPair:
			out = append(out, cur.Car)
			cur = cur.Cdr
		default:
			return out, false
		}
	}
}

// WriteString renders o in (write)-style notation.
func WriteString(o *Obj) string {
	var b strings.Builder
	writeObj(&b, o, true, make(map[*Obj]bool))
	return b.String()
}

// DisplayString renders o in (display)-style notation.
func DisplayString(o *Obj) string {
	var b strings.Builder
	writeObj(&b, o, false, make(map[*Obj]bool))
	return b.String()
}

func writeObj(b *strings.Builder, o *Obj, write bool, seen map[*Obj]bool) {
	if o == nil {
		b.WriteString("#<null>")
		return
	}
	switch o.Kind {
	case KNil:
		b.WriteString("()")
	case KBool:
		if o == True {
			b.WriteString("#t")
		} else {
			b.WriteString("#f")
		}
	case KInt:
		b.WriteString(strconv.FormatInt(o.Int, 10))
	case KFloat:
		s := strconv.FormatFloat(o.F(), 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") && !strings.Contains(s, "NaN") {
			s += ".0"
		}
		b.WriteString(s)
	case KChar:
		if write {
			b.WriteString("#\\")
		}
		b.WriteRune(rune(o.Int))
	case KSymbol:
		b.Write(o.ext.Str)
	case KString:
		if write {
			b.WriteString(strconv.Quote(string(o.ext.Str)))
		} else {
			b.Write(o.ext.Str)
		}
	case KPair:
		if seen[o] {
			b.WriteString("#<cycle>")
			return
		}
		seen[o] = true
		b.WriteByte('(')
		cur := o
		first := true
		for cur.Kind == KPair {
			if !first {
				b.WriteByte(' ')
			}
			writeObj(b, cur.Car, write, seen)
			first = false
			cur = cur.Cdr
			if seen[cur] {
				break
			}
		}
		if cur.Kind != KNil {
			b.WriteString(" . ")
			writeObj(b, cur, write, seen)
		}
		b.WriteByte(')')
		delete(seen, o)
	case KVector:
		b.WriteString("#(")
		for i, e := range o.ext.Vec {
			if i > 0 {
				b.WriteByte(' ')
			}
			writeObj(b, e, write, seen)
		}
		b.WriteByte(')')
	case KClosure:
		b.WriteString("#<procedure>")
	case KBuiltin:
		fmt.Fprintf(b, "#<procedure:%s>", o.ext.Str)
	case KUnspecified:
		b.WriteString("#<void>")
	case KEOF:
		b.WriteString("#<eof>")
	default:
		fmt.Fprintf(b, "#<unknown:%d>", o.Kind)
	}
}
