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
// Every heap cell is an Obj in a per-segment arena, so the struct's size
// is what each arena's allocation, its zeroing, and the host collector's
// scans pay for: it is held to 64 bytes. Only the pairs and floats that
// churn through the heap keep their payload inline (Car/Cdr, Int,
// Float); everything else rides in ext.
type Obj struct {
	Kind Kind

	// special is the evaluator's dispatch code for special-form symbols
	// (spIf, spLet, ...), stamped at intern time so the hot loop
	// dispatches on one byte instead of converting and comparing the
	// symbol name on every combination.
	special uint8

	// mark is the collector's mark: the object is marked in the current
	// collection when mark equals GC.epoch. It shares the first word with
	// Kind and special, so it costs the cell no space.
	mark uint32

	Int   int64
	Float float64
	Car   *Obj
	Cdr   *Obj

	// ext carries the fields of the kinds that are rare next to pairs and
	// floats: strings and symbols (Str), vectors (Vec), procedures, and
	// interned symbols' binding caches.
	ext *objExt

	Addr uint64 // simulated heap address (0 for immediates)
	seg  *segment
}

// objExt is the side car of strings and symbols (Str), vectors (Vec),
// closures (Params..Env), builtins (Name, Fn), and interned symbols
// (Name, cell, local). Creation sites attach it — NewString, NewVector,
// Intern, and the closure and builtin constructors — and every consumer
// dispatches on Kind first, so consumers never see it nil.
type objExt struct {
	Str []byte // KString (mutable, as in Scheme), KSymbol (name)
	Vec []*Obj // KVector elements

	// Closure fields.
	Params []*Obj // parameter symbols
	Rest   *Obj   // rest parameter symbol or nil
	Body   []*Obj
	Env    *Frame

	// Builtin (and display) name.
	Name string
	Fn   func(in *Interp, args []*Obj) (*Obj, error)

	// cell caches a symbol's global binding slot (see gcell). Symbols
	// are interned per-Interp, so the cache cannot cross interpreters.
	cell *gcell

	// local records that some non-root frame has bound the symbol (see
	// Frame.Define). While it is clear, no frame on any chain can bind
	// the symbol except the global one, so Lookup and Set go straight to
	// cell without walking the chain.
	local bool
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
	return o.Float
}

// frameInline is how many bindings a frame holds inline. Nearly every
// frame (lambda application, let, loop bodies) binds a handful of
// symbols; only wide frames — effectively just the global environment —
// spill into a map.
const frameInline = 8

// Frame is one lexical environment frame. Frames are heap-allocated
// conceptually but represented natively; the GC treats the frame chain as
// roots through the interpreter's thread state. Bindings live in a fixed
// inline array scanned by symbol identity — symbols are interned, so a
// pointer compare replaces the map hash the hot path used to pay — with a
// spill map for frames wider than frameInline.
type Frame struct {
	keys   [frameInline]*Obj
	vals   [frameInline]*Obj
	n      int
	big    map[*Obj]*gcell // spill for wide frames (the global env)
	parent *Frame

	// seen is the collector's visit stamp (see GC.epoch).
	seen uint32

	// escaped pins the frame against recycling: it is set the moment the
	// frame becomes reachable from a closure (the only way a frame can
	// outlive the evaluation that created it). See Interp.newFrame.
	escaped bool

	// root marks the interpreter's global frame — the one wide frame
	// whose spilled bindings are worth caching on the symbols themselves
	// (Obj.cell). Recycled and user frames are never root, so a stale
	// symbol cache can never alias a reused frame.
	root bool

	// loopc ties a named-let loop closure's lifetime to this frame: the
	// closure is reachable only through this frame's binding of the loop
	// name, and every path that could leak it out (value-position lookup,
	// capture by makeClosure) marks the frame escaped first. So when the
	// frame comes back unescaped, the closure is provably dead and goes
	// back on the interpreter's closure free list with it.
	loopc *Obj
}

// gcell is one spilled binding slot. The indirection gives a binding a
// stable identity across set!/define, so a symbol can cache a pointer to
// its global cell and hot global lookups skip the map hash entirely.
type gcell struct{ v *Obj }

// NewFrame makes a child frame. No map is allocated: small frames are one
// allocation total.
func NewFrame(parent *Frame) *Frame {
	return &Frame{parent: parent}
}

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

// Lookup resolves a symbol through the frame chain. A symbol that only
// the global frame has ever bound, and whose global cell is cached, skips
// the chain: no frame on it can hold a binding for the symbol.
func (f *Frame) Lookup(sym *Obj) (*Obj, bool) {
	if x := sym.ext; !x.local && x.cell != nil {
		return x.cell.v, true
	}
	for fr := f; fr != nil; fr = fr.parent {
		for i := 0; i < fr.n; i++ {
			if fr.keys[i] == sym {
				return fr.vals[i], true
			}
		}
		if fr.big != nil {
			if fr.root && sym.ext.cell != nil {
				return sym.ext.cell.v, true
			}
			if c, ok := fr.big[sym]; ok {
				if fr.root {
					sym.ext.cell = c
				}
				return c.v, true
			}
		}
	}
	return nil, false
}

// Define binds a symbol in this frame. The first binding of a symbol in
// any frame but the global one sets the symbol's local flag for good,
// which turns off Lookup's and Set's global shortcut for it.
func (f *Frame) Define(sym *Obj, v *Obj) {
	if !f.root && !sym.ext.local {
		sym.ext.local = true
	}
	for i := 0; i < f.n; i++ {
		if f.keys[i] == sym {
			f.vals[i] = v
			return
		}
	}
	if f.big != nil {
		if c, ok := f.big[sym]; ok {
			c.v = v
			return
		}
		c := &gcell{v: v}
		f.big[sym] = c
		if f.root {
			sym.ext.cell = c
		}
		return
	}
	if f.n < frameInline {
		f.keys[f.n] = sym
		f.vals[f.n] = v
		f.n++
		return
	}
	f.big = make(map[*Obj]*gcell, 4*frameInline)
	c := &gcell{v: v}
	f.big[sym] = c
	if f.root {
		sym.ext.cell = c
	}
}

// Set assigns an existing binding, reporting whether it was found. Like
// Lookup, it goes straight to the global cell of a symbol no other frame
// has bound.
func (f *Frame) Set(sym *Obj, v *Obj) bool {
	if x := sym.ext; !x.local && x.cell != nil {
		x.cell.v = v
		return true
	}
	for fr := f; fr != nil; fr = fr.parent {
		for i := 0; i < fr.n; i++ {
			if fr.keys[i] == sym {
				fr.vals[i] = v
				return true
			}
		}
		if fr.big != nil {
			if fr.root && sym.ext.cell != nil {
				sym.ext.cell.v = v
				return true
			}
			if c, ok := fr.big[sym]; ok {
				c.v = v
				return true
			}
		}
	}
	return false
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
		s := strconv.FormatFloat(o.Float, 'g', -1, 64)
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
		fmt.Fprintf(b, "#<procedure:%s>", o.ext.Name)
	case KUnspecified:
		b.WriteString("#<void>")
	case KEOF:
		b.WriteString("#<eof>")
	default:
		fmt.Fprintf(b, "#<unknown:%d>", o.Kind)
	}
}
