package scheme

import (
	"bytes"
	"sort"

	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
)

// installExtendedBuiltins adds the second tier of library procedures:
// sorting, higher-order helpers, character classification, and the
// remaining time/system calls. Split from installBuiltins only for
// organization; every interpreter gets both.
func installExtendedBuiltins(in *Interp) {
	def := in.defineBuiltin

	// (sort lst less?) — merge sort via Go's sort with comparator
	// callbacks into the interpreter. O(n log n) comparisons, each a
	// full procedure application, charged accordingly.
	def("sort", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 {
			return nil, evalError("sort: want list and comparator")
		}
		items, ok := ListToSlice(a[0])
		if !ok {
			return nil, evalError("sort: improper list")
		}
		less := a[1]
		var cbErr error
		out := append([]*Obj(nil), items...)
		sort.SliceStable(out, func(i, j int) bool {
			if cbErr != nil {
				return false
			}
			v, err := in.Apply(less, []*Obj{out[i], out[j]})
			if err != nil {
				cbErr = err
				return false
			}
			return Truthy(v)
		})
		if cbErr != nil {
			return nil, cbErr
		}
		return in.List(out...), nil
	})

	def("list-sort-numeric", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 {
			return nil, evalError("list-sort-numeric: want a list")
		}
		items, ok := ListToSlice(a[0])
		if !ok {
			return nil, evalError("list-sort-numeric: improper list")
		}
		for _, o := range items {
			if !IsNumber(o) {
				return nil, evalError("list-sort-numeric: non-number element")
			}
		}
		out := append([]*Obj(nil), items...)
		in.charge(cycles.Cycles(len(out)) * 12)
		sort.SliceStable(out, func(i, j int) bool { return AsFloat(out[i]) < AsFloat(out[j]) })
		return in.List(out...), nil
	})

	def("string-upcase", stringMap("string-upcase", func(b byte) byte {
		if b >= 'a' && b <= 'z' {
			return b - 32
		}
		return b
	}))
	def("string-downcase", stringMap("string-downcase", func(b byte) byte {
		if b >= 'A' && b <= 'Z' {
			return b + 32
		}
		return b
	}))

	def("string-contains?", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[0].Kind != KString || a[1].Kind != KString {
			return nil, evalError("string-contains?: want 2 strings")
		}
		return Boolean(bytes.Contains(a[0].ext.Str, a[1].ext.Str)), nil
	})

	def("string-split", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[0].Kind != KString || a[1].Kind != KChar {
			return nil, evalError("string-split: want string and char")
		}
		parts := bytes.Split(a[0].ext.Str, []byte{byte(a[1].Int)})
		out := make([]*Obj, len(parts))
		for i, p := range parts {
			out[i] = in.NewString(append([]byte(nil), p...))
		}
		return in.List(out...), nil
	})

	def("string<?", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[0].Kind != KString || a[1].Kind != KString {
			return nil, evalError("string<?: want 2 strings")
		}
		return Boolean(string(a[0].ext.Str) < string(a[1].ext.Str)), nil
	})

	charPred := func(name string, ok func(byte) bool) {
		def(name, func(in *Interp, a []*Obj) (*Obj, error) {
			if len(a) != 1 || a[0].Kind != KChar {
				return nil, evalError("%s: want a char", name)
			}
			return Boolean(a[0].Int >= 0 && a[0].Int < 256 && ok(byte(a[0].Int))), nil
		})
	}
	charPred("char-alphabetic?", func(b byte) bool {
		return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
	})
	charPred("char-numeric?", func(b byte) bool { return b >= '0' && b <= '9' })
	charPred("char-whitespace?", func(b byte) bool {
		return b == ' ' || b == '\t' || b == '\n' || b == '\r'
	})
	def("char-upcase", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KChar {
			return nil, evalError("char-upcase: want a char")
		}
		c := a[0].Int
		if c >= 'a' && c <= 'z' {
			return in.NewChar(rune(c - 32)), nil
		}
		return a[0], nil
	})
	def("char<?", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[0].Kind != KChar || a[1].Kind != KChar {
			return nil, evalError("char<?: want 2 chars")
		}
		return Boolean(a[0].Int < a[1].Int), nil
	})

	def("vector-copy", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KVector {
			return nil, evalError("vector-copy: want a vector")
		}
		return in.NewVector(append([]*Obj(nil), a[0].ext.Vec...)), nil
	})

	def("vector-map", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[1].Kind != KVector {
			return nil, evalError("vector-map: want proc and vector")
		}
		out := make([]*Obj, len(a[1].ext.Vec))
		for i, e := range a[1].ext.Vec {
			v, err := in.Apply(a[0], []*Obj{e})
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return in.NewVector(out), nil
	})

	def("vector-for-each", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 2 || a[1].Kind != KVector {
			return nil, evalError("vector-for-each: want proc and vector")
		}
		for _, e := range a[1].ext.Vec {
			if _, err := in.Apply(a[0], []*Obj{e}); err != nil {
				return nil, err
			}
		}
		return Unspecified, nil
	})

	// (sleep ms): nanosleep through the kernel — the caller's virtual
	// clock advances by the requested duration.
	def("sleep", func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KInt || a[0].Int < 0 {
			return nil, evalError("sleep: want milliseconds")
		}
		res := in.Sys(linuxabi.Call{
			Num:  linuxabi.SysNanosleep,
			Args: [6]uint64{uint64(a[0].Int) * 1_000_000},
		})
		if !res.Ok() {
			return nil, evalError("sleep: %v", res.Err)
		}
		return Unspecified, nil
	})

	// (current-monotonic-nanos): clock_gettime(CLOCK_MONOTONIC) on the
	// vdso fast path.
	def("current-monotonic-nanos", func(in *Interp, a []*Obj) (*Obj, error) {
		in.flushCompute()
		v, errno := in.os.VDSO(linuxabi.SysClockGettime)
		if errno != linuxabi.OK {
			return nil, evalError("current-monotonic-nanos: %v", errno)
		}
		return in.NewInt(int64(v)), nil
	})

	def("gc-stats", func(in *Interp, a []*Obj) (*Obj, error) {
		g := in.gc
		return in.List(
			in.NewInt(int64(g.Collections)),
			in.NewInt(int64(g.MinorCollections)),
			in.NewInt(int64(g.MajorCollections)),
			in.NewInt(int64(g.BarrierFaults)),
			in.NewInt(int64(g.LiveSegments())),
		), nil
	})
}

func stringMap(name string, f func(byte) byte) func(*Interp, []*Obj) (*Obj, error) {
	return func(in *Interp, a []*Obj) (*Obj, error) {
		if len(a) != 1 || a[0].Kind != KString {
			return nil, evalError("%s: want a string", name)
		}
		b := make([]byte, len(a[0].ext.Str))
		for i, c := range a[0].ext.Str {
			b[i] = f(c)
		}
		in.charge(uint64AsCycles(int64(len(b))))
		return in.NewString(b), nil
	}
}
