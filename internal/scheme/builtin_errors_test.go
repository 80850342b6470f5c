package scheme_test

import (
	"errors"
	"testing"

	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/scheme"
	"multiverse/internal/vfs"
)

// builtinErrors pins the error text of every builtin that checks its
// operands: one call with the wrong number of operands, where the
// builtin checks the count, and one with an operand of the wrong kind.
// A builtin that accepts any operand (list, display, the type
// predicates) has only its arity case, or none. The texts come from the
// builtins' hand-written checks; a shared checker that replaces them
// must reproduce each one byte for byte. Only texts are asserted, never
// cycles, so the table pins no boot cost.
var builtinErrors = []struct{ src, want string }{
	// Pairs and lists.
	{`(cons 1)`, "scheme: cons: want 2 args, got 1"},
	{`(car)`, "scheme: car: not a pair"},
	{`(car 5)`, "scheme: car: not a pair"},
	{`(cdr)`, "scheme: cdr: not a pair"},
	{`(cdr 5)`, "scheme: cdr: not a pair"},
	{`(set-car! (cons 1 2))`, "scheme: set-car!: not a pair"},
	{`(set-car! 5 1)`, "scheme: set-car!: not a pair"},
	{`(set-cdr! (cons 1 2))`, "scheme: set-cdr!: not a pair"},
	{`(set-cdr! 5 1)`, "scheme: set-cdr!: not a pair"},
	{`(caar)`, "scheme: caar: want 1 arg"},
	{`(caar '(1))`, "scheme: caar: not a pair"},
	{`(cadr)`, "scheme: cadr: want 1 arg"},
	{`(cadr 5)`, "scheme: cadr: not a pair"},
	{`(cdar)`, "scheme: cdar: want 1 arg"},
	{`(cdar '(1))`, "scheme: cdar: not a pair"},
	{`(cddr)`, "scheme: cddr: want 1 arg"},
	{`(cddr '(1))`, "scheme: cddr: not a pair"},
	{`(caddr)`, "scheme: caddr: want 1 arg"},
	{`(caddr '(1 2))`, "scheme: caddr: not a pair"},
	{`(cadddr)`, "scheme: cadddr: want 1 arg"},
	{`(cadddr '(1 2 3))`, "scheme: cadddr: not a pair"},
	{`(cdddr)`, "scheme: cdddr: want 1 arg"},
	{`(cdddr '(1 2))`, "scheme: cdddr: not a pair"},
	{`(length)`, "scheme: length: want 1 args, got 0"},
	{`(append 5 '(1))`, "scheme: append: improper list"},
	{`(reverse)`, "scheme: reverse: want 1 args, got 0"},
	{`(list-ref '(1))`, "scheme: list-ref: malformed"},
	{`(list-ref '(1) 'a)`, "scheme: list-ref: malformed"},
	{`(list-tail '(1))`, "scheme: list-tail: malformed"},
	{`(list-tail '(1) 'a)`, "scheme: list-tail: malformed"},
	{`(memq 1)`, "scheme: memq: want 2 args"},
	{`(member 1)`, "scheme: member: want 2 args"},
	{`(assq 1)`, "scheme: assq: want 2 args"},
	{`(assoc 1)`, "scheme: assoc: want 2 args"},
	{`(map car)`, "scheme: map: want proc + list(s)"},
	{`(map car 5)`, "scheme: map: improper list"},
	{`(for-each car)`, "scheme: for-each: want proc + list(s)"},
	{`(for-each car 5)`, "scheme: for-each: improper list"},
	{`(apply car)`, "scheme: apply: want proc + args + list"},
	{`(apply car 5)`, "scheme: apply: last argument must be a list"},

	// Numbers.
	{`(+ 'a)`, "scheme: +: not a number: a"},
	{`(* 'a)`, "scheme: *: not a number: a"},
	{`(- 'a)`, "scheme: -: not a number: a"},
	{`(/)`, "scheme: /: want at least 1 arg"},
	{`(/ 'a)`, "scheme: /: not a number: a"},
	{`(quotient 1)`, "scheme: quotient: want 2 integers"},
	{`(quotient 1 2.0)`, "scheme: quotient: want 2 integers"},
	{`(remainder 1)`, "scheme: remainder: want 2 integers"},
	{`(remainder 1 'a)`, "scheme: remainder: want 2 integers"},
	{`(modulo 1)`, "scheme: modulo: want 2 integers"},
	{`(modulo 'a 1)`, "scheme: modulo: want 2 integers"},
	{`(bitwise-and 1)`, "scheme: bitwise-and: want 2 integers"},
	{`(bitwise-and 1 'a)`, "scheme: bitwise-and: want 2 integers"},
	{`(bitwise-ior 1)`, "scheme: bitwise-ior: want 2 integers"},
	{`(bitwise-ior 1 'a)`, "scheme: bitwise-ior: want 2 integers"},
	{`(bitwise-xor 1)`, "scheme: bitwise-xor: want 2 integers"},
	{`(bitwise-xor 1 'a)`, "scheme: bitwise-xor: want 2 integers"},
	{`(arithmetic-shift 1)`, "scheme: arithmetic-shift: want 2 integers"},
	{`(arithmetic-shift 1 'a)`, "scheme: arithmetic-shift: want 2 integers"},
	{`(=)`, "scheme: =: want at least 2 args"},
	{`(= 1 'a)`, "scheme: =: not a number: a"},
	{`(< 1)`, "scheme: <: want at least 2 args"},
	{`(< 'a 1)`, "scheme: <: not a number: a"},
	{`(> 1)`, "scheme: >: want at least 2 args"},
	{`(> 1 'a)`, "scheme: >: not a number: a"},
	{`(<= 1)`, "scheme: <=: want at least 2 args"},
	{`(<= 1 'a)`, "scheme: <=: not a number: a"},
	{`(>= 1)`, "scheme: >=: want at least 2 args"},
	{`(>= 1 'a)`, "scheme: >=: not a number: a"},
	{`(min)`, "scheme: min: want at least 1 arg"},
	{`(min 1 'a)`, "scheme: min: not a number"},
	{`(max)`, "scheme: max: want at least 1 arg"},
	{`(max 1 'a)`, "scheme: max: not a number"},
	{`(zero?)`, "scheme: zero?: want 1 args, got 0"},
	{`(positive?)`, "scheme: positive?: want 1 args, got 0"},
	{`(negative?)`, "scheme: negative?: want 1 args, got 0"},
	{`(even?)`, "scheme: even?: want 1 args, got 0"},
	{`(odd?)`, "scheme: odd?: want 1 args, got 0"},
	{`(number?)`, "scheme: number?: want 1 args, got 0"},
	{`(integer?)`, "scheme: integer?: want 1 args, got 0"},
	{`(real?)`, "scheme: real?: want 1 args, got 0"},
	{`(exact?)`, "scheme: exact?: want 1 args, got 0"},
	{`(inexact?)`, "scheme: inexact?: want 1 args, got 0"},
	{`(add1)`, "scheme: add1: want a number"},
	{`(add1 'a)`, "scheme: add1: want a number"},
	{`(sub1)`, "scheme: sub1: want a number"},
	{`(sub1 'a)`, "scheme: sub1: want a number"},
	{`(abs)`, "scheme: abs: want a number"},
	{`(abs 'a)`, "scheme: abs: want a number"},
	{`(sqrt)`, "scheme: sqrt: want a number"},
	{`(sqrt 'a)`, "scheme: sqrt: want a number"},
	{`(sin)`, "scheme: sin: want a number"},
	{`(sin 'a)`, "scheme: sin: want a number"},
	{`(cos)`, "scheme: cos: want a number"},
	{`(cos 'a)`, "scheme: cos: want a number"},
	{`(exp)`, "scheme: exp: want a number"},
	{`(exp 'a)`, "scheme: exp: want a number"},
	{`(log)`, "scheme: log: want a number"},
	{`(log 'a)`, "scheme: log: want a number"},
	{`(atan)`, "scheme: atan: want a number"},
	{`(atan 'a)`, "scheme: atan: want a number"},
	{`(expt 2)`, "scheme: expt: want 2 numbers"},
	{`(expt 2 'a)`, "scheme: expt: want 2 numbers"},
	{`(floor)`, "scheme: floor: want a number"},
	{`(floor 'a)`, "scheme: floor: want a number"},
	{`(ceiling)`, "scheme: ceiling: want a number"},
	{`(ceiling 'a)`, "scheme: ceiling: want a number"},
	{`(truncate)`, "scheme: truncate: want a number"},
	{`(truncate 'a)`, "scheme: truncate: want a number"},
	{`(round)`, "scheme: round: want a number"},
	{`(round 'a)`, "scheme: round: want a number"},
	{`(exact->inexact)`, "scheme: exact->inexact: want a number"},
	{`(exact->inexact 'a)`, "scheme: exact->inexact: want a number"},
	{`(inexact->exact)`, "scheme: inexact->exact: want a number"},
	{`(inexact->exact 'a)`, "scheme: inexact->exact: want a number"},
	{`(number->string)`, "scheme: number->string: want a number"},
	{`(number->string 'a)`, "scheme: number->string: want a number"},
	{`(string->number)`, "scheme: string->number: want a string"},
	{`(string->number 5)`, "scheme: string->number: want a string"},

	// Predicates.
	{`(null?)`, "scheme: null?: want 1 args, got 0"},
	{`(pair?)`, "scheme: pair?: want 1 args, got 0"},
	{`(list?)`, "scheme: list?: want 1 args, got 0"},
	{`(symbol?)`, "scheme: symbol?: want 1 args, got 0"},
	{`(string?)`, "scheme: string?: want 1 args, got 0"},
	{`(vector?)`, "scheme: vector?: want 1 args, got 0"},
	{`(char?)`, "scheme: char?: want 1 args, got 0"},
	{`(boolean?)`, "scheme: boolean?: want 1 args, got 0"},
	{`(procedure?)`, "scheme: procedure?: want 1 args, got 0"},
	{`(eof-object?)`, "scheme: eof-object?: want 1 args, got 0"},
	{`(not)`, "scheme: not: want 1 args, got 0"},
	{`(eq? 1)`, "scheme: eq?: want 2 args, got 1"},
	{`(eqv? 1)`, "scheme: eqv?: want 2 args, got 1"},
	{`(equal? 1)`, "scheme: equal?: want 2 args, got 1"},

	// Vectors.
	{`(make-vector)`, "scheme: make-vector: want a size"},
	{`(make-vector 'a)`, "scheme: make-vector: want a size"},
	{`(vector-ref (vector 1))`, "scheme: vector-ref: malformed"},
	{`(vector-ref (vector 1) 'a)`, "scheme: vector-ref: malformed"},
	{`(vector-set! (vector 1) 0)`, "scheme: vector-set!: malformed"},
	{`(vector-set! '(1) 0 1)`, "scheme: vector-set!: malformed"},
	{`(vector-length)`, "scheme: vector-length: want a vector"},
	{`(vector-length "abc")`, "scheme: vector-length: want a vector"},
	{`(vector-fill! (vector 1))`, "scheme: vector-fill!: malformed"},
	{`(vector-fill! 5 0)`, "scheme: vector-fill!: malformed"},
	{`(vector->list)`, "scheme: vector->list: want a vector"},
	{`(vector->list 5)`, "scheme: vector->list: want a vector"},
	{`(list->vector)`, "scheme: list->vector: want a list"},
	{`(list->vector 5)`, "scheme: list->vector: improper list"},

	// Strings and characters.
	{`(string-length)`, "scheme: string-length: want a string"},
	{`(string-length 5)`, "scheme: string-length: want a string"},
	{`(string-ref "a")`, "scheme: string-ref: malformed"},
	{`(string-ref "a" 'x)`, "scheme: string-ref: malformed"},
	{`(string-set! (make-string 1) 0)`, "scheme: string-set!: malformed"},
	{`(string-set! "a" 'x #\b)`, "scheme: string-set!: malformed"},
	{`(make-string)`, "scheme: make-string: want a size"},
	{`(make-string 'a)`, "scheme: make-string: want a size"},
	{`(string-append "a" 5)`, "scheme: string-append: want strings"},
	{`(substring "abc")`, "scheme: substring: malformed"},
	{`(substring "abc" 0 'x)`, "scheme: substring: malformed"},
	{`(string=? "a")`, "scheme: string=?: want 2 strings"},
	{`(string=? "a" 5)`, "scheme: string=?: want 2 strings"},
	{`(string->symbol)`, "scheme: string->symbol: want a string"},
	{`(string->symbol 'a)`, "scheme: string->symbol: want a string"},
	{`(symbol->string)`, "scheme: symbol->string: want a symbol"},
	{`(symbol->string "a")`, "scheme: symbol->string: want a symbol"},
	{`(string->list)`, "scheme: string->list: want a string"},
	{`(string->list 5)`, "scheme: string->list: want a string"},
	{`(list->string)`, "scheme: list->string: want a list"},
	{`(list->string 5)`, "scheme: list->string: improper list"},
	{`(list->string '(1))`, "scheme: list->string: non-char element"},
	{`(string-copy)`, "scheme: string-copy: want a string"},
	{`(string-copy 5)`, "scheme: string-copy: want a string"},
	{`(char->integer)`, "scheme: char->integer: want a char"},
	{`(char->integer 5)`, "scheme: char->integer: want a char"},
	{`(integer->char)`, "scheme: integer->char: want an integer"},
	{`(integer->char #\a)`, "scheme: integer->char: want an integer"},
	{`(char=? #\a)`, "scheme: char=?: want 2 chars"},
	{`(char=? #\a 5)`, "scheme: char=?: want 2 chars"},

	// I/O and system.
	{`(write-char)`, "scheme: write-char: want a char"},
	{`(write-char 5)`, "scheme: write-char: want a char"},
	{`(write-string)`, "scheme: write-string: want a string"},
	{`(write-string 5)`, "scheme: write-string: want a string"},
	{`(file->string)`, "scheme: file->string: want a path"},
	{`(file->string 5)`, "scheme: file->string: want a path"},
	{`(file-size)`, "scheme: file-size: want a path"},
	{`(file-size 5)`, "scheme: file-size: want a path"},

	// Sorting, strings, characters and vectors (builtins2.go).
	{`(sort '(1))`, "scheme: sort: want list and comparator"},
	{`(sort 5 <)`, "scheme: sort: improper list"},
	{`(list-sort-numeric)`, "scheme: list-sort-numeric: want a list"},
	{`(list-sort-numeric 5)`, "scheme: list-sort-numeric: improper list"},
	{`(list-sort-numeric '(a))`, "scheme: list-sort-numeric: non-number element"},
	{`(string-upcase)`, "scheme: string-upcase: want a string"},
	{`(string-upcase 5)`, "scheme: string-upcase: want a string"},
	{`(string-downcase)`, "scheme: string-downcase: want a string"},
	{`(string-downcase 5)`, "scheme: string-downcase: want a string"},
	{`(string-contains? "a")`, "scheme: string-contains?: want 2 strings"},
	{`(string-contains? "a" 5)`, "scheme: string-contains?: want 2 strings"},
	{`(string-split "a")`, "scheme: string-split: want string and char"},
	{`(string-split "a" "b")`, "scheme: string-split: want string and char"},
	{`(string<? "a")`, "scheme: string<?: want 2 strings"},
	{`(string<? "a" 5)`, "scheme: string<?: want 2 strings"},
	{`(char-alphabetic?)`, "scheme: char-alphabetic?: want a char"},
	{`(char-alphabetic? 5)`, "scheme: char-alphabetic?: want a char"},
	{`(char-numeric?)`, "scheme: char-numeric?: want a char"},
	{`(char-numeric? 5)`, "scheme: char-numeric?: want a char"},
	{`(char-whitespace?)`, "scheme: char-whitespace?: want a char"},
	{`(char-whitespace? 5)`, "scheme: char-whitespace?: want a char"},
	{`(char-upcase)`, "scheme: char-upcase: want a char"},
	{`(char-upcase 5)`, "scheme: char-upcase: want a char"},
	{`(char<? #\a)`, "scheme: char<?: want 2 chars"},
	{`(char<? #\a 5)`, "scheme: char<?: want 2 chars"},
	{`(vector-copy)`, "scheme: vector-copy: want a vector"},
	{`(vector-copy '(1))`, "scheme: vector-copy: want a vector"},
	{`(vector-map car)`, "scheme: vector-map: want proc and vector"},
	{`(vector-map car '(1))`, "scheme: vector-map: want proc and vector"},
	{`(vector-for-each car)`, "scheme: vector-for-each: want proc and vector"},
	{`(vector-for-each car '(1))`, "scheme: vector-for-each: want proc and vector"},
	{`(sleep)`, "scheme: sleep: want milliseconds"},
	{`(sleep 'a)`, "scheme: sleep: want milliseconds"},

	// Places, installed by SetPlaceSpawner.
	{`(place-spawn)`, "scheme: place-spawn: want a source string"},
	{`(place-spawn 5)`, "scheme: place-spawn: want a source string"},
	{`(place-wait)`, "scheme: place-wait: want a place handle"},
	{`(place-wait "p")`, "scheme: place-wait: want a place handle"},
}

// hrtBuiltinErrors are the operand errors of the builtins only an HRT
// interpreter defines.
var hrtBuiltinErrors = []struct{ src, want string }{
	{`(aerokernel-call)`, "scheme: aerokernel-call: want a symbol name string"},
	{`(aerokernel-call 5)`, "scheme: aerokernel-call: want a symbol name string"},
	{`(aerokernel-call "nk_sysinfo" 'a)`, "scheme: aerokernel-call: arguments must be integers"},
}

func TestBuiltinOperandErrors(t *testing.T) {
	eng, _ := newNativeEngine(t)
	eng.SetPlaceSpawner(func(string) (func() (string, error), error) {
		return nil, errors.New("no place runs in this test")
	})
	for _, c := range builtinErrors {
		checkOperandError(t, eng, c.src, c.want)
	}

	fs := vfs.New()
	if err := scheme.InstallPrelude(fs); err != nil {
		t.Fatal(err)
	}
	sys, err := bench.NewSystemForWorld(core.WorldHRT, core.Options{FS: fs, AppName: "builtin-errors"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		hrt, err := scheme.NewEngine(env)
		if err != nil {
			t.Error(err)
			return 1
		}
		for _, c := range hrtBuiltinErrors {
			checkOperandError(t, hrt, c.src, c.want)
		}
		hrt.Shutdown()
		return 0
	}); err != nil {
		t.Fatal(err)
	}
}

func checkOperandError(t *testing.T, eng *scheme.Engine, src, want string) {
	t.Helper()
	if _, err := eng.RunString(src); err == nil {
		t.Errorf("%s: no error, want %q", src, want)
	} else if err.Error() != want {
		t.Errorf("%s: error %q, want %q", src, err.Error(), want)
	}
}
