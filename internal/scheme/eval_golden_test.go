package scheme_test

import (
	"testing"

	"multiverse/internal/cycles"
	"multiverse/internal/scheme"
)

// evalGolden is what one snippet leaves behind on a fresh native engine:
// its written result (or error text), the reductions it took, and the
// main thread's clock after the engine shuts down.
type evalGolden struct {
	Out        string
	Reductions uint64
	Cycles     cycles.Cycles
}

// goldenEval pins the evaluator's observable behaviour snippet by
// snippet. The values were recorded with the cons-walking evaluator; any
// evaluator that replaces it must reproduce every result, every error
// text, every reduction and every virtual cycle.
var goldenEval = []struct {
	name, src string
	want      evalGolden
}{
	{"quote", `'(a b c)`, evalGolden{"(a b c)", 1, 67338}},
	{"quote empty", `(quote)`, evalGolden{"#<null>", 1, 67240}},
	{"if no else", `(if #f 1)`, evalGolden{"#<void>", 2, 67306}},
	{"if branches", `(list (if (> 3 2) 'yes 'no) (if '() 'nil-true 'no))`, evalGolden{"(yes nil-true)", 11, 68012}},
	{"set! global", `(define x 10) (set! x (+ x 1)) x`, evalGolden{"11", 8, 67632}},
	{"set! shadowed", `(define x 1) (list (let ((x 2)) (set! x 3) x) x)`, evalGolden{"(3 1)", 10, 67834}},
	{"set! param shadowing global", `(define x 5) (define (dbl x) (set! x (* x 2)) x) (list (dbl 3) x)`, evalGolden{"(6 5)", 15, 68122}},
	{"lambda rest", `((lambda (a . r) (list a r)) 1 2 3)`, evalGolden{"(1 (2 3))", 9, 67796}},
	{"define rest only", `(define (f . r) r) (list (f) (f 1 2 3))`, evalGolden{"(() (1 2 3))", 12, 67924}},
	{"begin", `(list (begin 1 2 3) (begin))`, evalGolden{"(3 #<void>)", 7, 67608}},
	{"let family", `(list (let ((a 1) (b 2)) (+ a b)) (let* ((x 1) (x (+ x 1)) (y (* x 10))) (list x y)) (let () 7))`, evalGolden{"(3 (2 20) 7)", 25, 70729}},
	{"letrec", `(letrec ((ev? (lambda (n) (if (= n 0) #t (od? (- n 1))))) (od? (lambda (n) (if (= n 0) #f (ev? (- n 1)))))) (list (ev? 10) (od? 7)))`, evalGolden{"(#t #t)", 210, 77857}},
	{"letrec*", `(letrec* ((a 1) (b (lambda () (+ a 1)))) (b))`, evalGolden{"2", 9, 67824}},
	{"cond arrow and else", `(list (cond ((assq 'k '((j . a) (k . b))) => cdr) (else 'none)) (cond (#f 1) (else 'e)) (cond ((+ 1 1))) (cond (#f 1)))`, evalGolden{"(b e 2 #<void>)", 19, 70599}},
	{"case", `(list (case 3 ((1 2) 'low) ((3 4) 'mid) (else 'high)) (case 9 ((1) 'one) (else 'other)) (case 'z ((a) 1)))`, evalGolden{"(mid other #<void>)", 10, 70271}},
	{"and or", `(list (and) (or) (and 1 2) (and 1 #f 3) (or #f 3) (or #f #f))`, evalGolden{"(#t #f 2 #f 3 #f)", 16, 68202}},
	{"when unless", `(list (when (= 1 1) 'a 'b) (when #f 'c) (unless #f 'd) (unless #t 'e))`, evalGolden{"(b #<void> d #<void>)", 16, 68384}},
	{"do", `(do ((i 0 (+ i 1)) (acc '() (cons i acc)) (k 7)) ((= i 4) (list acc k)))`, evalGolden{"((3 2 1 0) 7)", 69, 70342}},
	{"quasiquote splicing", "`(1 ,@(list 2 3) ,(+ 2 2) (nested ,(* 2 3)) . tail)", evalGolden{"(1 2 3 4 (nested 6) . tail)", 13, 68200}},
	{"quasiquote nested", "`(a `(b ,(c ,(+ 1 2))))", evalGolden{"(a (quasiquote (b (unquote (c 3)))))", 5, 67826}},
	{"define in if branch", `(define y 'global) (define (g flag) (if flag (define y 'local)) y) (list (g #t) (g #f))`, evalGolden{"(local global)", 19, 68400}},
	{"define after use", `(define z 'outer) (define (h) (define a z) (define z 'inner) (list a z)) (h)`, evalGolden{"(outer inner)", 13, 68130}},
	{"define seen by earlier lambda", `(define (outer) (define (show) w) (define w 'late) (show)) (outer)`, evalGolden{"late", 9, 67880}},
	{"named let escapes by value", `(define saved #f) (let loop ((i 0)) (if (= i 0) (set! saved loop)) (if (< i 3) (loop (+ i 1)) i)) (let loop2 ((j 0)) (if (< j 3) (loop2 (+ j 1)) j)) (list (saved 1) (saved 3))`, evalGolden{"(3 3)", 168, 76373}},
	{"named let returned", `(define k (let loop ((i 0)) (if (= i 2) loop (loop (+ i 1))))) (let again ((n 0)) (if (< n 5) (again (+ n 1)))) (procedure? (k 1))`, evalGolden{"#t", 115, 72202}},
	{"do body captures frame", `(define procs '()) (do ((i 0 (+ i 1))) ((= i 3)) (set! procs (cons (lambda () i) procs))) (map (lambda (p) (p)) procs)`, evalGolden{"(2 1 0)", 64, 72253}},
	{"apply closure", `(apply (lambda (a b . c) (list a b c)) 1 2 '(3 4))`, evalGolden{"(1 2 (3 4))", 11, 67998}},
	{"map closure", `(map (lambda (x y) (+ x y)) '(1 2 3) '(10 20 30))`, evalGolden{"(11 22 33)", 17, 68226}},
	{"for-each closure", `(let ((acc 0)) (for-each (lambda (x) (set! acc (+ acc x))) '(1 2 3)) acc)`, evalGolden{"6", 22, 68416}},
	{"sort closure", `(sort '(5 3 9 1 4) (lambda (a b) (< a b)))`, evalGolden{"(1 3 4 5 9)", 36, 68934}},
	{"deep recursion", `(define (deep n) (if (= n 0) 0 (+ 1 (deep (- n 1))))) (deep 10000)`, evalGolden{"10000", 140010, 5387918}},
	{"long loop", `(let loop ((i 0) (s 0)) (if (= i 1000) s (loop (+ i 1) (+ s i))))`, evalGolden{"499500", 15009, 637894}},
	{"counter closure", `(define (make-counter) (let ((n 0)) (lambda () (set! n (+ n 1)) n))) (define c (make-counter)) (c) (c) (c)`, evalGolden{"3", 31, 68842}},
	{"allocating loop", `(define (build n acc) (if (= n 0) acc (build (- n 1) (cons (* n 1.5) acc)))) (length (build 20000 '()))`, evalGolden{"20000", 360013, 15390535}},
	{"strings and vectors", `(let ((v (make-vector 3 0)) (s (make-string 2 #\a))) (vector-set! v 0 (string-append s "b")) (list v "lit" (vector 1 2)))`, evalGolden{"(#(\"aab\" 0 0) \"lit\" #(1 2))", 25, 68707}},
	{"wide frame", `((lambda (a b c d e f g h i j) (define k (+ a j)) (list i j k)) 1 2 3 4 5 6 7 8 9 10)`, evalGolden{"(9 10 11)", 22, 70615}},
	{"malformed never reached", `(if #f (if) 1)`, evalGolden{"1", 3, 67372}},
	{"malformed if", `(display "x") (if)`, evalGolden{"scheme: if: malformed", 4, 68367}},
	{"malformed let binding", `(let ((a (display "x")) (b)) a)`, evalGolden{"scheme: let: malformed binding (b)", 4, 68493}},
	{"malformed define", `(define (f 1) 2)`, evalGolden{"scheme: lambda: non-symbol formal", 1, 67310}},
	{"malformed when", `(when)`, evalGolden{"scheme: when: malformed", 1, 67254}},
	{"begin improper", `(begin (display "x") (display "y") . 3)`, evalGolden{"scheme: begin: malformed", 4, 68451}},
	{"do missing test", `(do ((i (display "x"))) ())`, evalGolden{"scheme: do: missing test", 4, 68451}},
	{"splice non-list", "`(1 ,@5)", evalGolden{"scheme: unquote-splicing: not a list", 2, 67376}},
	{"unbound variable", `(list 1 (undefined-thing 1))`, evalGolden{"scheme: unbound variable undefined-thing", 5, 67462}},
	{"set! unbound", `(set! never-defined 1)`, evalGolden{"scheme: set!: unbound variable never-defined", 2, 67334}},
	{"not a procedure", `(5 1)`, evalGolden{"scheme: not a procedure: 5", 3, 67330}},
	{"arity", `((lambda (x) x))`, evalGolden{"scheme: arity: want 1 args, got 0", 2, 67362}},

	// Inline primitives: rebinding, shadowing and set! of a coded name,
	// a coded operator reached through an operator expression, n-ary and
	// float-widened comparisons, every primitive kind's errors, and write
	// barriers taken from a primitive.
	{"rebind coded name", `(define plus +) (define first car) (list (plus 1 2) (first '(a b)))`, evalGolden{"(3 a)", 13, 68018}},
	{"set! coded global", `(define (f) (car '(1 2))) (define a (f)) (set! car cdr) (list a (f))`, evalGolden{"(1 (2))", 17, 68212}},
	{"shadow coded names", `(let ((+ -) (car cdr)) (list (+ 5 2) (car '(1 2))))`, evalGolden{"(3 (2))", 12, 67966}},
	{"coded name as parameter", `(define (f * x) (* x x)) (list (f + 3) (f cons 4))`, evalGolden{"(6 (4 . 4))", 19, 68232}},
	{"redefine coded name", `(define (- a b) (+ a b)) (- 2 3)`, evalGolden{"5", 9, 67754}},
	{"coded operator expression", `((if #t + -) 1 2.5)`, evalGolden{"3.5", 6, 67542}},
	{"coded builtin through apply", `(list (apply + '(1 2 3 4)) (map car '((1) (2))) (apply vector-ref (list (vector 7 8) 1)))`, evalGolden{"(10 (1 2) 8)", 24, 68646}},
	{"arith arities", `(list (+) (*) (-) (+ 7) (* 1.5) (- 4) (- 2.5) (+ 1 2 3) (* 2 3 4 5) (- 10 1 2 3) (/ 8) (/ 12 3 2) (/ 7 2) (/ 1 0) (/ 6 4 0.5))`, evalGolden{"(0 1 0 7 1.5 -4 -2.5 6 120 4 0.125 2 3.5 +Inf 3.0)", 58, 72431}},
	{"mixed arith", `(list (+ 1 2.5) (* 2.0 3) (- 9007199254740993 1.0) (+ 9007199254740993 1 0.5) (* 4611686018427387904 2) (+ 9223372036854775807 1))`, evalGolden{"(3.5 6.0 9.007199254740991e+15 9.007199254740992e+15 -9223372036854775808 -9223372036854775808)", 27, 68774}},
	{"3-operand comparisons", `(list (< 1 2 3) (< 1 3 2) (= 2 2 2.0) (>= 3 3 1) (<= 1 1 0) (> 3 2 1) (> 3 2 2))`, evalGolden{"(#t #f #t #t #f #t #f)", 37, 69210}},
	{"big int compares as float", `(= 9007199254740993 9007199254740992)`, evalGolden{"#t", 4, 67382}},
	{"NaN comparisons", `(let ((nan (/ 0.0 0.0))) (list (= nan nan) (< nan 1) (> nan 1) (<= nan nan) (>= 1 nan) (= 0.0 -0.0)))`, evalGolden{"(#f #f #f #f #f #t)", 31, 69010}},
	{"pairs and vectors", `(let ((p (cons 1 2)) (v (make-vector 3 0)) (s (make-string 3 #\a))) (vector-set! v 2 p) (string-set! s 1 #\b) (list (car p) (cdr p) (vector-ref v 2) (vector-length v) s (string-ref s 1) (modulo -7 3) (modulo 7 -3)))`, evalGolden{"(1 2 (1 . 2) 3 \"aba\" #\\b 2 -2)", 51, 72031}},
	{"arith type error", `(+ 1 'a)`, evalGolden{"scheme: +: not a number: a", 4, 67424}},
	{"arith type error late", `(* 2 3 "x")`, evalGolden{"scheme: *: not a number: \"x\"", 5, 67448}},
	{"divide type error", `(/ 1 'a)`, evalGolden{"scheme: /: not a number: a", 4, 67424}},
	{"modulo type error", `(modulo 5 2.0)`, evalGolden{"scheme: modulo: want 2 integers", 4, 67396}},
	{"modulo by zero", `(modulo 5 0)`, evalGolden{"scheme: modulo: division by zero", 4, 67382}},
	{"compare type error", `(< 1 "x")`, evalGolden{"scheme: <: not a number: \"x\"", 4, 67396}},
	{"compare arity error", `(= 1)`, evalGolden{"scheme: =: want at least 2 args", 3, 67330}},
	{"car type error", `(car '())`, evalGolden{"scheme: car: not a pair", 3, 67358}},
	{"cdr type error", `(cdr 5)`, evalGolden{"scheme: cdr: not a pair", 3, 67330}},
	{"cons arity error", `(cons 1)`, evalGolden{"scheme: cons: want 2 args, got 1", 3, 67330}},
	{"vector-ref type error", `(vector-ref '(1) 0)`, evalGolden{"scheme: vector-ref: malformed", 4, 67424}},
	{"vector-ref index error", `(vector-ref (vector 1 2) 2)`, evalGolden{"scheme: vector-ref: index 2 out of range [0,2)", 7, 67552}},
	{"vector-set! index error", `(vector-set! (make-vector 2 0) -1 'x)`, evalGolden{"scheme: vector-set!: index -1 out of range [0,2)", 8, 67636}},
	{"vector-length type error", `(vector-length "abc")`, evalGolden{"scheme: vector-length: want a vector", 3, 67344}},
	{"string-ref index error", `(string-ref "abc" 3)`, evalGolden{"scheme: string-ref: index out of range", 4, 67396}},
	{"string-set! type error", `(string-set! (make-string 2) 0 1)`, evalGolden{"scheme: string-set!: malformed", 7, 67552}},
	{"string-set! index error", `(string-set! (make-string 2) 2 #\z)`, evalGolden{"scheme: string-set!: index out of range", 7, 67552}},
	{"vector-set! barrier fault", `(define v (make-vector 3 0)) (collect-garbage) (vector-set! v 0 'x) (vector-set! v 1 'y) (list v (list-ref (gc-stats) 3))`, evalGolden{"(#(x y 0) 1)", 25, 100247}},
	{"string-set! barrier fault", `(define s (make-string 2 #\a)) (collect-garbage) (string-set! s 0 #\b) (list s (list-ref (gc-stats) 3))`, evalGolden{"(\"ba\" 1)", 20, 99902}},
}

// TestEvalGolden runs each snippet on a fresh native engine and checks
// its result, its reductions and the main thread's cycles.
func TestEvalGolden(t *testing.T) {
	for _, c := range goldenEval {
		t.Run(c.name, func(t *testing.T) {
			eng, sys := newNativeEngine(t)
			before := eng.Interp().Reductions()
			var got evalGolden
			v, err := eng.RunString(c.src)
			if err != nil {
				got.Out = err.Error()
			} else {
				got.Out = scheme.WriteString(v)
			}
			got.Reductions = eng.Interp().Reductions() - before
			eng.Shutdown()
			got.Cycles = sys.Main.Clock.Now()
			if got != c.want {
				t.Errorf("%s drifted:\n got %#v\nwant %#v", c.src, got, c.want)
			}
		})
	}
}
