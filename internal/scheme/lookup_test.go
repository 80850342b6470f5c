package scheme_test

import "testing"

// TestGlobalShortcutShadowed: a global that has been read through its
// cell must still lose to every kind of local binding of the same name,
// which analysis resolves to the binding frame, and must read as the
// global again outside it.
func TestGlobalShortcutShadowed(t *testing.T) {
	cases := []struct{ name, shadow string }{
		{"lambda parameter", `((lambda (g) ((lambda () g))) 'inner)`},
		{"let", `(let ((g 'inner)) ((lambda () g)))`},
		{"let*", `(let* ((x 'inner) (g x)) ((lambda () g)))`},
		{"letrec", `(letrec ((g 'inner)) ((lambda () g)))`},
		{"named let", `(let loop ((g 'first) (n 0)) (if (= n 1) g (loop 'inner 1)))`},
		{"do", `(do ((g 'first 'inner) (n 0 (+ n 1))) ((= n 1) g))`},
		{"internal define", `((lambda () (define g 'inner) ((lambda () g))))`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, _ := newNativeEngine(t)
			evalTo(t, eng, `(define g 'outer) (define (read-g) g) (read-g)`, "outer")
			evalTo(t, eng, "g", "outer")
			evalTo(t, eng, c.shadow, "inner")
			evalTo(t, eng, "(read-g)", "outer")
			evalTo(t, eng, "g", "outer")
			// A second shadowing, analyzed after the first has run,
			// reads the local binding too.
			evalTo(t, eng, c.shadow, "inner")
		})
	}
}

// TestGlobalShortcutSet: set! of a global writes the global cell, and
// set! of a shadowed name writes the local binding, leaving the global
// alone.
func TestGlobalShortcutSet(t *testing.T) {
	eng, _ := newNativeEngine(t)
	evalTo(t, eng, `(define h 1) (define (get-h) h) (get-h)`, "1")
	evalTo(t, eng, `(set! h 2) (get-h)`, "2")
	evalTo(t, eng, `((lambda () (set! h 3) h))`, "3")
	evalTo(t, eng, "(get-h)", "3")

	evalTo(t, eng, `(define s 1) s`, "1")
	evalTo(t, eng, `(let ((s 10)) (set! s 20) s)`, "20")
	evalTo(t, eng, "s", "1")
	evalTo(t, eng, `(define (bump) (set! s (+ s 1)) s) (bump)`, "2")
	evalTo(t, eng, `(let ((s 10)) (bump) (set! s 30) s)`, "30")
	evalTo(t, eng, "s", "3")
}
