package scheme

import (
	"fmt"
	"strings"

	"multiverse/internal/linuxabi"
	"multiverse/internal/vfs"
)

// Engine is the embedding shell around the interpreter — the analogue of
// the paper's port: "an instance of the Racket engine embedded into a
// simple C program", offering a REPL and a batch interface, behaving
// identically whether compiled for Linux or for HRT use.
type Engine struct {
	in *Interp
}

// CollectsDir is where the runtime's library collection lives in the
// simulated filesystem; engine startup loads it through the file system
// calls a real runtime's package management performs.
const CollectsDir = "/racket/collects"

// PreludeSource is the standard library loaded at engine startup.
const PreludeSource = `
; multiverse-scheme prelude
(define (filter pred lst)
  (cond ((null? lst) '())
        ((pred (car lst)) (cons (car lst) (filter pred (cdr lst))))
        (else (filter pred (cdr lst)))))

(define (fold-left f acc lst)
  (if (null? lst) acc (fold-left f (f acc (car lst)) (cdr lst))))

(define (fold-right f acc lst)
  (if (null? lst) acc (f (car lst) (fold-right f acc (cdr lst)))))

(define (iota n)
  (let loop ((i (- n 1)) (acc '()))
    (if (< i 0) acc (loop (- i 1) (cons i acc)))))

(define (list-copy lst)
  (if (null? lst) '() (cons (car lst) (list-copy (cdr lst)))))

(define (last lst)
  (if (null? (cdr lst)) (car lst) (last (cdr lst))))

(define (assert ok msg)
  (if ok #t (error "assertion failed:" msg)))
`

// listLibSource is the list-utilities collection file.
const listLibSource = `
; multiverse-scheme list library
(define (take lst n)
  (if (or (= n 0) (null? lst))
      '()
      (cons (car lst) (take (cdr lst) (- n 1)))))

(define (drop lst n)
  (if (or (= n 0) (null? lst)) lst (drop (cdr lst) (- n 1))))

(define (count pred lst)
  (let loop ((lst lst) (n 0))
    (cond ((null? lst) n)
          ((pred (car lst)) (loop (cdr lst) (+ n 1)))
          (else (loop (cdr lst) n)))))

(define (range lo hi)
  (let loop ((i (- hi 1)) (acc '()))
    (if (< i lo) acc (loop (- i 1) (cons i acc)))))

(define (flatten lst)
  (cond ((null? lst) '())
        ((pair? (car lst)) (append (flatten (car lst)) (flatten (cdr lst))))
        (else (cons (car lst) (flatten (cdr lst))))))
`

// stringLibSource is the string-utilities collection file.
const stringLibSource = `
; multiverse-scheme string library
(define (string-reverse s)
  (list->string (reverse (string->list s))))

(define (string-index s ch)
  (let ((n (string-length s)))
    (let loop ((i 0))
      (cond ((= i n) #f)
            ((char=? (string-ref s i) ch) i)
            (else (loop (+ i 1)))))))

(define (string-repeat s n)
  (if (= n 0) "" (string-append s (string-repeat s (- n 1)))))
`

// ioLibSource is the I/O-helpers collection file.
const ioLibSource = `
; multiverse-scheme io library
(define (displayln x) (display x) (newline))
(define (print-all . xs) (for-each displayln xs))
`

// InstallPrelude writes the library collection into a filesystem (done by
// whoever provisions the ROS image). Several files, like a real runtime's
// collection tree — engine startup stats/opens/reads each.
func InstallPrelude(fs *vfs.FS) error {
	if err := fs.MkdirAll(CollectsDir); err != nil {
		return err
	}
	files := map[string]string{
		"prelude.scm": PreludeSource,
		"list.scm":    listLibSource,
		"string.scm":  stringLibSource,
		"io.scm":      ioLibSource,
	}
	for name, src := range files {
		if err := fs.WriteFile(CollectsDir+"/"+name, []byte(src)); err != nil {
			return err
		}
	}
	return nil
}

// NewEngine boots the runtime: interpreter + GC + timer, then the
// filesystem-driven library load (the startup profile of Figure 11).
func NewEngine(osenv OS) (*Engine, error) {
	in, err := NewInterp(osenv)
	if err != nil {
		return nil, err
	}
	e := &Engine{in: in}
	if err := e.loadCollects(); err != nil {
		return nil, err
	}
	return e, nil
}

// Interp exposes the interpreter.
func (e *Engine) Interp() *Interp { return e.in }

// loadCollects stats the collection directory and loads every .scm file
// in it (open/read/close per file).
func (e *Engine) loadCollects() error {
	in := e.in
	res := in.Sys(linuxabi.Call{Num: linuxabi.SysStat, Path: CollectsDir})
	if !res.Ok() {
		return nil // no collections provisioned: a bare engine
	}
	ores := in.Sys(linuxabi.Call{Num: linuxabi.SysOpen, Path: CollectsDir, Args: [6]uint64{0, linuxabi.ORdonly}})
	if !ores.Ok() {
		return fmt.Errorf("scheme: open %s: %v", CollectsDir, ores.Err)
	}
	dres := in.Sys(linuxabi.Call{Num: linuxabi.SysGetdents64, Args: [6]uint64{ores.Ret}})
	_ = in.Sys(linuxabi.Call{Num: linuxabi.SysClose, Args: [6]uint64{ores.Ret}})
	if !dres.Ok() {
		return fmt.Errorf("scheme: readdir %s: %v", CollectsDir, dres.Err)
	}
	for _, name := range strings.Split(string(dres.Data), "\x00") {
		if !strings.HasSuffix(name, ".scm") {
			continue
		}
		if _, err := e.RunFile(CollectsDir + "/" + name); err != nil {
			return fmt.Errorf("scheme: loading %s: %w", name, err)
		}
	}
	return nil
}

// readFile reads a whole file through the system call interface.
func (in *Interp) readFile(path string) ([]byte, error) {
	ores := in.Sys(linuxabi.Call{Num: linuxabi.SysOpen, Path: path, Args: [6]uint64{0, linuxabi.ORdonly}})
	if !ores.Ok() {
		return nil, evalError("open %s: %v", path, ores.Err)
	}
	fd := ores.Ret
	defer in.Sys(linuxabi.Call{Num: linuxabi.SysClose, Args: [6]uint64{fd}})
	var out []byte
	for {
		rres := in.Sys(linuxabi.Call{Num: linuxabi.SysRead, Args: [6]uint64{fd, 0, 16384}})
		if !rres.Ok() {
			return nil, evalError("read %s: %v", path, rres.Err)
		}
		if rres.Ret == 0 {
			return out, nil
		}
		out = append(out, rres.Data...)
	}
}

// RunString evaluates every form in src, returning the last value.
func (e *Engine) RunString(src string) (*Obj, error) {
	in := e.in
	r := NewReader(in, src)
	out := Unspecified
	for {
		form, err := r.Read()
		if err != nil {
			return nil, err
		}
		if form == nil {
			in.FlushOut()
			return out, nil
		}
		v, err := in.evalTop(form)
		if err != nil {
			in.FlushOut()
			return nil, err
		}
		out = v
	}
}

// RunFile loads and evaluates a program file — the command-line batch
// interface.
func (e *Engine) RunFile(path string) (*Obj, error) {
	// A runtime stats before opening (search paths).
	_ = e.in.Sys(linuxabi.Call{Num: linuxabi.SysStat, Path: path})
	src, err := e.in.readFile(path)
	if err != nil {
		return nil, err
	}
	return e.RunString(string(src))
}

// REPL reads forms from fd 0 until EOF, evaluating each and printing its
// value — the interactive interface through which "the user can type
// Scheme". Input arrives through read(2); results leave through write(2).
func (e *Engine) REPL() error {
	in := e.in
	var src []byte
	for {
		rres := in.Sys(linuxabi.Call{Num: linuxabi.SysRead, Args: [6]uint64{0, 0, 4096}})
		if !rres.Ok() {
			return fmt.Errorf("scheme: repl read: %v", rres.Err)
		}
		if rres.Ret == 0 {
			break // EOF
		}
		src = append(src, rres.Data...)
	}
	r := NewReader(in, string(src))
	for {
		form, err := r.Read()
		if err != nil {
			return err
		}
		if form == nil {
			break
		}
		v, err := in.evalTop(form)
		if err != nil {
			in.writeOut([]byte(fmt.Sprintf("%v\n", err)))
			continue
		}
		if v != Unspecified {
			in.writeOut([]byte("> " + WriteString(v) + "\n"))
		}
	}
	in.FlushOut()
	return nil
}

// Shutdown flushes output and disarms the scheduler timer.
func (e *Engine) Shutdown() {
	e.in.FlushOut()
	e.in.schedulerActive = false
	_ = e.in.Sys(linuxabi.Call{
		Num:  linuxabi.SysSetitimer,
		Args: [6]uint64{linuxabi.ITimerVirtual, 0, 0},
	})
}
