// Places: Racket-style message-passing parallelism from unmodified Scheme
// source, in all three worlds. Under Multiverse each (place-spawn ...)
// becomes its own execution group — a fresh interpreter instance running
// as a top-level HRT thread with its own ROS partner — created through
// the pthread_create override, exactly like any legacy thread.
//
// Run: go run ./examples/places
package main

import (
	"fmt"
	"log"

	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/places"
	"multiverse/internal/scheme"
	"multiverse/internal/vfs"
)

// The program splits a sum across two places and combines the results —
// it has no idea whether the places are Linux threads or HRT threads.
const program = `
(define (spawn-range lo hi)
  (place-spawn
    (string-append
      "(define (sum i acc) (if (= i " (number->string hi) ") acc"
      " (sum (+ i 1) (+ acc i)))) (sum " (number->string lo) " 0)")))

(define left  (spawn-range 0 50000))
(define right (spawn-range 50000 100000))
(define total (+ (place-wait left) (place-wait right)))
(display "sum of [0,100000) = ") (display total) (newline)
(display (if (running-as-hrt?) "computed by kernel-mode places" "computed by user-level places"))
(newline)
`

func run(world core.World) {
	fs := vfs.New()
	if err := scheme.InstallPrelude(fs); err != nil {
		log.Fatal(err)
	}
	sys, err := bench.NewSystemForWorld(world, core.Options{FS: fs, AppName: "places-demo"})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		eng, eerr := places.NewEngine(env)
		if eerr != nil {
			log.Fatal(eerr)
		}
		if _, eerr := eng.RunString(program); eerr != nil {
			log.Fatal(eerr)
		}
		eng.Shutdown()
		return 0
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("--- %s ---\n%s", world, sys.Proc.Stdout())
	if sys.AK != nil {
		fmt.Printf("(3 execution groups total: main + 2 places; %d syscalls forwarded)\n",
			sys.AK.ForwardedSyscalls())
	}
	fmt.Println()
}

func main() {
	run(core.WorldNative)
	run(core.WorldHRT)
}
