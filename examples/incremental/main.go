// Incremental model: take the whole unmodified Racket-stand-in runtime —
// reader, evaluator, mprotect/SIGSEGV-driven garbage collector,
// cooperative-thread timer — and run it as a kernel with zero porting
// effort, then run the identical program natively and compare.
//
// This is the paper's headline demonstration: "all of the Racket runtime
// except Linux kernel ABI interactions is seamlessly running as a kernel."
//
// Run: go run ./examples/incremental
package main

import (
	"fmt"
	"log"

	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/scheme"
	"multiverse/internal/vfs"
)

const program = `
(define (fib n)
  (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(display "fib(17) = ")
(display (fib 17))
(newline)

; allocate enough to run the collector and its write barriers
(define keep (make-vector 5000 0))
(collect-garbage)
(let loop ((i 0))
  (when (< i 5000)
    (vector-set! keep i (* i i))
    (loop (+ i 1))))
(display "sum of middle squares: ")
(display (+ (vector-ref keep 2499) (vector-ref keep 2500)))
(newline)
`

func runWorld(world core.World, akMemory bool) {
	fs := vfs.New()
	if err := scheme.InstallPrelude(fs); err != nil {
		log.Fatal(err)
	}
	sys, err := bench.NewSystemForWorld(world, core.Options{FS: fs, AppName: "incremental"})
	if err != nil {
		log.Fatal(err)
	}
	var gcs, barriers uint64
	var backend string
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		eng, eerr := scheme.NewEngine(env)
		if eerr != nil {
			log.Fatal(eerr)
		}
		if akMemory {
			if eerr := eng.EnableAKMemory(); eerr != nil {
				log.Fatal(eerr)
			}
		}
		if _, eerr := eng.RunString(program); eerr != nil {
			log.Fatal(eerr)
		}
		gcs = eng.Interp().GC().Collections
		barriers = eng.Interp().GC().BarrierFaults
		backend = eng.GCBackendName()
		eng.Shutdown()
		return 0
	}); err != nil {
		log.Fatal(err)
	}

	st := sys.Proc.Stats()
	label := world.String()
	if akMemory {
		label += " + AK memory port"
	}
	fmt.Printf("--- %s ---\n%s", label, sys.Proc.Stdout())
	fmt.Printf("virtual time %.3f ms | %d syscalls | %d faults | %d GCs | %d barrier faults | gc backend: %s\n",
		sys.Main.Clock.Now().Nanoseconds()/1e6, st.TotalSyscalls(),
		st.MinorFaults+st.MajorFaults, gcs, barriers, backend)
	if sys.AK != nil {
		fmt.Printf("ran as a kernel: forwarded %d syscalls + %d faults; %d address-space merges\n",
			sys.AK.ForwardedSyscalls(), sys.AK.ForwardedFaults(), sys.AK.MergeCount())
		fmt.Print(sys.Hotspots().Report())
	}
	fmt.Println()
}

func main() {
	// Identical program, identical runtime, three hosting worlds. The
	// user-visible behaviour must be byte-for-byte the same. The fourth
	// run shows the incremental path: the GC's memory management ported
	// into the AeroKernel.
	runWorld(core.WorldNative, false)
	runWorld(core.WorldVirtual, false)
	runWorld(core.WorldHRT, false)
	runWorld(core.WorldHRT, true)
}
