package bench

import (
	"testing"

	"multiverse/internal/core"
	"multiverse/internal/ros"
	"multiverse/internal/scheme"
)

// faultTraceFor runs a program in the given world and options with fault
// tracing enabled and returns the kernel's fault trace and the system.
func faultTraceFor(t *testing.T, world core.World, opts core.Options, src string) ([]ros.FaultRecord, *core.System) {
	t.Helper()
	fs, err := provisionFS(nil)
	if err != nil {
		t.Fatal(err)
	}
	opts.FS, opts.AppName = fs, "trace"
	sys, err := NewSystemForWorld(world, opts)
	if err != nil {
		t.Fatal(err)
	}
	sys.Proc.EnableFaultTrace(100_000)
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		eng, eerr := scheme.NewEngine(env)
		if eerr != nil {
			t.Error(eerr)
			return 1
		}
		if _, eerr := eng.RunString(src); eerr != nil {
			t.Error(eerr)
			return 1
		}
		eng.Shutdown()
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	return sys.Proc.FaultTrace(), sys
}

// TestFaultTraceIdenticalNativeVsMultiverse is the paper's correctness
// criterion for Multiverse (section 4.4): the kernel-visible page-fault
// trace of an application must be identical whether it runs natively or
// hybridized — every HRT fault forwards, replicates, and lands in the
// same ROS fault path. The routed case holds it with the router on: once
// the group promotes, its faults ride the sync rung in fault frames, and a
// dedicated poller, a different ROS thread from the partner, replicates
// each access.
func TestFaultTraceIdenticalNativeVsMultiverse(t *testing.T) {
	const src = `
	(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
	(fib 14)
	; churn the heap with boxed flonums and conses so demand paging,
	; collection, and write barriers all appear in the trace
	(define (churn n acc)
	  (if (= n 0) acc (churn (- n 1) (cons (* 1.5 n) acc))))
	(define keep (list->vector (churn 20000 '())))
	(collect-garbage)
	(let loop ((i 0))
	  (when (< i 20000) (vector-set! keep i i) (loop (+ i 1))))
	(display (vector-ref keep 19999)) (newline)
	`
	native, _ := faultTraceFor(t, core.WorldNative, core.Options{}, src)
	if len(native) == 0 {
		t.Fatal("native run recorded no faults — trace not exercised")
	}
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"multiverse", core.Options{}},
		{"routed", core.Options{Router: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			multiverse, sys := faultTraceFor(t, core.WorldHRT, tc.opts, src)
			if len(native) != len(multiverse) {
				t.Fatalf("trace lengths differ: native %d vs multiverse %d", len(native), len(multiverse))
			}
			for i := range native {
				if native[i] != multiverse[i] {
					t.Fatalf("trace diverges at %d: native %+v vs multiverse %+v", i, native[i], multiverse[i])
				}
			}
			m := sys.Metrics()
			polled := m.Counter("sync.faults").Value()
			if tc.opts.Router && (m.Counter("router.promotions").Value() == 0 || polled == 0) {
				t.Fatalf("routed run never promoted its faults: %d promotions, %d polled faults",
					m.Counter("router.promotions").Value(), polled)
			}
			t.Logf("fault traces identical: %d entries, %d forwarded, %d in polled fault frames",
				len(native), m.Counter("ak.forwarded_faults").Value(), polled)
		})
	}
}
