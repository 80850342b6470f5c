package bench

import (
	"testing"

	"multiverse/internal/core"
)

// BenchmarkSimspeedSerial runs the composite one unit after another; the
// CI bench artifact tracks its wall time across commits with benchstat.
func BenchmarkSimspeedSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := runSimspeedSerial(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimspeedParallel runs each composite unit on its own host
// goroutine — the independent-execution-group mode the pinned simspeed
// figure is measured in.
func BenchmarkSimspeedParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := runSimspeedParallel(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgram runs each CLBG program once per iteration, natively:
// the interpreter's host cost (time and allocation per run, and host time
// per reduction) with no forwarding in the way. It reports, it does not
// gate.
func BenchmarkProgram(b *testing.B) {
	for _, prog := range Programs() {
		b.Run(prog.Name, func(b *testing.B) {
			b.ReportAllocs()
			var reductions uint64
			for i := 0; i < b.N; i++ {
				res, err := RunBenchmark(prog, core.WorldNative, core.Options{}, false)
				if err != nil {
					b.Fatal(err)
				}
				reductions += res.Reductions
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reductions), "ns/reduction")
		})
	}
}
