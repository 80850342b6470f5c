package bench

import (
	"runtime/metrics"
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
// per reduction) with no forwarding in the way. live-KB is the largest Go
// live heap (runtime/metrics /gc/heap/live:bytes, as the latest host
// collection marked it) read after any run: the footprint a run keeps. It
// reports, it does not gate.
func BenchmarkProgram(b *testing.B) {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for _, prog := range Programs() {
		b.Run(prog.Name, func(b *testing.B) {
			b.ReportAllocs()
			var reductions, maxLive uint64
			for i := 0; i < b.N; i++ {
				res, err := RunBenchmark(prog, core.WorldNative, core.Options{}, false)
				if err != nil {
					b.Fatal(err)
				}
				reductions += res.Reductions
				metrics.Read(live)
				maxLive = max(maxLive, live[0].Value.Uint64())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reductions), "ns/reduction")
			b.ReportMetric(float64(maxLive)/1024, "live-KB")
		})
	}
}
