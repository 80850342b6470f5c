package bench

import "testing"

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
