package bench

import (
	"testing"

	"multiverse/internal/core"
	"multiverse/internal/machine"
	"multiverse/internal/telemetry"
)

// The latency tables' benchmarks time the closures the tables average:
// one op is one call of each measured kind, and each kind's virtual
// average is reported as a "<kind>-vcycles" metric (virtual cycles at the
// simulated 2.2 GHz). Go-level ns/op measures the simulator itself.

// TestFig2TelemetryInvariance pins the telemetry layer's core contract:
// recording spans and metrics never advances a virtual clock, so every
// Figure 2 latency is identical — not merely close — with tracing on.
func TestFig2TelemetryInvariance(t *testing.T) {
	measure := func(tracer *telemetry.Tracer) fig2Latencies {
		fs, err := provisionFS(nil)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystemForWorld(core.WorldHRT, core.Options{
			FS: fs, AppName: "fig2", HRTCores: []machine.CoreID{fig2SameSocketCore}, Tracer: tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := measureFig2(sys, latencyRuns)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if off, on := measure(nil), measure(telemetry.New()); on != off {
		t.Errorf("Figure 2 latencies changed with tracing on:\noff %+v\non  %+v", off, on)
	}
}

func BenchmarkFig2(b *testing.B) {
	sys, err := newHybrid("fig2", fig2SameSocketCore)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	l, err := measureFig2(sys, b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(l.merger), "merger-vcycles")
	b.ReportMetric(float64(l.async), "async-vcycles")
	b.ReportMetric(float64(l.syncCross), "sync-cross-vcycles")
	b.ReportMetric(float64(l.syncSame), "sync-same-vcycles")
}

func BenchmarkFig9(b *testing.B) {
	for _, w := range []core.World{core.WorldVirtual, core.WorldHRT} {
		b.Run(w.String(), func(b *testing.B) {
			lat, _, err := fig9World(w, b.N)
			if err != nil {
				b.Fatal(err)
			}
			for _, name := range fig9Calls {
				b.ReportMetric(float64(lat[name]), name+"-vcycles")
			}
		})
	}
}
