package bench

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"multiverse/internal/core"
	"multiverse/internal/faults"
	"multiverse/internal/telemetry"
)

// TestCausalTimelineFromFlightDump is the PR's acceptance scenario: a
// scripted run with dropped notifications and partner kills must
// auto-dump the flight recorder when the recovery budget runs out, and
// the dump must let a reader reconstruct the full causal chain — a
// forwarded syscall's request ID from its doorbell through the fault
// roll, the retransmission, the requeue, and the partner respawn.
func TestCausalTimelineFromFlightDump(t *testing.T) {
	prog, ok := ProgramByName("fasta")
	if !ok {
		t.Fatal("fasta program missing")
	}
	res, err := RunBenchmark(prog, core.WorldHRT, core.Options{
		Faults: &faults.Plan{Seed: 7, Rate: 0.05, KillRate: 1, RecoveryBudget: 1},
	}, false)
	if err != nil {
		t.Fatal(err)
	}

	why, text := res.Recorder.LastDump()
	if !strings.Contains(why, "recovery budget exhausted") {
		t.Fatalf("auto-dump reason = %q, want budget exhaustion", why)
	}
	for _, marker := range []string{"doorbell", "fault-roll", "retransmit", "requeue", "respawn", "degrade"} {
		if !strings.Contains(text, marker) {
			t.Errorf("flight dump missing %q event:\n%s", marker, text)
		}
	}

	// Structural reconstruction from the ring itself: some requeued
	// request must trace back to its doorbell (same nonzero request ID,
	// doorbell first), and a respawn must follow a partner-kill roll.
	evs := res.Recorder.Events()
	doorbellAt := make(map[uint64]int)
	linked := false
	respawnIdx, killRollIdx := -1, -1
	for i, e := range evs {
		switch e.Code {
		case telemetry.RecDoorbell:
			if e.Req != 0 {
				if _, seen := doorbellAt[e.Req]; !seen {
					doorbellAt[e.Req] = i
				}
			}
		case telemetry.RecRequeue:
			if at, seen := doorbellAt[e.Req]; seen && e.Req != 0 && at < i {
				linked = true
			}
		case telemetry.RecFaultRoll:
			if killRollIdx < 0 && faults.Kind(e.A) == faults.PartnerKill {
				killRollIdx = i
			}
		case telemetry.RecRespawn:
			if respawnIdx < 0 {
				respawnIdx = i
			}
		}
	}
	if !linked {
		t.Error("no requeued request could be traced back to its doorbell by request ID")
	}
	if killRollIdx < 0 || respawnIdx < 0 || respawnIdx < killRollIdx {
		t.Errorf("kill roll at %d, respawn at %d — respawn must follow the roll that caused it",
			killRollIdx, respawnIdx)
	}

	// The perturbation rule holds even for the run that died twice.
	clean, err := RunBenchmark(prog, core.WorldHRT, core.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output, clean.Output) {
		t.Error("faulted+observed run diverged from clean output")
	}
}

// TestTraceCarriesRequestIDs pins the causal-trace satellite at the span
// layer: a traced hybrid run's forward/service spans carry the "req"
// attribute, and retransmission markers reference the same IDs.
func TestTraceCarriesRequestIDs(t *testing.T) {
	prog, ok := ProgramByName("n-body")
	if !ok {
		t.Fatal("n-body program missing")
	}
	tr := telemetry.New()
	res, err := RunBenchmark(prog, core.WorldHRT, core.Options{Tracer: tr}, false)
	if err != nil {
		t.Fatal(err)
	}
	reqs := 0
	for _, sp := range res.Tracer.Spans() {
		for _, a := range sp.Attrs {
			if a.Key == "req" && a.Val != 0 {
				reqs++
			}
		}
	}
	if reqs == 0 {
		t.Error("no span carries a nonzero req attribute — request IDs are not propagating")
	}
}

// TestRegistryConcurrentAccess exercises Counter/Histogram handles from
// many goroutines while a scheduler-enabled hybrid run records into the
// same registry — the -race shard for the exposition plane, which reads
// snapshots of a live registry.
func TestRegistryConcurrentAccess(t *testing.T) {
	prog, ok := ProgramByName("spectral-norm")
	if !ok {
		t.Fatal("spectral-norm program missing")
	}
	reg := telemetry.NewRegistry()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("test.spin")
			h := reg.LatencyHistogram("test.lat")
			for {
				select {
				case <-done:
					return
				default:
				}
				c.Inc()
				h.Observe(128)
				_ = reg.Snapshot()
			}
		}()
	}
	_, err := RunBenchmark(prog, core.WorldHRT, core.Options{
		Scheduler: true, HRTCores: core.HRTCoreRange(4), Metrics: reg,
	}, false)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Counter("test.spin").Value() == 0 {
		t.Error("spinners never ran")
	}
	// A final snapshot over the combined run + spinner state must parse.
	if _, err := telemetry.ParseMetricsSnapshot(mustMarshal(t, reg)); err != nil {
		t.Fatal(err)
	}
}

func mustMarshal(t *testing.T, reg *telemetry.Registry) []byte {
	t.Helper()
	blob, err := reg.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
