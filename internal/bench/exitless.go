package bench

import (
	"fmt"

	"multiverse/internal/core"
	"multiverse/internal/cycles"
)

// ExitlessComparison is one benchmark's WorldHRT run with the router on
// in both cases: tier-3 exitless rings off ("dark" — the PR-6 routed
// configuration, byte for byte) vs on. The interesting deltas are the
// forward-path cycles and the exit ledger: the rings keep exits.ring at
// zero while absorbing the forwards the sync channel used to carry.
type ExitlessComparison struct {
	Program string `json:"program"`

	DarkCycles    uint64 `json:"dark_cycles"`
	OnCycles      uint64 `json:"on_cycles"`
	DarkCrossings uint64 `json:"dark_crossings"`
	OnCrossings   uint64 `json:"on_crossings"`
	// Forward cycles: the boundary round-trip virtual time the HRT
	// thread paid (async + sync + ring tiers).
	DarkForwardCycles uint64 `json:"dark_forward_cycles"`
	OnForwardCycles   uint64 `json:"on_forward_cycles"`

	// Tier-3 counters from the exitless run.
	RingCalls      uint64 `json:"ring_calls"`
	RingPromotions uint64 `json:"ring_promotions"`
	RingDemotions  uint64 `json:"ring_demotions"`
	// RingExits is the overflow-doorbell exit count on the ring path;
	// the baseline pins it at zero (the exitless claim).
	RingExits uint64 `json:"ring_exits"`

	// OutputMatch records that the exitless run produced byte-identical
	// program output to the dark run.
	OutputMatch bool `json:"output_match"`
}

// CompareExitless runs one benchmark in WorldHRT twice — router on with
// the tier-3 rings off, then on — and pairs the results. Both runs are
// deterministic, so the comparison is too.
func CompareExitless(prog Program) (*ExitlessComparison, error) {
	dark, err := RunBenchmarkCfg(prog, core.WorldHRT, RunConfig{Router: true})
	if err != nil {
		return nil, err
	}
	on, err := RunBenchmarkCfg(prog, core.WorldHRT, RunConfig{Router: true, Exitless: true})
	if err != nil {
		return nil, err
	}
	return &ExitlessComparison{
		Program:           prog.Name,
		DarkCycles:        uint64(dark.Cycles),
		OnCycles:          uint64(on.Cycles),
		DarkCrossings:     dark.ForwardedSyscalls,
		OnCrossings:       on.ForwardedSyscalls,
		DarkForwardCycles: uint64(dark.ForwardedSyscallCycles),
		OnForwardCycles:   uint64(on.ForwardedSyscallCycles),
		RingCalls:         on.RingCalls,
		RingPromotions:    on.RingPromotions,
		RingDemotions:     on.RingDemotions,
		RingExits:         on.RingExits,
		OutputMatch:       string(dark.Output) == string(on.Output),
	}, nil
}

// ExitlessBaseline is the BENCH_pr7.json document: the deterministic
// per-benchmark comparison set plus the composed round-trip prices the
// cost model charges for one forwarded call on each transport.
type ExitlessBaseline struct {
	// Note documents how to regenerate the file.
	Note string `json:"note"`

	// Composed round trips from the cost model (cycles): the tier-3
	// ring must stay within 2x of the synchronous channel on both
	// socket placements — that is the pinned perf claim.
	SyncRoundTripSameSocket  uint64 `json:"sync_round_trip_same_socket"`
	SyncRoundTripCrossSocket uint64 `json:"sync_round_trip_cross_socket"`
	RingRoundTripSameSocket  uint64 `json:"ring_round_trip_same_socket"`
	RingRoundTripCrossSocket uint64 `json:"ring_round_trip_cross_socket"`

	Benchmarks []ExitlessComparison `json:"benchmarks"`
}

// CollectExitlessBaseline runs the seven-benchmark suite in WorldHRT with
// the tier-3 rings off and on and returns the comparison set. It enforces
// the suite's invariants before returning: every program's output matches
// its dark run, at least one program actually promoted onto the rings,
// exits.ring is zero everywhere, and the composed ring round trip is
// within 2x of the sync round trip on both socket placements.
func CollectExitlessBaseline() (*ExitlessBaseline, error) {
	cost := cycles.DefaultCostModel()
	b := &ExitlessBaseline{
		Note:                     regenerateNote("exitless"),
		SyncRoundTripSameSocket:  uint64(cost.SyncRoundTrip(true)),
		SyncRoundTripCrossSocket: uint64(cost.SyncRoundTrip(false)),
		RingRoundTripSameSocket:  uint64(cost.RingRoundTrip(true)),
		RingRoundTripCrossSocket: uint64(cost.RingRoundTrip(false)),
	}
	if b.RingRoundTripSameSocket > 2*b.SyncRoundTripSameSocket {
		return nil, fmt.Errorf("bench: ring round trip %d exceeds 2x sync %d (same socket)",
			b.RingRoundTripSameSocket, b.SyncRoundTripSameSocket)
	}
	if b.RingRoundTripCrossSocket > 2*b.SyncRoundTripCrossSocket {
		return nil, fmt.Errorf("bench: ring round trip %d exceeds 2x sync %d (cross socket)",
			b.RingRoundTripCrossSocket, b.SyncRoundTripCrossSocket)
	}
	var ringCalls uint64
	for _, p := range Programs() {
		cmp, err := CompareExitless(p)
		if err != nil {
			return nil, err
		}
		if !cmp.OutputMatch {
			return nil, fmt.Errorf("bench: %s output diverged with exitless rings on", p.Name)
		}
		if cmp.RingExits != 0 {
			return nil, fmt.Errorf("bench: %s took %d VM exits on the ring path (want 0)",
				p.Name, cmp.RingExits)
		}
		ringCalls += cmp.RingCalls
		b.Benchmarks = append(b.Benchmarks, *cmp)
	}
	if ringCalls == 0 {
		return nil, fmt.Errorf("bench: no benchmark promoted onto the tier-3 rings")
	}
	return b, nil
}

// FigureExitless regenerates the exitless comparison: the seven
// benchmarks in WorldHRT with the tier-3 rings off vs on, plus the
// composed transport round trips.
func FigureExitless() (*Table, error) {
	b, err := CollectExitlessBaseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Exitless figure: tier-3 polled SPSC rings, WorldHRT router on, rings off vs on",
		Header: []string{
			"Benchmark", "Cycles (dark)", "Cycles (rings)", "Speedup",
			"Fwd cycles (dark)", "Fwd cycles (rings)",
			"Ring calls", "Promo", "Ring exits",
		},
	}
	for _, c := range b.Benchmarks {
		t.AddRow(
			c.Program,
			fmt.Sprintf("%d", c.DarkCycles),
			fmt.Sprintf("%d", c.OnCycles),
			fmt.Sprintf("%.3fx", float64(c.DarkCycles)/float64(c.OnCycles)),
			fmt.Sprintf("%d", c.DarkForwardCycles),
			fmt.Sprintf("%d", c.OnForwardCycles),
			fmt.Sprintf("%d", c.RingCalls),
			fmt.Sprintf("%d/%d", c.RingPromotions, c.RingDemotions),
			fmt.Sprintf("%d", c.RingExits),
		)
	}
	t.AddNote("composed round trips: sync %d/%d cycles (same/cross socket), ring %d/%d — within 2x, zero VM exits",
		b.SyncRoundTripSameSocket, b.SyncRoundTripCrossSocket,
		b.RingRoundTripSameSocket, b.RingRoundTripCrossSocket)
	t.AddNote("steady-state ring path takes no exits: exits.ring stays 0; hypercalls appear only at ring setup/teardown")
	return t, nil
}
