package bench

import (
	"bytes"
	"testing"

	"multiverse/internal/faults"
)

// TestGridChaosSeedsIdentical is the chaos determinism gate on its own
// (the CI race shard matches it by name): for each seed, a chaotic run
// — node kill plus the transport fault menu — must produce the exact
// summary bytes of a clean run, and a repeat chaotic run must reproduce
// itself.
func TestGridChaosSeedsIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		clean, err := RunGridChaos(gridChaosNodes, gridChaosGroups, faults.Plan{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d clean: %v", seed, err)
		}
		plan := faults.Plan{Seed: seed, Rate: gridChaosRate, KillRate: gridChaosRate / 10, NodeKills: 1}
		chaotic, err := RunGridChaos(gridChaosNodes, gridChaosGroups, plan)
		if err != nil {
			t.Fatalf("seed %d chaos: %v", seed, err)
		}
		if !bytes.Equal(clean, chaotic) {
			t.Errorf("seed %d: chaos summary diverged from clean:\nclean:\n%schaos:\n%s",
				seed, clean, chaotic)
		}
		again, err := RunGridChaos(gridChaosNodes, gridChaosGroups, plan)
		if err != nil {
			t.Fatalf("seed %d chaos repeat: %v", seed, err)
		}
		if !bytes.Equal(chaotic, again) {
			t.Errorf("seed %d: chaos run not self-reproducible", seed)
		}
	}
}
