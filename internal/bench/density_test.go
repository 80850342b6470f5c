package bench

import (
	"strings"
	"testing"

	"multiverse/internal/core"
)

// TestDensityMetricsOnlyWhenConfigured checks that a run registers the
// warm-pool, admission and budget instruments only when it configures
// them: a default-options run lists none, while the density figure, whose
// systems configure each, still prints their rows with their counts.
func TestDensityMetricsOnlyWhenConfigured(t *testing.T) {
	sys, err := densitySystem(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clk := sys.Main.Clock
	g, err := sys.SpawnGroup(clk, getpidFn(4))
	if err != nil {
		t.Fatal(err)
	}
	if code, err := g.WaitExit(clk); err != nil || code != 0 {
		t.Fatalf("join: code %d, err %v", code, err)
	}
	dump := sys.Metrics().Dump()
	if !strings.Contains(dump, "density.groups.spawned") {
		t.Errorf("default run lists no density.groups.spawned:\n%s", dump)
	}
	for _, name := range []string{"density.warm.size", "density.warm.hits", "density.warm.misses",
		"density.warm.returns", "density.warm.drops", "density.admission.rejected", "density.budget.rejected"} {
		if strings.Contains(dump, name) {
			t.Errorf("default run registers %s", name)
		}
	}

	fig, err := FigureDensity()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, r := range fig.Rows {
		rows[r[0]] = r[1]
	}
	for row, want := range map[string]string{
		"warm pool hits/misses":   "256 / 1000",
		"warm pool returns/drops": "512 / 744",
	} {
		if got := rows[row]; got != want {
			t.Errorf("density figure row %q = %q, want %q", row, got, want)
		}
	}
}
