package bench

import (
	"bytes"
	"fmt"
	"math/rand"

	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/linuxabi"
	"multiverse/internal/telemetry"
)

// The grid suite measures the checkpoint/restore + live-migration plane:
// what one voluntary migration costs on the dedicated migration clock,
// that a migrated run is byte-identical (output AND virtual-cycle
// totals) to an unmigrated one, restore latency when a node dies under
// a 1000-group load with the survivors absorbing its groups, and that
// the chaos suite — node kills plus the transport fault menu — leaves
// the workload's observable output byte-identical to a clean run.
// Every pinned figure is virtual; BENCH_pr10.json is byte-exact in CI.

const (
	// gridMigrateCallsBefore/After split the migration unit's boundary
	// crossings around the barrier where the migration is armed.
	gridMigrateCallsBefore = 6
	gridMigrateCallsAfter  = 10

	// gridKillNodes/Groups/Victims: the scripted node-kill scenario —
	// 1000 live groups, 8 of them on the doomed node.
	gridKillNodes   = 8
	gridKillGroups  = 1000
	gridKillVictims = 8
	// gridKillCalls1/2 are each group's crossings before and after the
	// kill barrier.
	gridKillCalls1 = 3
	gridKillCalls2 = 4

	// Chaos unit shape: per-seed clean-vs-chaos byte comparison.
	gridChaosNodes  = 4
	gridChaosGroups = 64
	gridChaosSeeds  = 3
	gridChaosRate   = 0.05
)

// GridBaseline is the BENCH_pr10.json document. Every field is
// deterministic: exact in CI under a byte-compare gate.
type GridBaseline struct {
	Note    string `json:"note"`
	ClockHz uint64 `json:"clock_hz"`

	// Migration unit: one group migrated mid-run between two nodes,
	// held against an unmigrated reference on a standalone system.
	MigrateNodes       int `json:"migrate_nodes"`
	MigrateCallsBefore int `json:"migrate_calls_before"`
	MigrateCallsAfter  int `json:"migrate_calls_after"`
	// MigrateLatencyCycles is the full quiesce+checkpoint+transfer+
	// restore cost of the one migration, in virtual cycles on the
	// dedicated migration clock.
	MigrateLatencyCycles uint64 `json:"migrate_latency_cycles"`
	// MigrateHRTCycles is the migrated group's final HRT-clock total —
	// identical to the unmigrated reference (the transparency pin).
	MigrateHRTCycles   uint64 `json:"migrate_hrt_cycles"`
	MigrateOutputMatch bool   `json:"migrate_output_match"`
	MigrateCycleMatch  bool   `json:"migrate_cycle_match"`

	// Node-kill unit: the scripted scenario at 1000 live groups.
	KillNodes            int    `json:"kill_nodes"`
	KillGroups           int    `json:"kill_groups"`
	KillVictimGroups     int    `json:"kill_victim_groups"`
	KillRestored         int    `json:"kill_restored"`
	KillRestoreP50Cycles uint64 `json:"kill_restore_p50_cycles"`
	KillRestoreP99Cycles uint64 `json:"kill_restore_p99_cycles"`
	// KillMigrationClockCycles is the grid migration clock after the 8
	// restores — total recovery work in virtual cycles.
	KillMigrationClockCycles uint64 `json:"kill_migration_clock_cycles"`
	// KillCompletedTotal sums every group's serviced-seqno count after
	// the joins: groups*(calls+exit), pinning zero lost and zero
	// duplicated syscalls at scale.
	KillCompletedTotal uint64 `json:"kill_completed_total"`
	// KillRepeatMatch records that a second full run (fresh grid, same
	// script) produced identical figures.
	KillRepeatMatch bool `json:"kill_repeat_match"`

	// Chaos unit: node kills + the transport fault menu against the
	// density-style workload, compared byte-for-byte against a clean
	// run of the same seed.
	ChaosNodes         int     `json:"chaos_nodes"`
	ChaosGroups        int     `json:"chaos_groups"`
	ChaosSeeds         int     `json:"chaos_seeds"`
	ChaosRate          float64 `json:"chaos_rate"`
	ChaosByteIdentical bool    `json:"chaos_byte_identical"`
}

// buildGridNodes assembles n identically-configured grid nodes sharing
// one metrics registry and flight recorder, plus the fault plan when
// one is armed, and joins them into a Grid.
func buildGridNodes(n int, plan *faults.Plan) (*core.Grid, *telemetry.Registry, error) {
	return buildGridNodesObserved(n, plan, nil, nil)
}

// buildGridNodesObserved builds the grid into caller-supplied telemetry
// (either may be nil for a fresh instance), so mvrun can serve the
// grid's metrics and flight recorder through its exposition plane.
func buildGridNodesObserved(n int, plan *faults.Plan, reg *telemetry.Registry, rec *telemetry.Recorder) (*core.Grid, *telemetry.Registry, error) {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if rec == nil {
		rec = telemetry.NewRecorder(telemetry.DefaultRecorderSize)
	}
	nodes := make([]*core.System, n)
	for i := range nodes {
		fs, err := provisionFS(nil)
		if err != nil {
			return nil, nil, err
		}
		sys, err := NewSystemForWorldCfg(core.WorldHRT, fs, "grid", RunConfig{
			Metrics: reg, Recorder: rec, Faults: plan,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("bench: grid node %d: %w", i, err)
		}
		nodes[i] = sys
	}
	gr, err := core.NewGrid(nodes)
	if err != nil {
		return nil, nil, err
	}
	return gr, reg, nil
}

// migrateBody is the migration unit's group body: deterministic
// getpid/write crossings folded into a checksum, split around a
// barrier so the driver can arm the migration while the group is
// provably quiescent at a known crossing count.
func migrateBody(arrived chan<- struct{}, gate <-chan struct{}) func(core.Env) uint64 {
	cross := func(env core.Env, i int, sum uint64) uint64 {
		if i%2 == 0 {
			return sum + env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}).Ret
		}
		return sum + env.Syscall(linuxabi.Call{
			Num:  linuxabi.SysWrite,
			Args: [6]uint64{1},
			Data: []byte(fmt.Sprintf("m%02d;", i)),
		}).Ret
	}
	return func(env core.Env) uint64 {
		var sum uint64
		for i := 0; i < gridMigrateCallsBefore; i++ {
			sum = cross(env, i, sum)
		}
		arrived <- struct{}{}
		<-gate
		for i := 0; i < gridMigrateCallsAfter; i++ {
			sum = cross(env, gridMigrateCallsBefore+i, sum)
		}
		return sum & 0xffff
	}
}

// gridMigrateUnit pins one voluntary migration: latency on the
// migration clock, and byte/cycle transparency against an unmigrated
// reference run.
func gridMigrateUnit(b *GridBaseline) error {
	// Unmigrated reference on a standalone system.
	fs, err := provisionFS(nil)
	if err != nil {
		return err
	}
	ref, err := NewSystemForWorldCfg(core.WorldHRT, fs, "grid", RunConfig{})
	if err != nil {
		return err
	}
	// Spawn on Main's clock — the same creator SpawnGroupOn charges on
	// the grid side, so the two groups' virtual start times agree.
	refArrived, refGate := make(chan struct{}, 1), make(chan struct{})
	rg, err := ref.SpawnGroup(ref.Main.Clock, migrateBody(refArrived, refGate))
	if err != nil {
		return err
	}
	<-refArrived
	close(refGate)
	refCode, err := rg.Join(ref.Main)
	if err != nil {
		return fmt.Errorf("bench: grid migrate reference join: %w", err)
	}
	refOut := ref.Proc.Stdout()
	refCycles := rg.HRTThread().Clock.Now()

	// Migrated run on a two-node grid: arm at the barrier (the group has
	// made exactly gridMigrateCallsBefore crossings), release, and the
	// migration fires on the first crossing after it.
	gr, reg, err := buildGridNodes(2, nil)
	if err != nil {
		return err
	}
	arrived, gate := make(chan struct{}, 1), make(chan struct{})
	g, err := gr.SpawnGroupOn(0, migrateBody(arrived, gate))
	if err != nil {
		return err
	}
	<-arrived
	res, err := gr.ArmMigration(g, 1, gridMigrateCallsBefore)
	if err != nil {
		return err
	}
	close(gate)
	if merr := <-res; merr != nil {
		return fmt.Errorf("bench: grid migrate: %w", merr)
	}
	code, err := g.Join(gr.Node(0).Main)
	if err != nil {
		return fmt.Errorf("bench: grid migrate join: %w", err)
	}
	out := append(append([]byte{}, gr.Node(0).Proc.Stdout()...), gr.Node(1).Proc.Stdout()...)

	if code != refCode {
		return fmt.Errorf("bench: grid migrate exit %d != reference %d", code, refCode)
	}
	if !bytes.Equal(out, refOut) {
		return fmt.Errorf("bench: grid migrate output diverged from reference:\n%q\nvs\n%q", out, refOut)
	}
	gotCycles := g.HRTThread().Clock.Now()
	if gotCycles != refCycles {
		return fmt.Errorf("bench: grid migrate HRT cycles %d != reference %d (migration cost leaked)", gotCycles, refCycles)
	}
	b.MigrateNodes = 2
	b.MigrateCallsBefore = gridMigrateCallsBefore
	b.MigrateCallsAfter = gridMigrateCallsAfter
	b.MigrateLatencyCycles = uint64(reg.LatencyHistogram("grid.migrate.latency").Sum())
	b.MigrateHRTCycles = uint64(refCycles)
	b.MigrateOutputMatch = true
	b.MigrateCycleMatch = true
	if b.MigrateLatencyCycles == 0 {
		return fmt.Errorf("bench: grid migrate measured zero latency")
	}
	return nil
}

// gridKillFigures is one node-kill run's pinned numbers, comparable
// across the repeat run.
type gridKillFigures struct {
	Restored        int
	RestoreP50      uint64
	RestoreP99      uint64
	MigrationCycles uint64
	CompletedTotal  uint64
}

// runGridKill executes the scripted scenario once: 1000 live groups on
// 8 nodes (8 on the last), kill that node at the workload barrier, all
// 8 victims restore on survivors, everything joins clean.
func runGridKill() (*gridKillFigures, error) {
	// Zero-rate plan: injects nothing, arms the channel seqno window so
	// serviced calls are countable.
	gr, reg, err := buildGridNodes(gridKillNodes, &faults.Plan{Seed: 7})
	if err != nil {
		return nil, err
	}
	total := gridKillGroups
	gate := make(chan struct{})
	arrived := make(chan struct{}, total)
	fn := func(env core.Env) uint64 {
		for i := 0; i < gridKillCalls1; i++ {
			if res := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}); !res.Ok() {
				return 1
			}
		}
		arrived <- struct{}{}
		<-gate
		for i := 0; i < gridKillCalls2; i++ {
			if res := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}); !res.Ok() {
				return 1
			}
		}
		return 0
	}
	groups := make([]*core.ExecutionGroup, 0, total)
	for i := 0; i < total-gridKillVictims; i++ {
		g, serr := gr.SpawnGroupOn(i%(gridKillNodes-1), fn)
		if serr != nil {
			return nil, fmt.Errorf("bench: grid kill spawn %d: %w", i, serr)
		}
		groups = append(groups, g)
	}
	for i := 0; i < gridKillVictims; i++ {
		g, serr := gr.SpawnGroupOn(gridKillNodes-1, fn)
		if serr != nil {
			return nil, fmt.Errorf("bench: grid kill victim spawn %d: %w", i, serr)
		}
		groups = append(groups, g)
	}
	for range groups {
		<-arrived
	}
	// Every group is quiesced at the barrier — the node kill lands on a
	// grid with nothing in flight, the quiesce-point invariant.
	ids, err := gr.KillNode(gridKillNodes - 1)
	if err != nil {
		return nil, fmt.Errorf("bench: grid kill: %w", err)
	}
	if len(ids) != gridKillVictims {
		return nil, fmt.Errorf("bench: grid kill restored %d groups, want %d", len(ids), gridKillVictims)
	}
	close(gate)
	var completed uint64
	for i, g := range groups {
		code, jerr := g.Join(gr.Node(0).Main)
		if jerr != nil || code != 0 {
			return nil, fmt.Errorf("bench: grid kill join %d: code %d err %v", i, code, jerr)
		}
		completed += uint64(g.Channel().Window().Completed)
	}
	want := uint64(total) * uint64(gridKillCalls1+gridKillCalls2+1)
	if completed != want {
		return nil, fmt.Errorf("bench: grid kill completed %d syscalls, want %d (lost or duplicated)", completed, want)
	}
	h := reg.LatencyHistogram("grid.restore.latency")
	return &gridKillFigures{
		Restored:        len(ids),
		RestoreP50:      uint64(h.Quantile(0.50)),
		RestoreP99:      uint64(h.Quantile(0.99)),
		MigrationCycles: uint64(gr.MigrationCycles()),
		CompletedTotal:  completed,
	}, nil
}

// gridKillUnit runs the scripted scenario twice — figures must agree
// exactly, or host interleaving leaked into the virtual plane.
func gridKillUnit(b *GridBaseline) error {
	first, err := runGridKill()
	if err != nil {
		return err
	}
	second, err := runGridKill()
	if err != nil {
		return fmt.Errorf("bench: grid kill repeat run: %w", err)
	}
	if *first != *second {
		return fmt.Errorf("bench: grid kill figures diverged across runs: %+v vs %+v", first, second)
	}
	b.KillNodes = gridKillNodes
	b.KillGroups = gridKillGroups
	b.KillVictimGroups = gridKillVictims
	b.KillRestored = first.Restored
	b.KillRestoreP50Cycles = first.RestoreP50
	b.KillRestoreP99Cycles = first.RestoreP99
	b.KillMigrationClockCycles = first.MigrationCycles
	b.KillCompletedTotal = first.CompletedTotal
	b.KillRepeatMatch = true
	return nil
}

// RunGridChaos drives the chaos workload on a fresh grid and returns
// its deterministic summary: one line per group — spawn index, exit
// checksum, crossing count, serviced-envelope count — in spawn order.
// The summary contains nothing node- or time-dependent, so a chaos run
// (node kills + transport faults) is byte-identical to a clean run of
// the same seed: that equality IS the zero-lost/zero-duplicated/
// transparent-recovery claim.
//
// plan.Seed shapes the workload (per-group call counts); plan.NodeKills
// node-kill events fire at the workload barrier, victims chosen by
// faults.NodeKillVictim — a victim already down rolls forward to the
// next live node, and kills stop when one node remains. The transport
// menu (drop/corrupt/duplicate/delay/stall, partner kills) runs at the
// plan's rates. HRT panics are not part of the chaos menu: a panic
// legitimately changes the group's exit, so transparency cannot hold.
func RunGridChaos(nodes, groups int, plan faults.Plan) ([]byte, error) {
	return RunGridChaosObserved(nodes, groups, plan, nil, nil)
}

// RunGridChaosObserved is RunGridChaos recording into caller-supplied
// telemetry: reg collects the grid.* metrics, rec the flight-recorder
// events (checkpoint, restore, node-kill, migrate-complete), so mvrun
// can emit its usual post-run artifacts for a grid run. Either may be
// nil.
func RunGridChaosObserved(nodes, groups int, plan faults.Plan, reg *telemetry.Registry, rec *telemetry.Recorder) ([]byte, error) {
	plan.PanicRate = 0
	kills := plan.NodeKills
	plan.NodeKills = 0 // node kills are grid-driven, not channel-rolled
	gr, _, err := buildGridNodesObserved(nodes, &plan, reg, rec)
	if err != nil {
		return nil, err
	}

	// Workload shape from the seed: identical between a clean and a
	// chaotic run of the same seed.
	r := rand.New(rand.NewSource(int64(plan.Seed)))
	calls1 := make([]int, groups)
	calls2 := make([]int, groups)
	for i := range calls1 {
		calls1[i] = 2 + r.Intn(4)
		calls2[i] = 1 + r.Intn(4)
	}

	gate := make(chan struct{})
	arrived := make(chan struct{}, groups)
	body := func(idx int) func(core.Env) uint64 {
		return func(env core.Env) uint64 {
			var sum uint64
			cross := func(j int) {
				if j%2 == 0 {
					sum += env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}).Ret
				} else {
					sum += env.Syscall(linuxabi.Call{
						Num:  linuxabi.SysWrite,
						Args: [6]uint64{1},
						Data: []byte(fmt.Sprintf("g%04d.%d;", idx, j)),
					}).Ret
				}
			}
			for j := 0; j < calls1[idx]; j++ {
				cross(j)
			}
			arrived <- struct{}{}
			<-gate
			for j := 0; j < calls2[idx]; j++ {
				cross(calls1[idx] + j)
			}
			return sum & 0xffff
		}
	}
	gs := make([]*core.ExecutionGroup, groups)
	for i := 0; i < groups; i++ {
		g, serr := gr.SpawnGroupOn(i%nodes, body(i))
		if serr != nil {
			return nil, fmt.Errorf("bench: chaos spawn %d: %w", i, serr)
		}
		gs[i] = g
	}
	for range gs {
		<-arrived
	}
	// Node kills land at the barrier, where every group is quiesced.
	for k := 0; k < kills; k++ {
		if gr.NodesLive() <= 1 {
			break
		}
		v := faults.NodeKillVictim(plan.Seed, k, nodes)
		for gr.NodeDown(v) {
			v = (v + 1) % nodes
		}
		if _, kerr := gr.KillNode(v); kerr != nil {
			return nil, fmt.Errorf("bench: chaos node kill %d: %w", k, kerr)
		}
	}
	close(gate)

	var out bytes.Buffer
	var totalCalls int
	for i, g := range gs {
		code, jerr := g.Join(gr.Node(0).Main)
		if jerr != nil {
			return nil, fmt.Errorf("bench: chaos join %d: %w", i, jerr)
		}
		n := calls1[i] + calls2[i]
		totalCalls += n
		fmt.Fprintf(&out, "group %04d exit=%#04x calls=%d completed=%d\n",
			i, code, n, g.Channel().Window().Completed)
	}
	fmt.Fprintf(&out, "ok groups=%d calls=%d\n", groups, totalCalls)
	return out.Bytes(), nil
}

// gridChaosUnit compares chaos against clean across the pinned seeds.
func gridChaosUnit(b *GridBaseline) error {
	for seed := uint64(1); seed <= gridChaosSeeds; seed++ {
		clean, err := RunGridChaos(gridChaosNodes, gridChaosGroups, faults.Plan{Seed: seed})
		if err != nil {
			return fmt.Errorf("bench: chaos clean seed %d: %w", seed, err)
		}
		chaotic, err := RunGridChaos(gridChaosNodes, gridChaosGroups, faults.Plan{
			Seed: seed, Rate: gridChaosRate, KillRate: gridChaosRate / 10,
			NodeKills: 1,
		})
		if err != nil {
			return fmt.Errorf("bench: chaos seed %d: %w", seed, err)
		}
		if !bytes.Equal(clean, chaotic) {
			return fmt.Errorf("bench: chaos output diverged from clean at seed %d:\nclean:\n%schaos:\n%s", seed, clean, chaotic)
		}
	}
	b.ChaosNodes = gridChaosNodes
	b.ChaosGroups = gridChaosGroups
	b.ChaosSeeds = gridChaosSeeds
	b.ChaosRate = gridChaosRate
	b.ChaosByteIdentical = true
	return nil
}

// CollectGridBaseline runs the full suite and assembles the document.
// Each unit fails the collection when its acceptance criterion breaks: a
// migrated run not byte- and cycle-identical to its reference, a node
// kill that restores fewer than every victim or loses or duplicates a
// syscall, a repeat run that diverges, or a chaos seed whose output
// differs from clean.
func CollectGridBaseline() (*GridBaseline, error) {
	b := &GridBaseline{
		Note:    regenerateNote("grid") + "; all fields deterministic, byte-exact in CI",
		ClockHz: uint64(cycles.ClockHz),
	}
	for _, unit := range []struct {
		name string
		run  func(*GridBaseline) error
	}{
		{"migrate", gridMigrateUnit},
		{"kill", gridKillUnit},
		{"chaos", gridChaosUnit},
	} {
		if err := unit.run(b); err != nil {
			return nil, fmt.Errorf("bench: grid unit %s: %w", unit.name, err)
		}
	}
	return b, nil
}

// FigureGrid renders the grid suite as a table.
func FigureGrid() (*Table, error) {
	b, err := CollectGridBaseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Grid figure: live migration, node-kill recovery, chaos transparency",
		Header: []string{"Figure", "Value"},
	}
	t.AddRow("migration latency (cycles)", fmt.Sprintf("%d", b.MigrateLatencyCycles))
	t.AddRow("migrated run output/cycles match", fmt.Sprintf("%v / %v", b.MigrateOutputMatch, b.MigrateCycleMatch))
	t.AddRow("node-kill scenario", fmt.Sprintf("%d groups on %d nodes, %d victims",
		b.KillGroups, b.KillNodes, b.KillVictimGroups))
	t.AddRow("victims restored on survivors", fmt.Sprintf("%d", b.KillRestored))
	t.AddRow("restore latency p50/p99 (cycles)", fmt.Sprintf("%d / %d",
		b.KillRestoreP50Cycles, b.KillRestoreP99Cycles))
	t.AddRow("recovery total (migration clock)", fmt.Sprintf("%d", b.KillMigrationClockCycles))
	t.AddRow("syscalls completed (zero lost/dup)", fmt.Sprintf("%d", b.KillCompletedTotal))
	t.AddRow("chaos vs clean byte-identical", fmt.Sprintf("%v (%d seeds, rate %g, %d nodes, %d groups)",
		b.ChaosByteIdentical, b.ChaosSeeds, b.ChaosRate, b.ChaosNodes, b.ChaosGroups))
	t.AddNote("kill repeat match: %v; all figures virtual (cycles at %d Hz)",
		b.KillRepeatMatch, b.ClockHz)
	return t, nil
}
