package bench

import (
	"errors"
	"fmt"
	"sync"

	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
)

// The density suite measures the serverless-density multi-tenancy plane:
// how cheaply the system spawns execution groups (cold boot vs warm-pool
// reuse), what forwarded-syscall latency looks like with 1000 tenants
// live at once, and that admission control rejects deterministically at
// the cap and at the budget. Unlike the simspeed suite, every pinned
// figure here is virtual (cycles, counts, quantile edges) — nothing
// host-dependent goes into the JSON — so BENCH_pr9.json is byte-exact in
// CI. Host parallelism still gets exercised: the dense unit spawns its
// 1000 groups from denseSpawners concurrent host goroutines and the
// whole phase is repeated to prove the figures do not depend on the
// interleaving.

const (
	// densitySingleCalls is the forwarded-syscall sample of the
	// single-group reference unit.
	densitySingleCalls = 32
	// denseGroups is the concurrently-live group count of the dense unit
	// (the ISSUE's 1k-tenant floor).
	denseGroups = 1000
	// denseSpawners is how many host goroutines spawn the dense wave,
	// each with its own creator clock (denseGroups must divide evenly).
	denseSpawners = 8
	// denseCallsPerGroup is each dense group's forwarded-getpid count.
	denseCallsPerGroup = 8
	// denseWarmPool is the warm-pool bound of the dense unit: the second
	// wave draws entirely from it while the 744 excess exits drop.
	denseWarmPool = 256
	// denseWarmWave is the second spawn wave, sized to the pool so every
	// spawn is a warm hit.
	denseWarmWave = 256
)

// DensityBaseline is the BENCH_pr9.json document. Every field is
// deterministic: exact in CI under a byte-compare gate.
type DensityBaseline struct {
	Note    string `json:"note"`
	ClockHz uint64 `json:"clock_hz"`

	// Single-group reference: the latency yardstick the dense unit is
	// held against.
	SingleColdSpawnCycles uint64 `json:"single_cold_spawn_cycles"`
	SingleForwarded       uint64 `json:"single_forwarded_syscalls"`
	SingleP50Cycles       uint64 `json:"single_p50_cycles"`
	SingleP99Cycles       uint64 `json:"single_p99_cycles"`
	SingleP999Cycles      uint64 `json:"single_p999_cycles"`

	// Warm-vs-cold spawn cost, creator-observed, same system.
	ColdSpawnCycles uint64  `json:"cold_spawn_cycles"`
	WarmSpawnCycles uint64  `json:"warm_spawn_cycles"`
	WarmSpeedup     float64 `json:"warm_speedup"`

	// Dense unit: 1000 concurrently live groups spawned from
	// denseSpawners host goroutines, then a 256-group warm second wave.
	DenseGroups              int    `json:"dense_groups"`
	DensePeakLive            uint64 `json:"dense_peak_live"`
	DenseSpawnCyclesPerGroup uint64 `json:"dense_spawn_cycles_per_group"`
	DenseForwarded           uint64 `json:"dense_forwarded_syscalls"`
	DenseP50Cycles           uint64 `json:"dense_p50_cycles"`
	DenseP99Cycles           uint64 `json:"dense_p99_cycles"`
	DenseP999Cycles          uint64 `json:"dense_p999_cycles"`
	// DenseP999Ratio is dense p999 over single-group p999 — the ISSUE's
	// within-2x isolation criterion.
	DenseP999Ratio               float64 `json:"dense_p999_ratio_vs_single"`
	DenseWarmWave                int     `json:"dense_warm_wave"`
	DenseWarmSpawnCyclesPerGroup uint64  `json:"dense_warm_spawn_cycles_per_group"`
	DenseWarmHits                uint64  `json:"dense_warm_hits"`
	DenseWarmMisses              uint64  `json:"dense_warm_misses"`
	DenseWarmReturns             uint64  `json:"dense_warm_returns"`
	DenseWarmDrops               uint64  `json:"dense_warm_drops"`
	// DenseGroupsLeaked is the registry residue after every group is
	// joined — the map-leak regression pinned at zero.
	DenseGroupsLeaked int `json:"dense_groups_leaked"`
	// DenseRepeatMatch records that a second full dense run (fresh
	// system, same host-parallel spawners) produced identical figures.
	DenseRepeatMatch bool `json:"dense_repeat_match"`

	// Admission unit: MaxGroups cap.
	AdmissionCap      int    `json:"admission_cap"`
	AdmissionAttempts int    `json:"admission_attempts"`
	AdmissionRejected uint64 `json:"admission_rejected"`

	// Budget unit: per-tenant cycle and memory budgets at the boundary.
	BudgetCycles          uint64 `json:"budget_cycles"`
	BudgetMemBytes        uint64 `json:"budget_mem_bytes"`
	BudgetCallsIssued     int    `json:"budget_calls_issued"`
	BudgetCallsRejected   int    `json:"budget_calls_rejected"`
	BudgetMmapsIssued     int    `json:"budget_mmaps_issued"`
	BudgetMmapsRejected   int    `json:"budget_mmaps_rejected"`
	BudgetRejectedCounter uint64 `json:"budget_rejected_counter"`
}

// densitySystem assembles a fresh hybrid system for one density unit.
func densitySystem(cfg RunConfig) (*core.System, error) {
	fs, err := provisionFS(nil)
	if err != nil {
		return nil, err
	}
	return NewSystemForWorldCfg(core.WorldHRT, fs, "density", cfg)
}

// getpidFn returns a group body that issues n forwarded getpid calls.
func getpidFn(n int) func(core.Env) uint64 {
	return func(env core.Env) uint64 {
		for i := 0; i < n; i++ {
			if res := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}); !res.Ok() {
				return 1
			}
		}
		return 0
	}
}

// densitySingle pins the single-group reference: cold-spawn cost and the
// forwarded-syscall latency quantiles with the system to itself.
func densitySingle(b *DensityBaseline) error {
	sys, err := densitySystem(RunConfig{})
	if err != nil {
		return err
	}
	// Spawn on a private creator clock: Main's clock is the registered
	// ROS-signal clock, which the group's own exit ratchets — measuring
	// on it would race the group's completion against the read below.
	creator := cycles.NewClock(0)
	start := creator.Now()
	g, err := sys.SpawnGroup(creator, getpidFn(densitySingleCalls))
	if err != nil {
		return err
	}
	b.SingleColdSpawnCycles = uint64(creator.Now() - start)
	if code, jerr := g.Join(sys.Main); jerr != nil || code != 0 {
		return fmt.Errorf("density: single join: code %d err %v", code, jerr)
	}
	h := sys.Metrics().LatencyHistogram("forward.syscall.latency")
	b.SingleForwarded = h.Count()
	b.SingleP50Cycles = uint64(h.Quantile(0.50))
	b.SingleP99Cycles = uint64(h.Quantile(0.99))
	b.SingleP999Cycles = uint64(h.Quantile(0.999))
	return nil
}

// densityWarmCold pins the creator-observed spawn cost of a cold boot
// against a warm-pool reuse on the same system.
func densityWarmCold(b *DensityBaseline) error {
	sys, err := densitySystem(RunConfig{WarmPool: 4})
	if err != nil {
		return err
	}
	// A private creator clock, for the same reason as densitySingle:
	// only the spawn path itself may move it, so the deltas are exact.
	clk := cycles.NewClock(0)

	t0 := clk.Now()
	g1, err := sys.SpawnGroup(clk, getpidFn(0))
	if err != nil {
		return err
	}
	b.ColdSpawnCycles = uint64(clk.Now() - t0)
	if _, jerr := g1.Join(sys.Main); jerr != nil {
		return jerr
	}

	t1 := clk.Now()
	g2, err := sys.SpawnGroup(clk, getpidFn(0))
	if err != nil {
		return err
	}
	b.WarmSpawnCycles = uint64(clk.Now() - t1)
	if _, jerr := g2.Join(sys.Main); jerr != nil {
		return jerr
	}
	if hits := sys.Metrics().Counter("density.warm.hits").Value(); hits != 1 {
		return fmt.Errorf("density: warm-cold unit took %d warm hits, want 1", hits)
	}
	if b.WarmSpawnCycles == 0 {
		return fmt.Errorf("density: warm spawn measured zero cycles")
	}
	b.WarmSpeedup = float64(b.ColdSpawnCycles) / float64(b.WarmSpawnCycles)
	return nil
}

// denseFigures is one dense run's pinned numbers, comparable across the
// repeat run.
type denseFigures struct {
	PeakLive            uint64
	SpawnCyclesPerGroup uint64
	Forwarded           uint64
	P50, P99, P999      uint64
	WarmSpawnPerGroup   uint64
	WarmHits            uint64
	WarmMisses          uint64
	WarmReturns         uint64
	WarmDrops           uint64
	Leaked              int
}

// runDense executes one full dense phase: spawn denseGroups groups from
// denseSpawners concurrent host goroutines, hold them all live at once
// behind a gate, release and join everything, then spawn a warm second
// wave out of the pool.
func runDense() (*denseFigures, error) {
	sys, err := densitySystem(RunConfig{WarmPool: denseWarmPool})
	if err != nil {
		return nil, err
	}
	perSpawner := denseGroups / denseSpawners
	gate := make(chan struct{})
	arrived := make(chan struct{}, denseGroups)
	fn := func(env core.Env) uint64 {
		for i := 0; i < denseCallsPerGroup; i++ {
			if res := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}); !res.Ok() {
				return 1
			}
		}
		arrived <- struct{}{}
		<-gate
		return 0
	}

	groups := make([][]*core.ExecutionGroup, denseSpawners)
	clocks := make([]*cycles.Clock, denseSpawners)
	spawnCyc := make([]uint64, denseSpawners)
	errs := make([]error, denseSpawners)
	var wg sync.WaitGroup
	for si := 0; si < denseSpawners; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			clk := cycles.NewClock(0)
			clocks[si] = clk
			for k := 0; k < perSpawner; k++ {
				g, serr := sys.SpawnGroup(clk, fn)
				if serr != nil {
					errs[si] = serr
					return
				}
				groups[si] = append(groups[si], g)
			}
			spawnCyc[si] = uint64(clk.Now())
		}(si)
	}
	wg.Wait()
	for si, serr := range errs {
		if serr != nil {
			close(gate)
			return nil, fmt.Errorf("density: dense spawner %d: %w", si, serr)
		}
	}
	// Every group checks in after its syscalls and before the gate, so
	// after denseGroups arrivals all of them are live simultaneously.
	for i := 0; i < denseGroups; i++ {
		<-arrived
	}
	fig := &denseFigures{
		PeakLive: sys.Metrics().Gauge("density.groups.peak").Value(),
	}
	close(gate)

	// Join the wave, each spawner on its own clock. The per-spawner
	// spawn cost must agree across spawners — the spawn path charges
	// program structure, not host interleaving.
	for si := 0; si < denseSpawners; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			for _, g := range groups[si] {
				if _, jerr := g.WaitExit(clocks[si]); jerr != nil {
					errs[si] = jerr
					return
				}
			}
		}(si)
	}
	wg.Wait()
	for si, jerr := range errs {
		if jerr != nil {
			return nil, fmt.Errorf("density: dense join %d: %w", si, jerr)
		}
	}
	for si := 1; si < denseSpawners; si++ {
		if spawnCyc[si] != spawnCyc[0] {
			return nil, fmt.Errorf("density: spawner %d spent %d cycles spawning, spawner 0 spent %d",
				si, spawnCyc[si], spawnCyc[0])
		}
	}
	fig.SpawnCyclesPerGroup = spawnCyc[0] / uint64(perSpawner)

	// Warm second wave: the pool holds denseWarmPool parked contexts, so
	// all denseWarmWave spawns are warm hits on a fresh creator clock.
	wclk := cycles.NewClock(0)
	wave := make([]*core.ExecutionGroup, 0, denseWarmWave)
	for i := 0; i < denseWarmWave; i++ {
		g, serr := sys.SpawnGroup(wclk, getpidFn(denseCallsPerGroup))
		if serr != nil {
			return nil, fmt.Errorf("density: warm wave spawn %d: %w", i, serr)
		}
		wave = append(wave, g)
	}
	warmSpawn := uint64(wclk.Now())
	for i, g := range wave {
		if code, jerr := g.WaitExit(wclk); jerr != nil || code != 0 {
			return nil, fmt.Errorf("density: warm wave join %d: code %d err %v", i, code, jerr)
		}
	}
	fig.WarmSpawnPerGroup = warmSpawn / denseWarmWave

	m := sys.Metrics()
	h := m.LatencyHistogram("forward.syscall.latency")
	fig.Forwarded = h.Count()
	fig.P50 = uint64(h.Quantile(0.50))
	fig.P99 = uint64(h.Quantile(0.99))
	fig.P999 = uint64(h.Quantile(0.999))
	fig.WarmHits = m.Counter("density.warm.hits").Value()
	fig.WarmMisses = m.Counter("density.warm.misses").Value()
	fig.WarmReturns = m.Counter("density.warm.returns").Value()
	fig.WarmDrops = m.Counter("density.warm.drops").Value()
	fig.Leaked = sys.GroupTableSize()
	return fig, nil
}

// densityDense runs the dense phase twice — figures must agree exactly,
// or host interleaving leaked into the virtual plane.
func densityDense(b *DensityBaseline) error {
	first, err := runDense()
	if err != nil {
		return err
	}
	second, err := runDense()
	if err != nil {
		return fmt.Errorf("density: repeat run: %w", err)
	}
	if *first != *second {
		return fmt.Errorf("density: dense figures diverged across runs: %+v vs %+v", first, second)
	}
	b.DenseGroups = denseGroups
	b.DensePeakLive = first.PeakLive
	b.DenseSpawnCyclesPerGroup = first.SpawnCyclesPerGroup
	b.DenseForwarded = first.Forwarded
	b.DenseP50Cycles = first.P50
	b.DenseP99Cycles = first.P99
	b.DenseP999Cycles = first.P999
	if b.SingleP999Cycles > 0 {
		b.DenseP999Ratio = float64(first.P999) / float64(b.SingleP999Cycles)
	}
	b.DenseWarmWave = denseWarmWave
	b.DenseWarmSpawnCyclesPerGroup = first.WarmSpawnPerGroup
	b.DenseWarmHits = first.WarmHits
	b.DenseWarmMisses = first.WarmMisses
	b.DenseWarmReturns = first.WarmReturns
	b.DenseWarmDrops = first.WarmDrops
	b.DenseGroupsLeaked = first.Leaked
	b.DenseRepeatMatch = true
	return nil
}

// densityAdmission pins the MaxGroups cap: with cap live groups held at
// the gate, further spawns fail with ErrAdmissionRejected.
func densityAdmission(b *DensityBaseline) error {
	const cap = 8
	const attempts = 10
	sys, err := densitySystem(RunConfig{MaxGroups: cap})
	if err != nil {
		return err
	}
	gate := make(chan struct{})
	arrived := make(chan struct{}, cap)
	held := make([]*core.ExecutionGroup, 0, cap)
	clk := cycles.NewClock(0)
	for i := 0; i < cap; i++ {
		g, serr := sys.SpawnGroup(clk, func(core.Env) uint64 {
			arrived <- struct{}{}
			<-gate
			return 0
		})
		if serr != nil {
			close(gate)
			return fmt.Errorf("density: admission spawn %d: %w", i, serr)
		}
		held = append(held, g)
	}
	for i := 0; i < cap; i++ {
		<-arrived
	}
	for i := cap; i < attempts; i++ {
		if _, serr := sys.SpawnGroup(clk, getpidFn(0)); !errors.Is(serr, core.ErrAdmissionRejected) {
			close(gate)
			return fmt.Errorf("density: over-cap spawn %d: got %v, want ErrAdmissionRejected", i, serr)
		}
	}
	close(gate)
	for i, g := range held {
		if _, jerr := g.WaitExit(clk); jerr != nil {
			return fmt.Errorf("density: admission join %d: %w", i, jerr)
		}
	}
	b.AdmissionCap = cap
	b.AdmissionAttempts = attempts
	b.AdmissionRejected = sys.Metrics().Counter("density.admission.rejected").Value()
	return nil
}

// densityBudget pins the boundary budgets: a cycle-budgeted tenant gets
// EAGAIN once its forwarded latency is spent, a memory-budgeted tenant
// gets ENOMEM past its reservation cap.
func densityBudget(b *DensityBaseline) error {
	budget := &core.TenantBudget{Cycles: 60_000, MemBytes: 8192}
	sys, err := densitySystem(RunConfig{TenantBudget: budget})
	if err != nil {
		return err
	}
	clk := cycles.NewClock(0)

	var callsOK, callsEAGAIN int
	gA, err := sys.SpawnGroup(clk, func(env core.Env) uint64 {
		for i := 0; i < 10; i++ {
			switch res := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}); res.Err {
			case linuxabi.OK:
				callsOK++
			case linuxabi.EAGAIN:
				callsEAGAIN++
			default:
				return 1
			}
		}
		return 0
	})
	if err != nil {
		return err
	}
	if code, jerr := gA.WaitExit(clk); jerr != nil || code != 0 {
		return fmt.Errorf("density: budget cycle group: code %d err %v", code, jerr)
	}

	var mmapsOK, mmapsENOMEM int
	gB, err := sys.SpawnGroup(clk, func(env core.Env) uint64 {
		for i := 0; i < 3; i++ {
			res := env.Syscall(linuxabi.Call{
				Num:  linuxabi.SysMmap,
				Args: [6]uint64{0, 4096, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous},
			})
			switch res.Err {
			case linuxabi.OK:
				mmapsOK++
			case linuxabi.ENOMEM:
				mmapsENOMEM++
			default:
				return 1
			}
		}
		return 0
	})
	if err != nil {
		return err
	}
	if code, jerr := gB.WaitExit(clk); jerr != nil || code != 0 {
		return fmt.Errorf("density: budget mem group: code %d err %v", code, jerr)
	}

	b.BudgetCycles = uint64(budget.Cycles)
	b.BudgetMemBytes = budget.MemBytes
	b.BudgetCallsIssued = callsOK
	b.BudgetCallsRejected = callsEAGAIN
	b.BudgetMmapsIssued = mmapsOK
	b.BudgetMmapsRejected = mmapsENOMEM
	b.BudgetRejectedCounter = sys.Metrics().Counter("density.budget.rejected").Value()
	return nil
}

// CollectDensityBaseline runs the full suite and assembles the document.
// Beyond each unit's own checks it enforces the suite's acceptance
// criteria: at least 1000 groups live at once, warm spawn at least 10x
// cheaper than cold, dense p999 within 2x of the single group, and no
// group left in the registry after the joins.
func CollectDensityBaseline() (*DensityBaseline, error) {
	b := &DensityBaseline{
		Note:    regenerateNote("density") + "; all fields deterministic, byte-exact in CI",
		ClockHz: uint64(cycles.ClockHz),
	}
	for _, unit := range []struct {
		name string
		run  func(*DensityBaseline) error
	}{
		{"single", densitySingle},
		{"warm-cold", densityWarmCold},
		{"dense", densityDense},
		{"admission", densityAdmission},
		{"budget", densityBudget},
	} {
		if err := unit.run(b); err != nil {
			return nil, fmt.Errorf("bench: density unit %s: %w", unit.name, err)
		}
	}
	switch {
	case b.DensePeakLive < denseGroups:
		return nil, fmt.Errorf("bench: density peak live = %d, want >= %d", b.DensePeakLive, denseGroups)
	case b.WarmSpeedup < 10:
		return nil, fmt.Errorf("bench: density warm speedup = %.2fx, want >= 10x", b.WarmSpeedup)
	case b.DenseP999Ratio > 2:
		return nil, fmt.Errorf("bench: density p999 ratio vs single group = %.2fx, want <= 2x", b.DenseP999Ratio)
	case b.DenseGroupsLeaked != 0:
		return nil, fmt.Errorf("bench: density leaked %d groups after joins, want 0", b.DenseGroupsLeaked)
	}
	return b, nil
}

// FigureDensity renders the density suite as a table.
func FigureDensity() (*Table, error) {
	b, err := CollectDensityBaseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Density figure: 1k-tenant spawn cost, warm pool, and boundary latency",
		Header: []string{"Figure", "Value"},
	}
	t.AddRow("cold spawn (cycles, creator)", fmt.Sprintf("%d", b.ColdSpawnCycles))
	t.AddRow("warm spawn (cycles, creator)", fmt.Sprintf("%d", b.WarmSpawnCycles))
	t.AddRow("warm speedup", fmt.Sprintf("%.2fx", b.WarmSpeedup))
	t.AddRow("dense groups live at peak", fmt.Sprintf("%d", b.DensePeakLive))
	t.AddRow("dense spawn cycles/group", fmt.Sprintf("%d", b.DenseSpawnCyclesPerGroup))
	t.AddRow("dense fwd-syscall p50/p99/p999", fmt.Sprintf("%d / %d / %d",
		b.DenseP50Cycles, b.DenseP99Cycles, b.DenseP999Cycles))
	t.AddRow("dense p999 vs single group", fmt.Sprintf("%.2fx", b.DenseP999Ratio))
	t.AddRow("warm pool hits/misses", fmt.Sprintf("%d / %d", b.DenseWarmHits, b.DenseWarmMisses))
	t.AddRow("warm pool returns/drops", fmt.Sprintf("%d / %d", b.DenseWarmReturns, b.DenseWarmDrops))
	t.AddRow("admission rejections", fmt.Sprintf("%d of %d attempts (cap %d)",
		b.AdmissionRejected, b.AdmissionAttempts, b.AdmissionCap))
	t.AddRow("budget getpid issued/EAGAIN", fmt.Sprintf("%d / %d", b.BudgetCallsIssued, b.BudgetCallsRejected))
	t.AddRow("budget mmap issued/ENOMEM", fmt.Sprintf("%d / %d", b.BudgetMmapsIssued, b.BudgetMmapsRejected))
	t.AddNote("groups leaked after joins: %d; dense repeat match: %v",
		b.DenseGroupsLeaked, b.DenseRepeatMatch)
	return t, nil
}

// DensityWorkload drives a multi-tenant density load against an already
// built system on behalf of mvrun -groups: it spawns n execution groups
// from concurrent host spawners, holds them all live at once (so the
// density.groups.peak gauge reflects true density), each issuing a short
// forwarded-syscall burst, then releases and joins every group.
func DensityWorkload(sys *core.System, n int) error {
	if n <= 0 {
		return nil
	}
	spawners := denseSpawners
	if n < spawners {
		spawners = n
	}
	gate := make(chan struct{})
	arrived := make(chan struct{}, n)
	fn := func(env core.Env) uint64 {
		for i := 0; i < 4; i++ {
			if res := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}); !res.Ok() {
				return 1
			}
		}
		arrived <- struct{}{}
		<-gate
		return 0
	}

	errs := make([]error, spawners)
	groups := make([][]*core.ExecutionGroup, spawners)
	clocks := make([]*cycles.Clock, spawners)
	var wg sync.WaitGroup
	for si := 0; si < spawners; si++ {
		share := n / spawners
		if si < n%spawners {
			share++
		}
		clocks[si] = cycles.NewClock(0)
		wg.Add(1)
		go func(si, share int) {
			defer wg.Done()
			for k := 0; k < share; k++ {
				g, err := sys.SpawnGroup(clocks[si], fn)
				if err != nil {
					errs[si] = err
					return
				}
				groups[si] = append(groups[si], g)
			}
		}(si, share)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		close(gate)
		// Joining the groups that did spawn keeps the system clean even
		// on a partial failure (e.g. an admission rejection mid-load).
		for si := range groups {
			for _, g := range groups[si] {
				g.WaitExit(clocks[si])
			}
		}
		return err
	}
	for i := 0; i < n; i++ {
		<-arrived
	}
	close(gate)
	for si := range groups {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			for _, g := range groups[si] {
				if _, jerr := g.WaitExit(clocks[si]); jerr != nil {
					errs[si] = jerr
					return
				}
			}
		}(si)
	}
	wg.Wait()
	return errors.Join(errs...)
}
