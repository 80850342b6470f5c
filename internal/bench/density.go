package bench

import (
	"errors"
	"fmt"
	"reflect"
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
	// (the suite's 1k-tenant floor).
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

// Admission and budget unit shapes.
const (
	// admissionCap is the MaxGroups cap the admission unit holds live;
	// it attempts admissionAttempts spawns in all.
	admissionCap      = 8
	admissionAttempts = 10
	// budgetGetpids and budgetMmaps are the budget units' boundary
	// calls: forwarded getpids against the cycle budget and 4 KiB mmaps
	// against the memory budget.
	budgetGetpids = 10
	budgetMmaps   = 3
)

// densityTenantBudget is the per-tenant budget the budget unit's
// systems run under.
var densityTenantBudget = core.TenantBudget{Cycles: 60_000, MemBytes: 8192}

// densityMetrics is what the density suite pins of each run: the
// forwarded-syscall latency with the quantiles the figure prints, the
// warm pool's traffic, and the admission and budget rejections.
var densityMetrics = metricSet{
	counters: []string{
		"density.warm.hits", "density.warm.misses", "density.warm.returns", "density.warm.drops",
		"density.admission.rejected", "density.budget.rejected",
	},
	histograms: map[string][]string{"forward.syscall.latency": {"p50", "p99", "p999"}},
}

// densityRun reads a density unit's run off its system: cyc is the
// unit's creator clock, the clock every density figure is measured on.
// A unit that times a second phase on the same system pins that phase's
// clock alone, as a Run with no metrics.
func densityRun(config string, sys *core.System, cyc cycles.Cycles) Run {
	return densityMetrics.project("density", config, sys.Metrics(), cyc)
}

// densitySystem assembles a fresh hybrid system for one density unit.
func densitySystem(opts core.Options) (*core.System, error) {
	fs, err := provisionFS(nil)
	if err != nil {
		return nil, err
	}
	opts.FS, opts.AppName = fs, "density"
	return NewSystemForWorld(core.WorldHRT, opts)
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

// densitySingle is the single-group reference: the cold-spawn cost and
// the forwarded-syscall latency with the system to itself.
func densitySingle() ([]Run, error) {
	sys, err := densitySystem(core.Options{})
	if err != nil {
		return nil, err
	}
	// Spawn on a private creator clock: Main's clock is the registered
	// ROS-signal clock, which the group's own exit ratchets — measuring
	// on it would race the group's completion against the read below.
	creator := cycles.NewClock(0)
	g, err := sys.SpawnGroup(creator, getpidFn(densitySingleCalls))
	if err != nil {
		return nil, err
	}
	spawn := creator.Now()
	if code, jerr := g.Join(sys.Main); jerr != nil || code != 0 {
		return nil, fmt.Errorf("density: single join: code %d err %v", code, jerr)
	}
	return []Run{densityRun("single", sys, spawn)}, nil
}

// densityWarmCold times the creator-observed spawn cost of a cold boot
// ("cold") against a warm-pool reuse ("warm") on the same system.
func densityWarmCold() ([]Run, error) {
	sys, err := densitySystem(core.Options{WarmPool: 4})
	if err != nil {
		return nil, err
	}
	// A private creator clock, for the same reason as densitySingle:
	// only the spawn path itself may move it, so the deltas are exact.
	clk := cycles.NewClock(0)
	spawn := func() (cycles.Cycles, error) {
		start := clk.Now()
		g, err := sys.SpawnGroup(clk, getpidFn(0))
		if err != nil {
			return 0, err
		}
		took := clk.Now() - start
		_, err = g.Join(sys.Main)
		return took, err
	}
	cold, err := spawn()
	if err != nil {
		return nil, err
	}
	warm, err := spawn()
	if err != nil {
		return nil, err
	}
	if hits := sys.Metrics().FindCounter("density.warm.hits").Value(); hits != 1 {
		return nil, fmt.Errorf("density: warm-cold unit took %d warm hits, want 1", hits)
	}
	if warm == 0 {
		return nil, fmt.Errorf("density: warm spawn measured zero cycles")
	}
	return []Run{{Program: "density", Config: "cold", Cycles: uint64(cold)}, densityRun("warm", sys, warm)}, nil
}

// holdGroups is the dense choreography runDense and mvrun -groups share:
// spawn n groups from spawners concurrent host goroutines, each group
// forwarding calls getpids and then checking in at a gate, so once all n
// have arrived every group is live at once. held runs at that moment,
// before the gate opens; then each spawner joins its own groups on its
// own creator clock. It returns each spawner's clock time after its
// last spawn. A failed spawn releases and joins the groups that did
// spawn, which keeps the system clean on a partial failure (say, an
// admission rejection mid-load).
func holdGroups(sys *core.System, n, spawners, calls int, held func()) ([]uint64, error) {
	spawners = min(spawners, n)
	gate := make(chan struct{})
	arrived := make(chan struct{}, n)
	fn := func(env core.Env) uint64 {
		for i := 0; i < calls; i++ {
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
	spawnCyc := make([]uint64, spawners)
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
			spawnCyc[si] = uint64(clocks[si].Now())
		}(si, share)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		close(gate)
		for si := range groups {
			for _, g := range groups[si] {
				g.WaitExit(clocks[si])
			}
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		<-arrived
	}
	if held != nil {
		held()
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
	return spawnCyc, errors.Join(errs...)
}

// runDense executes one full dense phase: spawn denseGroups groups from
// denseSpawners concurrent host goroutines, hold them all live at once
// behind a gate, release and join everything, then spawn a warm second
// wave out of the pool. It returns the phase's run ("dense", on spawner
// 0's clock after its spawns) and the warm wave's clock ("dense-warm").
func runDense() ([]Run, error) {
	sys, err := densitySystem(core.Options{WarmPool: denseWarmPool})
	if err != nil {
		return nil, err
	}
	var peak uint64
	spawnCyc, err := holdGroups(sys, denseGroups, denseSpawners, denseCallsPerGroup, func() {
		peak = sys.Metrics().FindGauge("density.groups.peak").Value()
	})
	if err != nil {
		return nil, fmt.Errorf("density: dense wave: %w", err)
	}
	if peak != denseGroups {
		return nil, fmt.Errorf("density: %d groups live at peak, want %d", peak, denseGroups)
	}
	// The per-spawner spawn cost must agree across spawners — the spawn
	// path charges program structure, not host interleaving.
	for si := 1; si < denseSpawners; si++ {
		if spawnCyc[si] != spawnCyc[0] {
			return nil, fmt.Errorf("density: spawner %d spent %d cycles spawning, spawner 0 spent %d",
				si, spawnCyc[si], spawnCyc[0])
		}
	}

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
	warmSpawn := wclk.Now()
	for i, g := range wave {
		if code, jerr := g.WaitExit(wclk); jerr != nil || code != 0 {
			return nil, fmt.Errorf("density: warm wave join %d: code %d err %v", i, code, jerr)
		}
	}
	if n := sys.GroupTableSize(); n != 0 {
		return nil, fmt.Errorf("density: leaked %d groups after joins, want 0", n)
	}
	return []Run{
		densityRun("dense", sys, cycles.Cycles(spawnCyc[0])),
		{Program: "density", Config: "dense-warm", Cycles: uint64(warmSpawn)},
	}, nil
}

// densityDense runs the dense phase twice — the runs must agree exactly,
// or host interleaving leaked into the virtual plane.
func densityDense() ([]Run, error) {
	first, err := runDense()
	if err != nil {
		return nil, err
	}
	second, err := runDense()
	if err != nil {
		return nil, fmt.Errorf("density: repeat run: %w", err)
	}
	if !reflect.DeepEqual(first, second) {
		return nil, fmt.Errorf("density: dense runs diverged across runs: %+v vs %+v", first, second)
	}
	return first, nil
}

// densityAdmission pins the MaxGroups cap: with admissionCap live groups
// held at the gate, every further spawn fails with ErrAdmissionRejected.
func densityAdmission() ([]Run, error) {
	sys, err := densitySystem(core.Options{MaxGroups: admissionCap})
	if err != nil {
		return nil, err
	}
	gate := make(chan struct{})
	arrived := make(chan struct{}, admissionCap)
	held := make([]*core.ExecutionGroup, 0, admissionCap)
	clk := cycles.NewClock(0)
	for i := 0; i < admissionCap; i++ {
		g, serr := sys.SpawnGroup(clk, func(core.Env) uint64 {
			arrived <- struct{}{}
			<-gate
			return 0
		})
		if serr != nil {
			close(gate)
			return nil, fmt.Errorf("density: admission spawn %d: %w", i, serr)
		}
		held = append(held, g)
	}
	for i := 0; i < admissionCap; i++ {
		<-arrived
	}
	for i := admissionCap; i < admissionAttempts; i++ {
		if _, serr := sys.SpawnGroup(clk, getpidFn(0)); !errors.Is(serr, core.ErrAdmissionRejected) {
			close(gate)
			return nil, fmt.Errorf("density: over-cap spawn %d: got %v, want ErrAdmissionRejected", i, serr)
		}
	}
	close(gate)
	for i, g := range held {
		if _, jerr := g.WaitExit(clk); jerr != nil {
			return nil, fmt.Errorf("density: admission join %d: %w", i, jerr)
		}
	}
	return []Run{densityRun("admission", sys, clk.Now())}, nil
}

// densityBudgets pins the boundary budgets, one tenant per system under
// densityTenantBudget: a tenant forwarding getpids gets EAGAIN once its
// forwarded latency is spent ("budget-cycles"), and a tenant mapping
// 4 KiB pages gets ENOMEM past its reservation cap ("budget-mem"). Every
// call must succeed or fail with its budget's errno, so each run's
// density.budget.rejected counts its failed calls.
func densityBudgets() ([]Run, error) {
	var runs []Run
	for _, u := range []struct {
		config string
		call   linuxabi.Call
		n      int
		errno  linuxabi.Errno
	}{
		{"budget-cycles", linuxabi.Call{Num: linuxabi.SysGetpid}, budgetGetpids, linuxabi.EAGAIN},
		{"budget-mem", linuxabi.Call{
			Num:  linuxabi.SysMmap,
			Args: [6]uint64{0, 4096, linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous},
		}, budgetMmaps, linuxabi.ENOMEM},
	} {
		budget := densityTenantBudget
		sys, err := densitySystem(core.Options{TenantBudget: &budget})
		if err != nil {
			return nil, err
		}
		clk := cycles.NewClock(0)
		g, err := sys.SpawnGroup(clk, func(env core.Env) uint64 {
			for i := 0; i < u.n; i++ {
				if res := env.Syscall(u.call); res.Err != linuxabi.OK && res.Err != u.errno {
					return 1
				}
			}
			return 0
		})
		if err != nil {
			return nil, err
		}
		if code, jerr := g.WaitExit(clk); jerr != nil || code != 0 {
			return nil, fmt.Errorf("density: %s group: code %d err %v", u.config, code, jerr)
		}
		runs = append(runs, densityRun(u.config, sys, clk.Now()))
	}
	return runs, nil
}

// fwdQuantile is a density run's forwarded-syscall latency quantile q.
func (r *Run) fwdQuantile(q string) uint64 {
	return r.Histograms["forward.syscall.latency"].Quantiles[q]
}

// warmSpeedup is how many times cheaper the warm spawn is than the cold
// one.
func warmSpeedup(doc *Runs) float64 {
	return float64(doc.find("density", "cold").Cycles) / float64(doc.find("density", "warm").Cycles)
}

// p999Ratio is the dense phase's forwarded-syscall p999 over the single
// group's: the within-2x isolation criterion.
func p999Ratio(doc *Runs) float64 {
	return float64(doc.find("density", "dense").fwdQuantile("p999")) /
		float64(doc.find("density", "single").fwdQuantile("p999"))
}

// CollectDensityBaseline runs the full suite and assembles the document.
// Beyond each unit's own checks (all 1000 dense groups live at once, no
// group left in the registry after the joins, a repeat dense run that
// matches) it enforces the suite's acceptance criteria: warm spawn at
// least 10x cheaper than cold, and dense p999 within 2x of the single
// group.
func CollectDensityBaseline() (*Runs, error) {
	doc := &Runs{Note: regenerateNote("density")}
	for _, unit := range []struct {
		name string
		run  func() ([]Run, error)
	}{
		{"single", densitySingle},
		{"warm-cold", densityWarmCold},
		{"dense", densityDense},
		{"admission", densityAdmission},
		{"budget", densityBudgets},
	} {
		runs, err := unit.run()
		if err != nil {
			return nil, fmt.Errorf("bench: density unit %s: %w", unit.name, err)
		}
		doc.Runs = append(doc.Runs, runs...)
	}
	if s := warmSpeedup(doc); s < 10 {
		return nil, fmt.Errorf("bench: density warm speedup = %.2fx, want >= 10x", s)
	}
	if r := p999Ratio(doc); r > 2 {
		return nil, fmt.Errorf("bench: density p999 ratio vs single group = %.2fx, want <= 2x", r)
	}
	return doc, nil
}

// FigureDensity renders the density suite as a table.
func FigureDensity() (*Table, error) {
	doc, err := CollectDensityBaseline()
	if err != nil {
		return nil, err
	}
	run := func(config string) *Run { return doc.find("density", config) }
	dense, adm := run("dense"), run("admission")
	cyclesRej, memRej := run("budget-cycles").Counters["density.budget.rejected"], run("budget-mem").Counters["density.budget.rejected"]
	t := &Table{
		Title:  "Density figure: 1k-tenant spawn cost, warm pool, and boundary latency",
		Header: []string{"Figure", "Value"},
	}
	t.AddRow("cold spawn (cycles, creator)", fmt.Sprintf("%d", run("cold").Cycles))
	t.AddRow("warm spawn (cycles, creator)", fmt.Sprintf("%d", run("warm").Cycles))
	t.AddRow("warm speedup", fmt.Sprintf("%.2fx", warmSpeedup(doc)))
	t.AddRow("dense groups live at peak", fmt.Sprintf("%d", denseGroups))
	t.AddRow("dense spawn cycles/group", fmt.Sprintf("%d", dense.Cycles/(denseGroups/denseSpawners)))
	t.AddRow("dense fwd-syscall p50/p99/p999", fmt.Sprintf("%d / %d / %d",
		dense.fwdQuantile("p50"), dense.fwdQuantile("p99"), dense.fwdQuantile("p999")))
	t.AddRow("dense p999 vs single group", fmt.Sprintf("%.2fx", p999Ratio(doc)))
	t.AddRow("warm pool hits/misses", fmt.Sprintf("%d / %d",
		dense.Counters["density.warm.hits"], dense.Counters["density.warm.misses"]))
	t.AddRow("warm pool returns/drops", fmt.Sprintf("%d / %d",
		dense.Counters["density.warm.returns"], dense.Counters["density.warm.drops"]))
	t.AddRow("admission rejections", fmt.Sprintf("%d of %d attempts (cap %d)",
		adm.Counters["density.admission.rejected"], admissionAttempts, admissionCap))
	t.AddRow("budget getpid issued/EAGAIN", fmt.Sprintf("%d / %d", budgetGetpids-cyclesRej, cyclesRej))
	t.AddRow("budget mmap issued/ENOMEM", fmt.Sprintf("%d / %d", budgetMmaps-memRej, memRej))
	t.AddNote("groups leaked after joins: 0; dense repeat match: true")
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
	_, err := holdGroups(sys, n, denseSpawners, 4, nil)
	return err
}
