package bench

import (
	"fmt"
	"strings"

	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/legion"
	"multiverse/internal/places"
	"multiverse/internal/scheme"
)

// Scheduler-suite workload shape. The HPCG problem is sized so per-launch
// compute dwarfs the scheduler's own enqueue/steal/kick costs, and the core
// ladder sweeps the HRT partition from the single boot core up to eight.
const (
	schedHPCGN      = 8192
	schedHPCGIters  = 30
	schedWorkers    = 8
	schedPlaceCount = 8
	schedRampN      = 4096
	schedRampRounds = 4
	schedRampCores  = 4
)

// schedCoreLadder is the HRT-partition sizes of the scaling curve.
var schedCoreLadder = []int{1, 2, 4, 8}

// SchedulerPoint is one HRT-core-count sample of the scaling curve: the
// legion HPCG solve and the places fan-out, both with the scheduler on,
// plus the scheduler's own activity counters.
type SchedulerPoint struct {
	HRTCores int `json:"hrt_cores"`

	// HPCG: end-to-end virtual cycles of the whole run (boot + solve),
	// solve-only cycles, and the runtime's sync-op count.
	HPCGCycles      uint64 `json:"hpcg_cycles"`
	HPCGSolveCycles uint64 `json:"hpcg_solve_cycles"`
	HPCGSyncOps     uint64 `json:"hpcg_sync_ops"`

	// Scheduler activity during the HPCG run.
	Steals     uint64 `json:"steals"`
	Placements uint64 `json:"placements"`
	IdleHalts  uint64 `json:"idle_halts"`
	QueueDelay uint64 `json:"queue_delay_cycles"`

	// Places: end-to-end virtual cycles of a run spawning schedPlaceCount
	// places, and how many actually spawned.
	PlacesCycles  uint64 `json:"places_cycles"`
	PlacesSpawned uint64 `json:"places_spawned"`
}

// SchedulerBaseline is the BENCH_pr4.json document: the deterministic
// scheduler scaling curve plus the imbalanced-workload steal sample the
// regression tests pin.
type SchedulerBaseline struct {
	// Note documents how to regenerate the file.
	Note    string `json:"note"`
	Workers int    `json:"workers"`
	N       int    `json:"hpcg_n"`
	Iters   int    `json:"hpcg_iters"`
	Places  int    `json:"places"`

	Points []SchedulerPoint `json:"points"`

	// Imbalanced ramp workload on schedRampCores cores: per-index cost
	// grows linearly, so the statically dealt chunk runs finish at very
	// different times and idle workers must steal.
	ImbalancedCycles uint64 `json:"imbalanced_cycles"`
	ImbalancedSteals uint64 `json:"imbalanced_steals"`
}

// schedHPCGRun is one scheduler-on HPCG solve on a given HRT core count.
type schedHPCGRun struct {
	End    cycles.Cycles // end-to-end (main-thread) virtual time
	Result *legion.HPCGResult
	Steals int

	Placements uint64
	IdleHalts  uint64
	QueueDelay cycles.Cycles

	// Sched snapshots every "sched.*" counter, for determinism checks.
	Sched map[string]uint64
}

// runSchedulerHPCG boots a hybrid system with the scheduler enabled and
// cores HRT cores, runs the CG solve with schedWorkers scheduler-placed
// workers, and verifies the solution.
func runSchedulerHPCG(cores int) (*schedHPCGRun, error) {
	return runHPCGWorkload(true, cores, schedWorkers)
}

// runHPCGWorkload is the parameterized HPCG run behind both the scaling
// suite and mvrun's manual-experiment surface: scheduler knob, HRT
// partition size, and legion worker count are all free.
func runHPCGWorkload(scheduler bool, cores, workers int) (*schedHPCGRun, error) {
	fs, err := provisionFS(nil)
	if err != nil {
		return nil, err
	}
	sys, err := NewSystemForWorldCfg(core.WorldHRT, fs, "hpcg-sched", RunConfig{
		Scheduler: scheduler, HRTCoreCount: cores,
	})
	if err != nil {
		return nil, err
	}
	out := &schedHPCGRun{}
	var runErr error
	_, err = sys.RunMain(func(env core.Env) uint64 {
		rt, rerr := legion.New(env, workers)
		if rerr != nil {
			runErr = rerr
			return 1
		}
		defer rt.Shutdown()
		res, rerr := legion.RunHPCG(rt, env, schedHPCGN, schedHPCGIters)
		if rerr != nil {
			runErr = rerr
			return 1
		}
		out.Result = res
		out.Steals = rt.Steals
		return 0
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, fmt.Errorf("bench: scheduler HPCG on %d cores: %w", cores, runErr)
	}
	if err := legion.VerifySolution(out.Result.X, 1e-6); err != nil {
		return nil, fmt.Errorf("bench: scheduler HPCG on %d cores: %w", cores, err)
	}
	m := sys.Metrics()
	out.End = sys.Main.Clock.Now()
	out.Placements = m.Counter("sched.place").Value()
	out.IdleHalts = m.Counter("sched.idle.halt").Value()
	out.QueueDelay = m.LatencyHistogram("sched.queue.delay").Sum()
	out.Sched = make(map[string]uint64)
	m.EachCounter(func(name string, v uint64) {
		if strings.HasPrefix(name, "sched.") {
			out.Sched[name] = v
		}
	})
	return out, nil
}

// HPCGWorkloadTable runs one HPCG solve in the HRT world with the given
// scheduler knob, HRT partition size, and legion worker count, and renders
// the result — the manual experiment `mvrun -bench hpcg -scheduler
// -hrtcores N -workers M` drives.
func HPCGWorkloadTable(scheduler bool, cores, workers int) (*Table, error) {
	run, err := runHPCGWorkload(scheduler, cores, workers)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("HPCG n=%d iters=%d workers=%d hrtcores=%d scheduler=%v",
			schedHPCGN, schedHPCGIters, workers, cores, scheduler),
		Header: []string{"End cycles", "Solve cycles", "Sync ops", "Steals", "Placements", "Halts", "Queue delay"},
	}
	t.AddRow(
		fmt.Sprintf("%d", uint64(run.End)),
		fmt.Sprintf("%d", uint64(run.Result.Cycles)),
		fmt.Sprintf("%d", run.Result.SyncOps),
		fmt.Sprintf("%d", run.Steals),
		fmt.Sprintf("%d", run.Placements),
		fmt.Sprintf("%d", run.IdleHalts),
		fmt.Sprintf("%d", uint64(run.QueueDelay)),
	)
	return t, nil
}

// placesSource builds the places scaling workload: spawn nplaces identical
// compute-bound places, then wait for and sum all of them.
func placesSource(nplaces int) string {
	child := `(define (burn n a) (if (= n 0) a (burn (- n 1) (+ a 1)))) (burn 40000 0)`
	var b strings.Builder
	b.WriteString("(begin\n")
	for i := 0; i < nplaces; i++ {
		fmt.Fprintf(&b, "  (define p%d (place-spawn %q))\n", i, child)
	}
	b.WriteString("  (+")
	for i := 0; i < nplaces; i++ {
		fmt.Fprintf(&b, " (place-wait p%d)", i)
	}
	b.WriteString("))\n")
	return b.String()
}

// runSchedulerPlaces boots a hybrid system with the scheduler enabled and
// runs the places fan-out, returning end-to-end virtual cycles and the
// places-spawned count.
func runSchedulerPlaces(cores, nplaces int) (cycles.Cycles, uint64, error) {
	fs, err := provisionFS(nil)
	if err != nil {
		return 0, 0, err
	}
	sys, err := NewSystemForWorldCfg(core.WorldHRT, fs, "places-sched", RunConfig{
		Scheduler: true, HRTCoreCount: cores,
	})
	if err != nil {
		return 0, 0, err
	}
	var runErr error
	_, err = sys.RunMain(func(env core.Env) uint64 {
		eng, eerr := places.NewEngine(env)
		if eerr != nil {
			runErr = eerr
			return 1
		}
		want := fmt.Sprintf("%d", nplaces*40000)
		v, eerr := eng.RunString(placesSource(nplaces))
		if eerr != nil {
			runErr = eerr
			return 1
		}
		eng.Shutdown()
		if got := scheme.WriteString(v); got != want {
			runErr = fmt.Errorf("places result %s, want %s", got, want)
			return 1
		}
		return 0
	})
	if err != nil {
		return 0, 0, err
	}
	if runErr != nil {
		return 0, 0, fmt.Errorf("bench: scheduler places on %d cores: %w", cores, runErr)
	}
	return sys.Main.Clock.Now(), sys.Metrics().Counter("places.spawned").Value(), nil
}

// runImbalancedSteal runs the ramp workload — per-index cost grows with the
// index, so the contiguous chunk deal is lopsided and finishing workers
// must steal from the heavy end. Returns end-to-end cycles and steals.
func runImbalancedSteal() (cycles.Cycles, int, error) {
	fs, err := provisionFS(nil)
	if err != nil {
		return 0, 0, err
	}
	sys, err := NewSystemForWorldCfg(core.WorldHRT, fs, "ramp-sched", RunConfig{
		Scheduler: true, HRTCoreCount: schedRampCores,
	})
	if err != nil {
		return 0, 0, err
	}
	var steals int
	var runErr error
	_, err = sys.RunMain(func(env core.Env) uint64 {
		rt, rerr := legion.New(env, schedWorkers)
		if rerr != nil {
			runErr = rerr
			return 1
		}
		defer rt.Shutdown()
		for round := 0; round < schedRampRounds; round++ {
			rt.IndexLaunch(schedRampN, func(e core.Env, i int) {
				e.Compute(cycles.Cycles(20 + i/4))
			})
		}
		steals = rt.Steals
		return 0
	})
	if err != nil {
		return 0, 0, err
	}
	if runErr != nil {
		return 0, 0, fmt.Errorf("bench: imbalanced steal run: %w", runErr)
	}
	return sys.Main.Clock.Now(), steals, nil
}

// CollectSchedulerBaseline runs the scheduler scaling suite (HPCG + places
// over the HRT core ladder, plus the imbalanced steal sample) and returns
// the baseline document.
func CollectSchedulerBaseline() (*SchedulerBaseline, error) {
	b := &SchedulerBaseline{
		Note:    regenerateNote("scheduler"),
		Workers: schedWorkers,
		N:       schedHPCGN,
		Iters:   schedHPCGIters,
		Places:  schedPlaceCount,
	}
	for _, cores := range schedCoreLadder {
		run, err := runSchedulerHPCG(cores)
		if err != nil {
			return nil, err
		}
		pc, spawned, err := runSchedulerPlaces(cores, schedPlaceCount)
		if err != nil {
			return nil, err
		}
		b.Points = append(b.Points, SchedulerPoint{
			HRTCores:        cores,
			HPCGCycles:      uint64(run.End),
			HPCGSolveCycles: uint64(run.Result.Cycles),
			HPCGSyncOps:     uint64(run.Result.SyncOps),
			Steals:          uint64(run.Steals),
			Placements:      run.Placements,
			IdleHalts:       run.IdleHalts,
			QueueDelay:      uint64(run.QueueDelay),
			PlacesCycles:    uint64(pc),
			PlacesSpawned:   spawned,
		})
	}
	ic, is, err := runImbalancedSteal()
	if err != nil {
		return nil, err
	}
	b.ImbalancedCycles = uint64(ic)
	b.ImbalancedSteals = uint64(is)
	if err := b.checkScaling(); err != nil {
		return nil, err
	}
	return b, nil
}

// checkScaling holds the scheduler suite's acceptance invariants: with 4
// HRT cores the HPCG solve beats the 1-core run by at least 2.5x, HPCG
// and places scale monotonically over the core ladder, every point places
// threads and spawns every place, and the imbalanced ramp steals.
func (b *SchedulerBaseline) checkScaling() error {
	byCores := make(map[int]SchedulerPoint, len(b.Points))
	for _, p := range b.Points {
		byCores[p.HRTCores] = p
	}
	one, four := byCores[1], byCores[4]
	if one.HPCGCycles == 0 || four.HPCGCycles == 0 {
		return fmt.Errorf("bench: scheduler ladder points missing: %+v", b.Points)
	}
	if speedup := float64(one.HPCGCycles) / float64(four.HPCGCycles); speedup < 2.5 {
		return fmt.Errorf("bench: HPCG 4-core speedup %.3fx < 2.5x (1 core: %d, 4 cores: %d)",
			speedup, one.HPCGCycles, four.HPCGCycles)
	}
	for i, p := range b.Points {
		if i > 0 && p.HPCGCycles >= b.Points[i-1].HPCGCycles {
			return fmt.Errorf("bench: HPCG scaling not monotone: %d cores %d cycles >= %d cores %d cycles",
				p.HRTCores, p.HPCGCycles, b.Points[i-1].HRTCores, b.Points[i-1].HPCGCycles)
		}
		if i > 0 && p.PlacesCycles >= b.Points[i-1].PlacesCycles {
			return fmt.Errorf("bench: places scaling not monotone: %d cores %d cycles >= %d cores %d cycles",
				p.HRTCores, p.PlacesCycles, b.Points[i-1].HRTCores, b.Points[i-1].PlacesCycles)
		}
		if p.Placements == 0 {
			return fmt.Errorf("bench: %d cores: no sched.place placements recorded", p.HRTCores)
		}
		if p.PlacesSpawned != uint64(b.Places) {
			return fmt.Errorf("bench: %d cores: %d places spawned, want %d", p.HRTCores, p.PlacesSpawned, b.Places)
		}
	}
	if b.ImbalancedSteals == 0 {
		return fmt.Errorf("bench: imbalanced ramp workload recorded no steals")
	}
	return nil
}

// FigureScheduler regenerates the scheduler scaling figure: HPCG and the
// places fan-out over 1/2/4/8 HRT cores with the work-stealing scheduler
// on, plus the imbalanced-workload steal sample.
func FigureScheduler() (*Table, error) {
	b, err := CollectSchedulerBaseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf(
			"Scheduler figure: HPCG n=%d iters=%d workers=%d and %d places, per-core run queues + work stealing",
			b.N, b.Iters, b.Workers, b.Places),
		Header: []string{
			"HRT cores", "HPCG cycles", "Speedup", "Steals", "Halts",
			"Queue delay", "Places cycles", "Speedup",
		},
	}
	base := b.Points[0]
	for _, p := range b.Points {
		t.AddRow(
			fmt.Sprintf("%d", p.HRTCores),
			fmt.Sprintf("%d", p.HPCGCycles),
			fmt.Sprintf("%.3fx", float64(base.HPCGCycles)/float64(p.HPCGCycles)),
			fmt.Sprintf("%d", p.Steals),
			fmt.Sprintf("%d", p.IdleHalts),
			fmt.Sprintf("%d", p.QueueDelay),
			fmt.Sprintf("%d", p.PlacesCycles),
			fmt.Sprintf("%.3fx", float64(base.PlacesCycles)/float64(p.PlacesCycles)),
		)
	}
	t.AddNote("imbalanced ramp (%d indices, cost ~ index, %d cores): %d cycles, %d steals",
		schedRampN, schedRampCores, b.ImbalancedCycles, b.ImbalancedSteals)
	t.AddNote("threads placed: %d; idle cores halt after spinning %d cycles and wake by IPI kick",
		b.Points[len(b.Points)-1].Placements, 20000)
	return t, nil
}
