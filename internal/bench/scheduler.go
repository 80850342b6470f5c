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

// schedMetrics is what the scheduler suite pins of each run: legion's
// sync ops and solve latency (its sum is the solve's cycles), the
// scheduler's steals, placements, idle halts and queue delay (its sum is
// the summed delay), and the places spawned.
var schedMetrics = metricSet{
	counters: []string{"legion.sync_ops", "sched.steal", "sched.place", "sched.idle.halt", "places.spawned"},
	histograms: map[string][]string{
		"legion.solve.latency": nil,
		"sched.queue.delay":    nil,
	},
}

// schedOptions turns the scheduler on over the first cores HRT cores.
func schedOptions(cores int) core.Options {
	return core.Options{Scheduler: true, HRTCores: core.HRTCoreRange(cores)}
}

// coresConfig is the scheduler suite's config name for a run on cores
// HRT cores.
func coresConfig(cores int) string { return fmt.Sprintf("hrtcores=%d", cores) }

// HPCGWorkloadTable runs one HPCG solve in the HRT world under opts with
// the given legion worker count, and renders the result — the manual
// experiment `mvrun -bench hpcg -scheduler -hrtcores N -workers M` drives.
// The title reads the booted system's options, so it names the HRT cores
// the run had even when opts left them to the default.
func HPCGWorkloadTable(opts core.Options, workers int) (*Table, error) {
	sys, _, err := runHPCG(core.WorldHRT, opts, workers, schedHPCGN, schedHPCGIters)
	if err != nil {
		return nil, err
	}
	r := schedMetrics.project("hpcg", "", sys.Metrics(), sys.Main.Clock.Now())
	t := &Table{
		Title: fmt.Sprintf("HPCG n=%d iters=%d workers=%d hrtcores=%d scheduler=%v",
			schedHPCGN, schedHPCGIters, workers, len(sys.Opts.HRTCores), sys.Opts.Scheduler),
		Header: []string{"End cycles", "Solve cycles", "Sync ops", "Steals", "Placements", "Halts", "Queue delay"},
	}
	t.AddRow(
		fmt.Sprintf("%d", r.Cycles),
		fmt.Sprintf("%d", r.solveCycles()),
		fmt.Sprintf("%d", r.Counters["legion.sync_ops"]),
		fmt.Sprintf("%d", r.Counters["sched.steal"]),
		fmt.Sprintf("%d", r.Counters["sched.place"]),
		fmt.Sprintf("%d", r.Counters["sched.idle.halt"]),
		fmt.Sprintf("%d", r.Histograms["sched.queue.delay"].Sum),
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

// runSchedulerPlaces boots a hybrid system with the scheduler on cores
// HRT cores and runs the places fan-out of schedPlaceCount places,
// failing unless their sum is right.
func runSchedulerPlaces(cores int) (*core.System, error) {
	sys, err := runMain(core.WorldHRT, "places-sched", schedOptions(cores), func(env core.Env) error {
		eng, err := places.NewEngine(env)
		if err != nil {
			return err
		}
		v, err := eng.RunString(placesSource(schedPlaceCount))
		if err != nil {
			return err
		}
		eng.Shutdown()
		if got, want := scheme.WriteString(v), fmt.Sprint(schedPlaceCount*40000); got != want {
			return fmt.Errorf("places result %s, want %s", got, want)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: scheduler places on %d cores: %w", cores, err)
	}
	return sys, nil
}

// runImbalancedSteal runs the ramp workload on schedRampCores cores —
// per-index cost grows with the index, so the contiguous chunk deal is
// lopsided and finishing workers must steal from the heavy end.
func runImbalancedSteal() (*core.System, error) {
	sys, err := runMain(core.WorldHRT, "ramp-sched", schedOptions(schedRampCores), func(env core.Env) error {
		rt, err := legion.New(env, schedWorkers)
		if err != nil {
			return err
		}
		defer rt.Shutdown()
		for round := 0; round < schedRampRounds; round++ {
			rt.IndexLaunch(schedRampN, func(e core.Env, i int) {
				e.Compute(cycles.Cycles(20 + i/4))
			})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: imbalanced steal run: %w", err)
	}
	return sys, nil
}

// CollectSchedulerBaseline runs the scheduler scaling suite: at each
// point of the HRT core ladder an HPCG solve ("hpcg") and the places
// fan-out ("places"), then the imbalanced ramp ("ramp"), each read on
// its main thread's clock. It fails unless checkScaling holds.
func CollectSchedulerBaseline() (*Runs, error) {
	doc := &Runs{Note: regenerateNote("scheduler")}
	add := func(program string, cores int, sys *core.System) {
		doc.Runs = append(doc.Runs, schedMetrics.project(program, coresConfig(cores), sys.Metrics(), sys.Main.Clock.Now()))
	}
	for _, cores := range schedCoreLadder {
		sys, _, err := runHPCG(core.WorldHRT, schedOptions(cores), schedWorkers, schedHPCGN, schedHPCGIters)
		if err != nil {
			return nil, err
		}
		add("hpcg", cores, sys)
		if sys, err = runSchedulerPlaces(cores); err != nil {
			return nil, err
		}
		add("places", cores, sys)
	}
	sys, err := runImbalancedSteal()
	if err != nil {
		return nil, err
	}
	add("ramp", schedRampCores, sys)
	if err := checkScaling(doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// checkScaling holds the scheduler suite's acceptance invariants: with 4
// HRT cores the HPCG run beats the 1-core run by at least 2.5x, HPCG
// and places scale monotonically over the core ladder, every point places
// threads and spawns every place, and the imbalanced ramp steals.
func checkScaling(doc *Runs) error {
	var prevCores int
	var prevHPCG, prevPlaces *Run
	for _, cores := range schedCoreLadder {
		h, p := doc.find("hpcg", coresConfig(cores)), doc.find("places", coresConfig(cores))
		if h == nil || p == nil {
			return fmt.Errorf("bench: scheduler ladder point %s missing", coresConfig(cores))
		}
		if prevHPCG != nil && h.Cycles >= prevHPCG.Cycles {
			return fmt.Errorf("bench: HPCG scaling not monotone: %d cores %d cycles >= %d cores %d cycles",
				cores, h.Cycles, prevCores, prevHPCG.Cycles)
		}
		if prevPlaces != nil && p.Cycles >= prevPlaces.Cycles {
			return fmt.Errorf("bench: places scaling not monotone: %d cores %d cycles >= %d cores %d cycles",
				cores, p.Cycles, prevCores, prevPlaces.Cycles)
		}
		if h.Counters["sched.place"] == 0 {
			return fmt.Errorf("bench: %d cores: no sched.place placements recorded", cores)
		}
		if n := p.Counters["places.spawned"]; n != schedPlaceCount {
			return fmt.Errorf("bench: %d cores: %d places spawned, want %d", cores, n, schedPlaceCount)
		}
		prevCores, prevHPCG, prevPlaces = cores, h, p
	}
	one, four := doc.find("hpcg", coresConfig(1)), doc.find("hpcg", coresConfig(4))
	if speedup := float64(one.Cycles) / float64(four.Cycles); speedup < 2.5 {
		return fmt.Errorf("bench: HPCG 4-core speedup %.3fx < 2.5x (1 core: %d, 4 cores: %d)",
			speedup, one.Cycles, four.Cycles)
	}
	if ramp := doc.find("ramp", coresConfig(schedRampCores)); ramp == nil || ramp.Counters["sched.steal"] == 0 {
		return fmt.Errorf("bench: imbalanced ramp workload recorded no steals")
	}
	return nil
}

// FigureScheduler regenerates the scheduler scaling figure: HPCG and the
// places fan-out over 1/2/4/8 HRT cores with the work-stealing scheduler
// on, plus the imbalanced-workload steal sample.
func FigureScheduler() (*Table, error) {
	doc, err := CollectSchedulerBaseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf(
			"Scheduler figure: HPCG n=%d iters=%d workers=%d and %d places, per-core run queues + work stealing",
			schedHPCGN, schedHPCGIters, schedWorkers, schedPlaceCount),
		Header: []string{
			"HRT cores", "HPCG cycles", "Speedup", "Steals", "Halts",
			"Queue delay", "Places cycles", "Speedup",
		},
	}
	baseHPCG, basePlaces := doc.find("hpcg", coresConfig(1)), doc.find("places", coresConfig(1))
	for _, cores := range schedCoreLadder {
		h, p := doc.find("hpcg", coresConfig(cores)), doc.find("places", coresConfig(cores))
		t.AddRow(
			fmt.Sprintf("%d", cores),
			fmt.Sprintf("%d", h.Cycles),
			fmt.Sprintf("%.3fx", float64(baseHPCG.Cycles)/float64(h.Cycles)),
			fmt.Sprintf("%d", h.Counters["sched.steal"]),
			fmt.Sprintf("%d", h.Counters["sched.idle.halt"]),
			fmt.Sprintf("%d", h.Histograms["sched.queue.delay"].Sum),
			fmt.Sprintf("%d", p.Cycles),
			fmt.Sprintf("%.3fx", float64(basePlaces.Cycles)/float64(p.Cycles)),
		)
	}
	ramp := doc.find("ramp", coresConfig(schedRampCores))
	t.AddNote("imbalanced ramp (%d indices, cost ~ index, %d cores): %d cycles, %d steals",
		schedRampN, schedRampCores, ramp.Cycles, ramp.Counters["sched.steal"])
	t.AddNote("threads placed: %d; idle cores halt after spinning %d cycles and wake by IPI kick",
		doc.find("hpcg", coresConfig(schedCoreLadder[len(schedCoreLadder)-1])).Counters["sched.place"], 20000)
	return t, nil
}
