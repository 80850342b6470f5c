// Command hostbench is the repository's end-to-end benchmark. It drives
// the simulator's public surfaces from outside — scheme engines on
// core.Systems, the legion HPCG solve, and core.Grid spawn, migration and
// join — for --seconds and prints one JSON result line.
//
// An untraced run (--trace 0) reports end-to-end metrics: simulator
// metrics in host time and modelled-design metrics in virtual cycles,
// which are deterministic. A traced run (--trace 1) measures an untraced
// half and a traced half and reports per-layer metrics: host time per
// layer from spans, and the layer counters of System.Metrics().
//
//	go run . --workload paper --seed 1 --seconds 20 --trace 0
//
// See NOTES.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// selfTimeTolerance bounds the share of a load generator's wall time
	// that the traced run may leave outside every layer span.
	selfTimeTolerance = 0.05
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workload is one closed loop.
type workload interface {
	setup() error
	phase(d time.Duration, rec *recorder) *phaseStats
	mvOverhead() float64
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "paper":
		return newProgWorkload(paperProfile, false, seed), nil
	case "fast":
		return newProgWorkload(fastProfile, true, seed), nil
	case "tenants":
		return newTenantWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, fast or tenants)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "paper, fast or tenants")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 10, "measured seconds")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spansPath := fl.String("spans", "", "traced run's span file (default .bench_build/hostbench/<workload>-spans.tsv.gz)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 2
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			fmt.Fprintln(stderr, "hostbench: setup:", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	d := time.Duration(*seconds * float64(time.Second))

	res := result{Metrics: make(map[string]metric)}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	if *trace == 0 {
		ps := w.phase(d, nil)
		res.Attempted, res.Failed = ps.ops, ps.failed
		endToEnd(put, w, ps, median(setups))
	} else {
		base := w.phase(d/2, nil)
		runtime.GC()
		rec := newRecorder()
		traced := w.phase(d/2, rec)
		p := rec.derive()
		// The self-time accounting check is one more attempted operation.
		res.Attempted, res.Failed = base.ops+traced.ops+1, base.failed+traced.failed
		if u := p.unattributed(); u > selfTimeTolerance {
			res.Failed++
			fmt.Fprintf(stderr, "hostbench: mismatch: layer self times cover %.1f%% of load wall time, want >= %.0f%%\n",
				100*(1-u), 100*(1-selfTimeTolerance))
		}
		perLayer(put, base, traced, p, float64(len(rec.spans)))
		put("error_rate", "ratio", ratio(float64(res.Failed), float64(res.Attempted)))
		path := *spansPath
		if path == "" {
			path = ".bench_build/hostbench/" + *name + "-spans.tsv.gz"
		}
		if err := rec.writeSpans(path); err != nil {
			fmt.Fprintln(stderr, "hostbench: writing spans:", err)
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stderr, "hostbench: %s seed %d: %d ops, %d failed\n", *name, *seed, res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// endToEnd adds the metrics a user of the system sees.
// Host-time figures are medians over the phase's rounds, so a burst of
// host noise moves a few rounds rather than the figure.
func endToEnd(put func(string, string, float64), w workload, ps *phaseStats, setup float64) {
	put("setup_s", "s", setup)
	put("sim_mcycles_per_s", "Mcycles/s", ps.throughput()/1e6)
	put("mv_overhead", "ratio", w.mvOverhead())
	put("fwd_cycles_per_call", "cycles", ratio(float64(ps.ctr.fwdCycles), float64(ps.ctr.fwdCalls)))
	put("ops_per_s", "1/s", ps.roundMedian(func(r round) float64 { return float64(r.ops) / r.wall }))
	put("op_ms_p50", "ms", ps.roundMedian(func(r round) float64 { return quantile(r.lat, 0.50) }))
	put("op_ms_p99", "ms", ps.roundMedian(func(r round) float64 { return quantile(r.lat, 0.99) }))
	put("max_rss_mb", "MB", maxRSSMB())
}

// perLayer adds the per-layer metrics: host time from the traced phase's
// spans, counters and host runtime figures from the untraced phase.
func perLayer(put func(string, string, float64), base, traced *phaseStats, p *profile, spans float64) {
	n := func(s spanName) *spanAgg { return &p.byName[s] }
	envOps := float64(n(spSchemeRun).count + n(spTenant).count)
	opWall := float64(p.opWall[0] + p.opWall[1])

	put("scheme.engine_boot_ms", "ms", ms(n(spEngineBoot).meanDur()))
	put("scheme.self_ms_per_run", "ms", ms(ratio(float64(n(spSchemeRun).self), float64(n(spSchemeRun).count))))
	put("scheme.self_share", "ratio", ratio(float64(n(spSchemeRun).self), opWall))

	put("core.boot_ms", "ms", ms(n(spBoot).meanDur()))
	put("core.spawn_us_p50", "us", us(quantile(n(spSpawn).durs, 0.50)))
	put("core.spawn_us_p99", "us", us(quantile(n(spSpawn).durs, 0.99)))
	put("core.join_us_p50", "us", us(quantile(n(spJoin).durs, 0.50)))
	put("core.migrate_ms_p50", "ms", ms(quantile(n(spMigrate).durs, 0.50)))

	var ctr counters
	ctr.add(base.ctr)
	ctr.add(traced.ctr)
	hyb := float64(base.hybridOps + traced.hybridOps)
	perOp := func(v uint64) float64 { return ratio(float64(v), hyb) }
	put("core.warm_hit_ratio", "ratio", ratio(float64(ctr.warmHits), float64(ctr.spawned)))

	for hy, world := range []string{"native", "hybrid"} {
		put("env.syscall_us."+world, "us", us(p.byWorld[hy][spEnvSyscall].meanDur()))
		put("env.touch_us."+world, "us", us(p.byWorld[hy][spEnvTouch].meanDur()))
	}
	put("env.syscalls_per_run", "count/op", ratio(float64(n(spEnvSyscall).count), envOps))
	put("env.touches_per_run", "count/op", ratio(float64(n(spEnvTouch).count), envOps))
	put("env.compute_ns", "ns", n(spEnvCompute).meanDur())
	put("env.timer_ns", "ns", n(spEnvTimer).meanDur())
	put("env.share", "ratio", ratio(float64(p.envSelf[0]+p.envSelf[1]), opWall))

	put("hvm.fwd_syscalls_per_run", "count/op", perOp(ctr.fwdSyscalls))
	put("hvm.fwd_faults_per_run", "count/op", perOp(ctr.fwdFaults))
	put("hvm.router_local_hits", "count/op", perOp(ctr.localHits))
	put("hvm.router_cache_hit_ratio", "ratio", ratio(float64(ctr.cacheHits), float64(ctr.cacheHits+ctr.cacheMisses)))
	put("hvm.router_invalidations", "count/op", perOp(ctr.invalidations))
	put("hvm.ring_calls", "count/op", perOp(ctr.ringCalls))
	put("hvm.exits", "count/op", perOp(ctr.exits))

	put("paging.pml4_entries_copied", "count/op", perOp(ctr.pml4Copied))
	put("paging.merger_delta_entries", "count/op", perOp(ctr.deltaEntries))
	put("paging.shootdowns", "count/op", perOp(ctr.shootdowns))

	solves := float64(base.solves + traced.solves)
	put("legion.solve_ms", "ms", ms(n(spSolve).meanDur()))
	put("legion.steals", "count/solve", ratio(float64(base.steals+traced.steals), solves))
	put("legion.placements", "count/solve", ratio(float64(base.placements+traced.placements), solves))

	put("host.alloc_mb_per_op", "MB/op", ratio(float64(base.allocBytes)/1e6, float64(base.ops)))
	put("host.gc_cpu_frac", "ratio", ratio(base.gcCPU, base.cpu))

	put("trace.overhead", "ratio", ratio(traced.throughput(), base.throughput()))
	put("trace.unattributed_share", "ratio", p.unattributed())
	put("trace.spans", "count", spans)
}

// phaseStats accumulates one measured phase, cut into rounds: one pass of
// paper/fast or one grid generation of tenants.
type phaseStats struct {
	ops       int
	failed    int
	lat       []float64 // per-op host latency, ms
	cycles    uint64    // virtual cycles of completed ops
	hybridOps int
	ctr       counters // layer counters of the hybrid ops

	rounds []round
	mark   round // totals at the last cut, wall as a time in s since start
	start  time.Time

	solves, steals, placements int

	host0      hostSample
	allocBytes uint64
	gcCPU, cpu float64
}

// round is one round's share of a phase.
type round struct {
	wall   float64 // s
	ops    int
	cycles uint64
	lat    []float64
}

func newPhaseStats() *phaseStats { return &phaseStats{host0: readHost(), start: time.Now()} }

func (ps *phaseStats) fail(format string, args ...any) {
	ps.failed++
	fmt.Fprintf(os.Stderr, "hostbench: mismatch: "+format+"\n", args...)
}

// absorb moves o's operations into ps.
func (ps *phaseStats) absorb(o *phaseStats) {
	ps.ops += o.ops
	ps.failed += o.failed
	ps.lat = append(ps.lat, o.lat...)
	ps.cycles += o.cycles
	*o = phaseStats{}
}

// cut ends the current round.
func (ps *phaseStats) cut() {
	now := time.Since(ps.start).Seconds()
	ps.rounds = append(ps.rounds, round{
		wall: now - ps.mark.wall, ops: ps.ops - ps.mark.ops,
		cycles: ps.cycles - ps.mark.cycles, lat: ps.lat[len(ps.mark.lat):],
	})
	ps.mark = round{wall: now, ops: ps.ops, cycles: ps.cycles, lat: ps.lat}
}

// roundMedian is the median of f over the phase's rounds.
func (ps *phaseStats) roundMedian(f func(r round) float64) float64 {
	var xs []float64
	for _, r := range ps.rounds {
		xs = append(xs, f(r))
	}
	return median(xs)
}

// finish reads the host runtime counters at the end of the phase.
func (ps *phaseStats) finish() {
	h := readHost()
	ps.allocBytes = h.alloc - ps.host0.alloc
	ps.gcCPU = h.gcCPU - ps.host0.gcCPU
	ps.cpu = h.cpu - ps.host0.cpu
}

// throughput is the median round's simulated cycles per host second.
func (ps *phaseStats) throughput() float64 {
	return ps.roundMedian(func(r round) float64 { return float64(r.cycles) / r.wall })
}

// hostSample is a reading of the Go runtime's cumulative counters.
type hostSample struct {
	alloc      uint64
	gcCPU, cpu float64
}

func readHost() hostSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return hostSample{alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), cpu: s[2].Value.Float64()}
}
