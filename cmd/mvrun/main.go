// mvrun runs a Scheme program (or a REPL) on the simulated stack in any of
// the three worlds — the user-facing face of Multiverse: "It can be run
// from a Linux command line and interact with the user just like any other
// executable ... but internally, it executes in kernel mode as an HRT."
//
// Usage:
//
//	mvrun -world multiverse -e '(display (+ 1 2)) (newline)'
//	mvrun -world native program.scm
//	echo '(+ 1 2)' | mvrun -world multiverse -repl
//	mvrun -bench binary-tree-2 -world multiverse
//	mvrun -bench fasta -world multiverse -trace=out.json -metrics
//	mvrun -bench fasta -world multiverse -router -stats
//	mvrun -bench fasta -world multiverse -listen :8080
//	mvrun -bench fasta -world multiverse -metrics-json metrics.json -slo
//	mvrun -nodes 4 -groups 64 -chaos 42:0.05
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/profiling"
	"multiverse/internal/scheme"
	"multiverse/internal/telemetry"
	"multiverse/internal/vcode"
	"multiverse/internal/vfs"
)

func main() {
	var opts core.Options
	var rep report
	world := flag.String("world", "multiverse", "execution world: native, virtual, multiverse")
	runtimeName := flag.String("runtime", "scheme", "guest runtime: scheme or vcode")
	expr := flag.String("e", "", "evaluate this expression instead of a file")
	repl := flag.Bool("repl", false, "run the interactive REPL over stdin")
	benchName := flag.String("bench", "", "run a named paper benchmark instead of a file")
	flag.BoolVar(&rep.stats, "stats", false, "print run statistics afterwards")
	flag.BoolVar(&opts.Router, "router", false, "enable the adaptive boundary-crossing router (multiverse world only)")
	flag.BoolVar(&opts.Merger, "merger", false, "enable the delta merger: re-merges copy only changed PML4 slots (multiverse world only)")
	flag.BoolVar(&opts.Scheduler, "scheduler", false, "enable the AeroKernel per-core run-queue scheduler (multiverse world only)")
	hrtCores := flag.Int("hrtcores", 0, "size of the HRT core partition (cores 1..N, the machine grown to fit; 0 = default single core)")
	workers := flag.Int("workers", 8, "legion worker count for the hpcg benchmark")
	flag.BoolVar(&rep.hotspots, "hotspots", false, "print the legacy-interface hotspot report (multiverse world only)")
	flag.StringVar(&rep.trace, "trace", "", "write a Chrome trace-event JSON of the run to this file (load in Perfetto)")
	flag.BoolVar(&rep.metrics, "metrics", false, "dump the run's metrics registry to stderr afterwards")
	groups := flag.Int("groups", 0, "spawn N concurrent execution groups as a density workload before the program runs (multiverse world only; ignored with -bench)")
	flag.IntVar(&opts.WarmPool, "warm-pool", 0, "keep up to M pre-booted AeroKernel contexts for warm group spawns (multiverse world only)")
	flag.IntVar(&opts.MaxGroups, "max-groups", 0, "admission control: reject spawns beyond N live groups with ErrAdmissionRejected (0 = uncapped)")
	tenantBudget := flag.String("tenant-budget", "", "per-group boundary budget as <membytes>:<cycles>, e.g. 1048576:5000000 (either side 0 = unbounded)")
	nodes := flag.Int("nodes", 0, "run a grid of N single-machine fault domains instead of a program; -groups sets the tenant count (multiverse world only)")
	chaos := flag.String("chaos", "", "grid chaos as <seed>:<rate>: the PR-5 transport fault menu plus a node kill; summary stays byte-identical to a clean run (requires -nodes)")
	faultsArg := flag.String("faults", "", "arm random fault injection as <seed>:<rate>, e.g. 42:0.01 (multiverse world only)")
	faultSpec := flag.String("fault-spec", "", "arm a scripted fault scenario from this JSON file (multiverse world only)")
	flag.StringVar(&rep.metricsJSON, "metrics-json", "", "write the run's metrics registry to this file as sorted JSON")
	flag.StringVar(&rep.listen, "listen", "", "serve /metrics, /metrics.json, /healthz, /trace, and /flight on this address and keep serving after the run")
	flag.StringVar(&rep.flight, "flight", "", "write the flight-recorder contents to this file at exit (auto-dumps also land here instead of stderr)")
	flag.BoolVar(&rep.slo, "slo", false, "print the per-group per-syscall SLO latency report to stderr afterwards")
	cpuProfile := flag.String("cpuprofile", "", "write a host pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a host pprof heap profile at exit to this file")
	blockProfile := flag.String("blockprofile", "", "write a host pprof blocking profile at exit to this file")
	flag.Parse()

	stopProfiles, err := profiling.Start(profiling.Flags{CPU: *cpuProfile, Mem: *memProfile, Block: *blockProfile})
	if err == nil {
		opts.Faults, err = parseFaultFlags(*faultsArg, *faultSpec)
	}
	if err == nil {
		opts.TenantBudget, err = parseTenantBudget(*tenantBudget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvrun: %v\n", err)
		os.Exit(1)
	}
	opts.HRTCores = core.HRTCoreRange(*hrtCores)
	var runErr error
	if *nodes > 0 || *chaos != "" {
		runErr = runGrid(*world, *nodes, *groups, *chaos, rep)
	} else {
		runErr = run(*world, *runtimeName, *expr, *repl, *benchName, opts, *workers, *groups, rep, flag.Args())
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "mvrun: %v\n", err)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "mvrun: %v\n", runErr)
		os.Exit(1)
	}
}

func parseWorld(s string) (core.World, error) {
	switch s {
	case "native":
		return core.WorldNative, nil
	case "virtual":
		return core.WorldVirtual, nil
	case "multiverse", "hrt":
		return core.WorldHRT, nil
	default:
		return 0, fmt.Errorf("unknown world %q (want native, virtual, or multiverse)", s)
	}
}

// parseTenantBudget parses -tenant-budget <membytes>:<cycles>. Either
// side may be 0 (that bound disabled).
func parseTenantBudget(s string) (*core.TenantBudget, error) {
	if s == "" {
		return nil, nil
	}
	var mem, cyc uint64
	if _, err := fmt.Sscanf(s, "%d:%d", &mem, &cyc); err != nil {
		return nil, fmt.Errorf("bad -tenant-budget %q (want <membytes>:<cycles>): %w", s, err)
	}
	return &core.TenantBudget{MemBytes: mem, Cycles: cycles.Cycles(cyc)}, nil
}

// report selects what mvrun prints and writes about a finished run.
type report struct {
	stats, metrics, hotspots, slo bool
	trace, metricsJSON            string
	listen, flight                string
}

// startExposition binds the live endpoint before the run starts, so a
// scraper can watch the run in flight.
func startExposition(addr string, reg *telemetry.Registry, tracer *telemetry.Tracer, rec *telemetry.Recorder) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	srv := &http.Server{Addr: addr, Handler: telemetry.ExpositionHandler(reg, tracer, rec)}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mvrun: serving /metrics, /metrics.json, /healthz, /trace, /flight on %s\n", addr)
	// block parks forever after the run so the endpoint outlives it
	// (interrupt to exit); a listen failure surfaces instead of hanging.
	block := func() {
		fmt.Fprintf(os.Stderr, "mvrun: run finished; still serving on %s (interrupt to exit)\n", addr)
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "mvrun: %v\n", err)
			os.Exit(1)
		}
	}
	return block, nil
}

// finishObservability emits the post-run artifacts: the metrics JSON
// file, the SLO report, and the flight-recorder file.
func finishObservability(rep report, reg *telemetry.Registry, rec *telemetry.Recorder) error {
	if rep.metricsJSON != "" {
		blob, err := reg.Snapshot().MarshalIndent()
		if err != nil {
			return err
		}
		if err := os.WriteFile(rep.metricsJSON, blob, 0o644); err != nil {
			return err
		}
	}
	if rep.slo {
		if report := telemetry.SLOReport(reg.Snapshot()); report != "" {
			fmt.Fprint(os.Stderr, report)
		} else {
			fmt.Fprintln(os.Stderr, "mvrun: no SLO histograms recorded (hybrid world only)")
		}
	}
	if rep.flight != "" {
		f, err := os.Create(rep.flight)
		if err != nil {
			return err
		}
		reason := "end of run"
		if why, text := rec.LastDump(); why != "" {
			// An auto-dump fired mid-run; preserve that snapshot verbatim
			// rather than the (later) final ring state.
			if _, err := f.WriteString(text); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		if err := rec.DumpTo(f, reason); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// parseFaultFlags combines -faults <seed>:<rate> and -fault-spec <file>
// into one plan: the scripted scenario composes with (and can run
// without) the random rates.
func parseFaultFlags(seedRate, specPath string) (*faults.Plan, error) {
	if seedRate == "" && specPath == "" {
		return nil, nil
	}
	var plan faults.Plan
	if seedRate != "" {
		p, err := faults.ParseSeedRate(seedRate)
		if err != nil {
			return nil, err
		}
		plan = p
	}
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		spec, err := faults.ParseSpec(data)
		if err != nil {
			return nil, err
		}
		plan.Spec = spec
	}
	return &plan, nil
}

func run(worldName, runtimeName, expr string, repl bool, benchName string, opts core.Options, workers, groups int, rep report, args []string) error {
	w, err := parseWorld(worldName)
	if err != nil {
		return err
	}
	if runtimeName != "scheme" && runtimeName != "vcode" {
		return fmt.Errorf("unknown runtime %q (want scheme or vcode)", runtimeName)
	}

	// Telemetry: tracing costs only when requested; the metrics registry
	// and the flight recorder always exist (counters are near-free and
	// the ring records in host time only). Both are created up front so
	// the live endpoint can serve them while the run is in flight.
	if rep.trace != "" || rep.listen != "" {
		opts.Tracer = telemetry.New()
	}
	opts.Metrics = telemetry.NewRegistry()
	opts.Recorder = telemetry.NewRecorder(telemetry.DefaultRecorderSize)
	if rep.flight == "" {
		// Post-mortem auto-dumps (contained panics, budget exhaustion,
		// wedged groups) land on stderr unless routed to a file.
		opts.Recorder.SetAutoDumpWriter(os.Stderr)
	}
	block, err := startExposition(rep.listen, opts.Metrics, opts.Tracer, opts.Recorder)
	if err != nil {
		return err
	}
	// finish prints the run's reports — the same for -bench and program
	// runs — then emits the post-run artifacts.
	finish := func(res *bench.RunResult) error {
		if rep.stats {
			printStats(res, groups)
		}
		if rep.metrics {
			fmt.Fprint(os.Stderr, res.Metrics.Dump())
		}
		if rep.hotspots && res.Hotspots != nil {
			fmt.Fprintln(os.Stderr)
			fmt.Fprint(os.Stderr, res.Hotspots.Report())
		}
		if err := finishObservability(rep, opts.Metrics, opts.Recorder); err != nil {
			return err
		}
		if err := writeTrace(opts.Tracer, rep.trace); err != nil {
			return err
		}
		block()
		return nil
	}

	if opts.Faults != nil && w != core.WorldHRT {
		return fmt.Errorf("fault injection targets the hybrid boundary; it requires -world multiverse")
	}
	if (groups > 0 || opts.WarmPool > 0 || opts.MaxGroups > 0 || opts.TenantBudget != nil) && w != core.WorldHRT {
		return fmt.Errorf("-groups/-warm-pool/-max-groups/-tenant-budget configure the multi-tenant hybrid host; they require -world multiverse")
	}

	if benchName == "hpcg" {
		// The legion HPCG workload is not a Scheme program; it runs the
		// task-parallel runtime directly so the partition and worker count
		// can be varied from the command line.
		t, err := bench.HPCGWorkloadTable(opts, workers)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	}
	if benchName != "" {
		prog, ok := bench.ProgramByName(benchName)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", benchName)
		}
		res, err := bench.RunBenchmark(prog, w, opts, false)
		if err != nil {
			return err
		}
		os.Stdout.Write(res.Output)
		return finish(res)
	}

	// Assemble the program source.
	var src string
	switch {
	case expr != "":
		src = expr
	case repl:
		// handled below
	case len(args) == 1:
		data, rerr := os.ReadFile(args[0])
		if rerr != nil {
			return rerr
		}
		src = string(data)
	default:
		return fmt.Errorf("need a program file, -e expression, -repl, or -bench name")
	}

	opts.FS, opts.AppName = vfs.New(), "mvrun"
	if err := scheme.InstallPrelude(opts.FS); err != nil {
		return err
	}
	sys, err := bench.NewSystemForWorld(w, opts)
	if err != nil {
		return err
	}
	if groups > 0 {
		// The density workload runs before the program: N tenants spawn
		// concurrently, sit live together (so the peak gauge reflects true
		// density), issue forwarded calls, and join — then the program gets
		// the same system, warm pool included.
		if err := bench.DensityWorkload(sys, groups); err != nil {
			return err
		}
	}
	if repl {
		stdin, rerr := io.ReadAll(os.Stdin)
		if rerr != nil {
			return rerr
		}
		sys.Proc.SetStdin(stdin)
	}

	var eng *scheme.Engine
	var runErr error
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		if runtimeName == "vcode" {
			prog, perr := vcode.Parse(src)
			if perr != nil {
				runErr = perr
				return 1
			}
			vm := vcode.NewVM(env)
			runErr = vm.Run(prog)
			if runErr != nil {
				return 1
			}
			return 0
		}
		e, eerr := scheme.NewEngine(env)
		if eerr != nil {
			runErr = eerr
			return 1
		}
		eng = e
		if repl {
			runErr = eng.REPL()
		} else {
			_, runErr = eng.RunString(src)
		}
		eng.Shutdown()
		if runErr != nil {
			return 1
		}
		return 0
	}); err != nil {
		return err
	}
	os.Stdout.Write(sys.Proc.Stdout())
	if runErr != nil {
		return runErr
	}
	return finish(bench.ResultOf(sys, "mvrun", w, eng))
}

// runGrid runs the grid workload: N nodes as independent fault domains,
// -groups tenants spread across them, and — with -chaos — the PR-5
// transport fault menu plus a deterministic node kill. The stdout
// summary is byte-identical between a chaotic and a clean run of the
// same seed: that byte-identity IS the recovery claim, so everything
// chaos-specific (kill count, rate) prints on stderr, outside the
// comparable bytes.
func runGrid(worldName string, nodes, groups int, chaos string, rep report) error {
	if w, err := parseWorld(worldName); err != nil {
		return err
	} else if w != core.WorldHRT {
		return fmt.Errorf("-nodes/-chaos run the multi-node grid; they require -world multiverse")
	}
	if nodes < 2 {
		return fmt.Errorf("-nodes %d: a grid needs at least 2 nodes (a kill must leave a survivor)", nodes)
	}
	plan := faults.Plan{Seed: 1}
	if chaos != "" {
		p, err := faults.ParseChaos(chaos)
		if err != nil {
			return err
		}
		plan = p
	}
	if groups <= 0 {
		groups = 64
	}
	// The grid records into the usual telemetry so -metrics-json,
	// -flight, and -listen work here too: the flight ring holds the
	// checkpoint / restore / drain / node-kill / migrate-complete
	// timeline for `mvtool flight`.
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(telemetry.DefaultRecorderSize)
	if rep.flight == "" {
		rec.SetAutoDumpWriter(os.Stderr)
	}
	block, err := startExposition(rep.listen, reg, nil, rec)
	if err != nil {
		return err
	}
	summary, err := bench.RunGridChaos(nodes, groups, plan, reg, rec)
	if err != nil {
		return err
	}
	os.Stdout.Write(summary)
	if err := finishObservability(rep, reg, rec); err != nil {
		return err
	}
	defer block()
	if chaos != "" {
		fmt.Fprintf(os.Stderr, "mvrun: grid chaos seed=%d rate=%g node-kills=%d over %d nodes / %d groups; stdout is byte-identical to the same seed with the faults off (-chaos %d:0)\n",
			plan.Seed, plan.Rate, plan.NodeKills, nodes, groups, plan.Seed)
	}
	return nil
}

// writeTrace exports the recorded spans as Chrome trace-event JSON.
func writeTrace(tracer *telemetry.Tracer, path string) error {
	if tracer == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// printStats prints the -stats report, the same for -bench and program
// runs: the totals, the boundary and runtime lines in every world, then
// one line per enabled subsystem. groups is the -groups density workload
// (0 for -bench, which ignores it).
func printStats(res *bench.RunResult, groups int) {
	o, m := res.Opts, res.Metrics
	fmt.Fprintf(os.Stderr, "\n[%s] %s: %.4f virtual seconds\n", res.World, res.Program, res.Seconds)
	fmt.Fprintf(os.Stderr, "  syscalls=%d faults=%d maxrss=%dKb ctxsw=%d\n",
		res.Stats.TotalSyscalls(), res.Stats.MinorFaults+res.Stats.MajorFaults,
		res.Stats.MaxRSSKb(), res.Stats.VoluntaryCS+res.Stats.InvoluntaryCS)
	// Uniform across worlds: the baselines report an empty boundary
	// rather than omitting the line.
	fmt.Fprintf(os.Stderr, "  forwarded: syscalls=%d faults=%d merges=%d\n",
		res.ForwardedSyscalls, res.ForwardedFaults, res.Merges)
	fmt.Fprintf(os.Stderr, "  gc: collections=%d barrier-faults=%d reductions=%d\n",
		res.GCCollections, res.BarrierFaults, res.Reductions)
	if o.Router {
		fmt.Fprintf(os.Stderr, "  router: local=%d cache=%d/%d inval=%d promo=%d/%d fwd-cycles=%d\n",
			res.RouterLocalHits, res.RouterCacheHits, res.RouterCacheMisses,
			res.RouterInvalidations, res.RouterPromotions, res.RouterDemotions,
			uint64(res.ForwardedSyscallCycles))
	}
	if o.Scheduler {
		fmt.Fprintf(os.Stderr, "  sched: placements=%d steals=%d halts=%d queue-delay=%d\n",
			m.Counter("sched.place").Value(), m.Counter("sched.steal").Value(),
			m.Counter("sched.idle.halt").Value(),
			uint64(m.LatencyHistogram("sched.queue.delay").Sum()))
	}
	if o.Merger {
		fmt.Fprintf(os.Stderr, "  merger: entries=%d delta=%d remerges=%d shootdowns=%d\n",
			res.PML4EntriesCopied, res.MergerDeltaEntries, res.Remerges, res.MergerBroadcast)
	}
	if groups > 0 || o.WarmPool > 0 || o.MaxGroups > 0 || o.TenantBudget != nil {
		fmt.Fprintf(os.Stderr, "  density: spawned=%d live=%d peak=%d warm=%d hits=%d misses=%d returns=%d drops=%d adm-rejected=%d budget-rejected=%d\n",
			m.Counter("density.groups.spawned").Value(),
			m.Gauge("density.groups.live").Value(),
			m.Gauge("density.groups.peak").Value(),
			m.FindGauge("density.warm.size").Value(),
			m.FindCounter("density.warm.hits").Value(),
			m.FindCounter("density.warm.misses").Value(),
			m.FindCounter("density.warm.returns").Value(),
			m.FindCounter("density.warm.drops").Value(),
			m.FindCounter("density.admission.rejected").Value(),
			m.FindCounter("density.budget.rejected").Value())
	}
	if o.Faults != nil {
		var injected uint64
		for _, k := range []string{"drop-notify", "dup-notify", "delay-inject",
			"corrupt-frame", "partner-stall", "partner-kill", "hrt-panic"} {
			injected += m.Counter("faults.injected." + k).Value()
		}
		fmt.Fprintf(os.Stderr, "  faults: injected=%d retransmits=%d dedups=%d recoveries=%d degraded=%d recovery-cycles=%d\n",
			injected, m.Counter("faults.retransmit").Value(),
			m.Counter("faults.dedup").Value(), m.Counter("faults.recovery").Value(),
			m.Counter("faults.degraded").Value(),
			uint64(m.LatencyHistogram("faults.recovery.latency").Sum()))
	}
}
