package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"time"

	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/legion"
	"multiverse/internal/machine"
	"multiverse/internal/scheme"
	"multiverse/internal/telemetry"
	"multiverse/internal/vfs"
)

// sysProfile is the option set of a workload's hybrid systems.
type sysProfile struct {
	router, exitless, merger, scheduler bool
	warmPool                            int
	hrtCores                            int           // 0 keeps the single default HRT core
	wedge                               time.Duration // 0 keeps core's default
}

var (
	// paperProfile is every option off: the exact HPDC'16 paths.
	paperProfile = sysProfile{}
	// fastProfile is the ROADMAP "Fast" profile without the warm pool,
	// which single-run systems never reuse.
	fastProfile = sysProfile{router: true, exitless: true, merger: true, scheduler: true}
)

// HPCG shape of the fast workload's scheduler-on solve.
const (
	hpcgN       = 8192
	hpcgIters   = 30
	hpcgCores   = 4
	hpcgWorkers = 8
)

// bootSystem runs core.Build + NewSystem + InitRuntime for one world.
func bootSystem(hybrid bool, p sysProfile, fs *vfs.FS, name string, reg *telemetry.Registry, rec *telemetry.Recorder) (*core.System, error) {
	opts := core.Options{AppName: name, FS: fs, Metrics: reg, Recorder: rec, WedgeTimeout: p.wedge}
	if !hybrid {
		return core.NewSystem(nil, opts)
	}
	opts.Hybrid = true
	opts.Router, opts.Exitless, opts.Merger, opts.Scheduler = p.router, p.exitless, p.merger, p.scheduler
	opts.WarmPool = p.warmPool
	if p.hrtCores > 0 {
		spec := machine.DefaultSpec()
		for spec.Sockets*spec.CoresPerSocket < p.hrtCores+1 {
			spec.CoresPerSocket++
		}
		opts.MachineSpec = &spec
		for i := 1; i <= p.hrtCores; i++ {
			opts.HRTCores = append(opts.HRTCores, machine.CoreID(i))
		}
	}
	fat, err := core.Build(core.BuildInput{App: core.NewAppImage(name), AeroKernel: core.NewAeroKernelImage()})
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(fat, opts)
	if err != nil {
		return nil, err
	}
	if err := sys.InitRuntime(); err != nil {
		return nil, err
	}
	return sys, nil
}

// provision builds a run's filesystem: the scheme prelude plus, when prog
// is non-nil, the program source.
func provision(prog *bench.Program) (*vfs.FS, error) {
	fs := vfs.New()
	if err := scheme.InstallPrelude(fs); err != nil {
		return nil, err
	}
	if prog != nil {
		if err := fs.MkdirAll(bench.BenchDir); err != nil {
			return nil, err
		}
		if err := fs.WriteFile(progPath(prog), []byte(prog.Source)); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

func progPath(prog *bench.Program) string { return bench.BenchDir + "/" + prog.Name + ".scm" }

// counters are the registry counters the per-layer metrics read. Every
// field is virtual: deterministic for a single-run system.
type counters struct {
	fwdSyscalls, fwdFaults                           uint64
	localHits, cacheHits, cacheMisses, invalidations uint64
	ringCalls, exits                                 uint64
	pml4Copied, deltaEntries, shootdowns             uint64
	fwdCycles, fwdCalls                              uint64
	placements, warmHits, spawned                    uint64
}

func readCounters(m *telemetry.Registry) counters {
	c := func(name string) uint64 { return m.Counter(name).Value() }
	var exits uint64
	m.EachCounter(func(name string, v uint64) {
		if strings.HasPrefix(name, "exits.") {
			exits += v
		}
	})
	var fwdCycles, fwdCalls uint64
	for _, h := range []string{"forward.syscall.latency", "sync.syscall.latency", "ring.syscall.latency"} {
		fwdCycles += uint64(m.LatencyHistogram(h).Sum())
		fwdCalls += m.LatencyHistogram(h).Count()
	}
	return counters{
		fwdSyscalls: c("ak.forwarded_syscalls"), fwdFaults: c("ak.forwarded_faults"),
		localHits: c("router.local_hits"), cacheHits: c("router.cache_hits"),
		cacheMisses: c("router.cache_misses"), invalidations: c("router.cache_invalidations"),
		ringCalls: c("ring.syscalls"), exits: exits,
		pml4Copied: c("paging.pml4_entries_copied"), deltaEntries: c("merger.delta.entries"),
		shootdowns: c("merger.shootdown.targeted") + c("merger.shootdown.broadcast"),
		fwdCycles:  fwdCycles, fwdCalls: fwdCalls,
		placements: c("sched.place"), warmHits: c("density.warm.hits"),
		spawned: c("density.groups.spawned"),
	}
}

func (a *counters) add(b counters) {
	for _, f := range [][2]*uint64{
		{&a.fwdSyscalls, &b.fwdSyscalls}, {&a.fwdFaults, &b.fwdFaults},
		{&a.localHits, &b.localHits}, {&a.cacheHits, &b.cacheHits},
		{&a.cacheMisses, &b.cacheMisses}, {&a.invalidations, &b.invalidations},
		{&a.ringCalls, &b.ringCalls}, {&a.exits, &b.exits},
		{&a.pml4Copied, &b.pml4Copied}, {&a.deltaEntries, &b.deltaEntries},
		{&a.shootdowns, &b.shootdowns}, {&a.fwdCycles, &b.fwdCycles},
		{&a.fwdCalls, &b.fwdCalls}, {&a.placements, &b.placements},
		{&a.warmHits, &b.warmHits}, {&a.spawned, &b.spawned},
	} {
		*f[0] += *f[1]
	}
}

// opSpec is one closed-loop operation: a program in one world, or the
// HPCG solve.
type opSpec struct {
	prog   *bench.Program // nil for HPCG
	hybrid bool
}

func (s opSpec) String() string {
	name := "hpcg"
	if s.prog != nil {
		name = s.prog.Name
	}
	if s.hybrid {
		return name + "/hybrid"
	}
	return name + "/native"
}

// opResult is what one operation yields. All of it is virtual, so it must
// equal the operation's first run.
type opResult struct {
	cycles uint64 // main-thread virtual cycles
	out    uint64 // FNV-1a of stdout, or of the HPCG solution vector
	ctr    counters
	steals int
}

// progWorkload is the closed loop of `paper` and `fast`: each pass runs
// every spec once, in a seeded order, one at a time.
type progWorkload struct {
	prof  sysProfile
	specs []opSpec
	rng   *rand.Rand
	first map[opSpec]opResult
	next  int32 // op id
}

func newProgWorkload(prof sysProfile, hpcg bool, seed int64) *progWorkload {
	w := &progWorkload{prof: prof, rng: rand.New(rand.NewSource(seed)), first: make(map[opSpec]opResult)}
	for _, p := range bench.Programs() {
		p := p
		w.specs = append(w.specs, opSpec{prog: &p}, opSpec{prog: &p, hybrid: true})
	}
	if hpcg {
		w.specs = append(w.specs, opSpec{hybrid: true})
	}
	return w
}

// setup provisions every program's filesystem and boots one system per
// world of the profile: the work a run does before its first operation.
func (w *progWorkload) setup() error {
	for _, s := range w.specs {
		if s.prog == nil {
			continue
		}
		if _, err := provision(s.prog); err != nil {
			return err
		}
	}
	for _, hybrid := range []bool{false, true} {
		fs, err := provision(nil)
		if err != nil {
			return err
		}
		sys, err := bootSystem(hybrid, w.prof, fs, "setup", nil, nil)
		if err != nil {
			return err
		}
		sys.ExitProcess(0) // halts the AeroKernel, so the system can be freed
	}
	return nil
}

// phase runs whole passes until d has elapsed (at least one pass).
func (w *progWorkload) phase(d time.Duration, rec *recorder) *phaseStats {
	ps := newPhaseStats()
	l := rec.lane(-1, false)
	l.begin(spLoad)
	for time.Since(ps.start) < d || ps.ops == 0 {
		for _, i := range w.rng.Perm(len(w.specs)) {
			w.runOne(w.specs[i], l, ps)
		}
		ps.cut()
	}
	l.end()
	ps.finish()
	l.flush()
	return ps
}

// runOne runs, checks and accounts one operation.
func (w *progWorkload) runOne(s opSpec, l *lane, ps *phaseStats) {
	l.at(w.next, s.hybrid)
	w.next++
	t0 := time.Now()
	res, err := w.run(s, l)
	ps.lat = append(ps.lat, ms(float64(time.Since(t0))))
	ps.ops++
	if err != nil {
		ps.fail("%s: %v", s, err)
		return
	}
	ps.cycles += res.cycles
	if s.hybrid {
		ps.hybridOps++
		ps.ctr.add(res.ctr)
	}
	if s.prog == nil {
		ps.solves++
		ps.steals += res.steals
		ps.placements += int(res.ctr.placements)
	}
	if ref, ok := w.first[s]; !ok {
		w.first[s] = res
	} else if res != ref {
		ps.fail("%s: run differs from the first run: cycles %d vs %d, output %#x vs %#x, counters %+v vs %+v",
			s, res.cycles, ref.cycles, res.out, ref.out, res.ctr, ref.ctr)
	}
}

// run executes one operation on a fresh system. With a lane, the guest's
// Env is wrapped in the timing decorator and each layer call is a span.
func (w *progWorkload) run(s opSpec, l *lane) (opResult, error) {
	l.begin(spOp)
	defer l.end()
	l.begin(spProvision)
	fs, err := provision(s.prog)
	l.end()
	if err != nil {
		return opResult{}, err
	}
	prof := w.prof
	name := "hpcg"
	if s.prog != nil {
		name = s.prog.Name
	} else {
		prof.hrtCores = hpcgCores
	}
	l.begin(spBoot)
	sys, err := bootSystem(s.hybrid, prof, fs, name, nil, nil)
	l.end()
	if err != nil {
		return opResult{}, err
	}
	if s.prog == nil {
		return runHPCG(sys, l)
	}

	var runErr error
	l.begin(spRunMain)
	_, err = sys.RunMain(func(env core.Env) uint64 {
		if l != nil {
			env = wrapEnv(env, l)
		}
		l.begin(spEngineBoot)
		eng, eerr := scheme.NewEngine(env)
		l.end()
		if eerr != nil {
			runErr = eerr
			return 1
		}
		l.begin(spSchemeRun)
		_, eerr = eng.RunFile(progPath(s.prog))
		l.end()
		if eerr != nil {
			runErr = eerr
			return 1
		}
		l.begin(spSchemeStop)
		eng.Shutdown()
		l.end()
		return 0
	})
	l.end()
	if err == nil {
		err = runErr
	}
	if err != nil {
		return opResult{}, err
	}
	out := sys.Proc.Stdout()
	if !bytes.Contains(out, []byte(s.prog.Check)) {
		return opResult{}, fmt.Errorf("output lacks %q (%d bytes)", s.prog.Check, len(out))
	}
	h := fnv.New64a()
	h.Write(out)
	return opResult{cycles: uint64(sys.Main.Clock.Now()), out: h.Sum64(), ctr: readCounters(sys.Metrics())}, nil
}

// runHPCG runs the legion HPCG solve on a booted system and verifies it.
func runHPCG(sys *core.System, l *lane) (opResult, error) {
	var res *legion.HPCGResult
	var steals int
	var runErr error
	l.begin(spRunMain)
	_, err := sys.RunMain(func(env core.Env) uint64 {
		l.begin(spSolve)
		defer l.end()
		rt, rerr := legion.New(env, hpcgWorkers)
		if rerr != nil {
			runErr = rerr
			return 1
		}
		defer rt.Shutdown()
		res, rerr = legion.RunHPCG(rt, env, hpcgN, hpcgIters)
		if rerr != nil {
			runErr = rerr
			return 1
		}
		steals = rt.Steals
		return 0
	})
	l.end()
	if err == nil {
		err = runErr
	}
	if err != nil {
		return opResult{}, err
	}
	if err := legion.VerifySolution(res.X, 1e-6); err != nil {
		return opResult{}, err
	}
	h := fnv.New64a()
	var b [8]byte
	for _, x := range res.X {
		bits := math.Float64bits(x)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return opResult{cycles: uint64(sys.Main.Clock.Now()), out: h.Sum64(), ctr: readCounters(sys.Metrics()), steals: steals}, nil
}

// mvOverhead is Figure 13's figure: the geometric mean over the seven
// programs of hybrid/native main-thread virtual cycles.
func (w *progWorkload) mvOverhead() float64 {
	var rs []float64
	for _, p := range bench.Programs() {
		var nat, hyb uint64
		for s, r := range w.first {
			if s.prog != nil && s.prog.Name == p.Name {
				if s.hybrid {
					hyb = r.cycles
				} else {
					nat = r.cycles
				}
			}
		}
		if nat > 0 && hyb > 0 {
			rs = append(rs, float64(hyb)/float64(nat))
		}
	}
	return geomean(rs)
}
