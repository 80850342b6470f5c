package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"multiverse/internal/core"
	"multiverse/internal/linuxabi"
	"multiverse/internal/scheme"
	"multiverse/internal/telemetry"
)

// The tenants workload is a closed loop on a two-node grid. Each of two
// spawner goroutines keeps a window of live tenants on its own node; a
// tenant is a short Go closure issuing a scripted mix of read-only calls
// (router tiers 0/1) and mutating ones (cache invalidations, merger
// generation bumps). A seeded 1 in tenantMigrateOneIn is armed to migrate
// to the other node. Tenants stay under RingCalls=64 crossings, so tier 3
// never promotes.
const (
	tenantNodes        = 2
	tenantWindow       = 128 // live tenants per spawner
	tenantGeneration   = 512 // tenants per spawner on one grid
	tenantScripts      = 16
	tenantMigrateOneIn = 32
	tenantWarmPool     = 64
	tenantScriptSeed   = 0x7e4a47 // the script family is fixed; --seed picks from it
	// tenantMigrateHold is how long a migrating tenant waits at its
	// barrier before its migration is armed: time for its ROS partner,
	// runnable among hundreds of goroutines, to get back into Recv.
	tenantMigrateHold = 20 * time.Millisecond
)

// tenantProfile bounds Join and migration waits, so a wedged group is a
// counted failure instead of a hung run.
var tenantProfile = sysProfile{router: true, exitless: true, merger: true, warmPool: tenantWarmPool,
	wedge: 30 * time.Second}

type tcall uint8

const (
	tGetpid tcall = iota
	tUname
	tStat
	tFstat
	tWrite
	tMmap // mmap + touch + munmap
)

// tenantScript is one member of the fixed script family. want, native
// and hybrid are the exit checksum, the native-process body cycles and
// the body cycles on a standalone hybrid system of the tenant profile;
// setup measures them, and they are exact.
type tenantScript struct {
	idx                  int
	calls                []tcall
	want, native, hybrid uint64
}

func makeScripts() []*tenantScript {
	r := rand.New(rand.NewSource(tenantScriptSeed))
	scripts := make([]*tenantScript, tenantScripts)
	for i := range scripts {
		// Every tenant starts with a write, which always crosses to its
		// ROS partner (see barrierPoints).
		s := &tenantScript{idx: i, calls: []tcall{tWrite}}
		for n := 8 + r.Intn(24); len(s.calls) < n; {
			// 70% read-only, 30% mutating.
			switch k := r.Intn(20); {
			case k < 6:
				s.calls = append(s.calls, tGetpid)
			case k < 9:
				s.calls = append(s.calls, tUname)
			case k < 12:
				s.calls = append(s.calls, tStat)
			case k < 14:
				s.calls = append(s.calls, tFstat)
			case k < 17:
				s.calls = append(s.calls, tWrite)
			default:
				s.calls = append(s.calls, tMmap)
			}
		}
		scripts[i] = s
	}
	return scripts
}

// barrierPoints are the call indexes a migrating tenant may pause before:
// each follows a write or mmap, which always crosses to the ROS partner,
// and leaves a call after it. Pausing there makes sure the partner has
// started; the hold gives it time to get back into its receive loop.
func (s *tenantScript) barrierPoints() []int {
	var at []int
	for i, c := range s.calls[:len(s.calls)-1] {
		if c == tWrite || c == tMmap {
			at = append(at, i+1)
		}
	}
	return at
}

// body runs the script and returns its exit checksum and the virtual
// cycles it took. The checksum folds only deterministic results (errnos,
// pid, write lengths), never mapped addresses. A non-nil barrier pauses
// the body before call barrier.at until the migration is armed.
func (s *tenantScript) body(env core.Env, b *barrier) (uint64, uint64) {
	c0 := env.Clock().Now()
	sum := uint64(14695981039346656037)
	fold := func(v uint64) { sum = (sum ^ v) * 1099511628211 }
	do := func(call linuxabi.Call) linuxabi.Result {
		res := env.Syscall(call)
		fold(uint64(res.Err))
		return res
	}
	for j, c := range s.calls {
		if b != nil && j == b.at {
			t0 := time.Now()
			b.arrived <- struct{}{}
			<-b.gate
			b.held = time.Since(t0)
		}
		switch c {
		case tGetpid:
			fold(do(linuxabi.Call{Num: linuxabi.SysGetpid}).Ret)
		case tUname:
			do(linuxabi.Call{Num: linuxabi.SysUname})
		case tStat:
			do(linuxabi.Call{Num: linuxabi.SysStat, Path: scheme.CollectsDir})
		case tFstat:
			do(linuxabi.Call{Num: linuxabi.SysFstat, Args: [6]uint64{1}})
		case tWrite:
			data := []byte(fmt.Sprintf("t%02d.%02d;", s.idx, j))
			fold(do(linuxabi.Call{Num: linuxabi.SysWrite, Args: [6]uint64{1, 0, uint64(len(data))}, Data: data}).Ret)
		case tMmap:
			res := do(linuxabi.Call{Num: linuxabi.SysMmap, Args: [6]uint64{0, 4096,
				linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous}})
			if !res.Ok() {
				continue
			}
			if err := env.Touch(res.Ret, true); err != nil {
				fold(0xbad)
			}
			do(linuxabi.Call{Num: linuxabi.SysMunmap, Args: [6]uint64{res.Ret, 4096}})
		}
	}
	return sum, uint64(env.Clock().Now() - c0)
}

// barrier holds a migrating tenant quiescent at a crossing while its
// migration is armed. A migration that fires while the ROS partner is not
// parked in Recv (still finishing the previous call, or not yet started:
// a warm spawn starts the HRT thread first, and router-local calls never
// wake the partner) loses its interrupt, and migrateNow waits for the
// partner forever (see NOTES.md). Nothing outside core shows whether the
// partner is parked, so the hold is a fixed time.
type barrier struct {
	at      int
	arrived chan struct{}
	gate    chan struct{}
	held    time.Duration // time at the barrier, left out of the tenant's latency
}

// tenant is one spawned closure's bookkeeping.
type tenant struct {
	id     int32
	script *tenantScript
	gen    *gridGen
	g      *core.ExecutionGroup
	start  time.Time
	exit   time.Time // set by the tenant before it returns
	cycles uint64
	done   atomic.Bool // the body has returned

	mig      *barrier // nil unless the tenant migrates
	armedAt  time.Time
	migDone  chan struct{}
	migErr   error
	migReady time.Time
}

// gridGen is one grid generation. Tenants spawn on the newest; an older
// one retires once its last tenant is joined, exiting its processes so it
// can be freed.
type gridGen struct {
	grid    *core.Grid
	reg     *telemetry.Registry
	flight  *telemetry.Recorder
	live    atomic.Int32 // spawned and not yet joined
	retired atomic.Bool  // no longer spawned on
	ctr     counters     // registry counters, read when it exits
}

func newGridGen() (*gridGen, error) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(telemetry.DefaultRecorderSize)
	nodes := make([]*core.System, tenantNodes)
	for i := range nodes {
		fs, err := provision(nil)
		if err != nil {
			return nil, err
		}
		if nodes[i], err = bootSystem(true, tenantProfile, fs, "tenants", reg, rec); err != nil {
			return nil, err
		}
	}
	grid, err := core.NewGrid(nodes)
	if err != nil {
		return nil, err
	}
	return &gridGen{grid: grid, reg: reg, flight: rec}, nil
}

// exit keeps the generation's counters, exits its processes, which halts
// their AeroKernels, and drops the grid.
func (g *gridGen) exit() {
	g.ctr = readCounters(g.reg)
	for i := 0; i < g.grid.Nodes(); i++ {
		g.grid.Node(i).ExitProcess(0)
	}
	g.grid, g.reg, g.flight = nil, nil, nil
}

type tenantWorkload struct {
	scripts []*tenantScript
	rngs    [tenantNodes]*rand.Rand // one per spawner
	nextIDs [tenantNodes]int32

	cur   *gridGen   // the generation tenants spawn on
	fresh bool       // no phase has used cur yet
	gens  []*gridGen // the current phase's generations
}

func newTenantWorkload(seed int64) *tenantWorkload {
	w := &tenantWorkload{scripts: makeScripts()}
	for k := range w.rngs {
		w.rngs[k] = rand.New(rand.NewSource(seed*tenantNodes + int64(k)))
	}
	return w
}

// nextGen boots a fresh generation and retires the current one. It runs
// while no spawner is joining.
func (w *tenantWorkload) nextGen() error {
	g, err := newGridGen()
	if err != nil {
		return err
	}
	if old := w.cur; old != nil {
		old.retired.Store(true)
		if old.live.Load() == 0 {
			old.exit()
		}
	}
	w.cur, w.fresh = g, true
	w.gens = append(w.gens, g)
	return nil
}

// setup boots the first grid and runs every script once as a native
// process and once on a standalone hybrid system of the tenant profile,
// which fixes each script's expected checksum and reference cycles.
func (w *tenantWorkload) setup() error {
	if err := w.nextGen(); err != nil {
		return err
	}
	for _, s := range w.scripts {
		for _, hybrid := range []bool{false, true} {
			fs, err := provision(nil)
			if err != nil {
				return err
			}
			sys, err := bootSystem(hybrid, tenantProfile, fs, "tenants", nil, nil)
			if err != nil {
				return err
			}
			var sum, cyc uint64
			if _, err := sys.RunMain(func(env core.Env) uint64 {
				sum, cyc = s.body(env, nil)
				return 0
			}); err != nil {
				return err
			}
			if !hybrid {
				s.want, s.native = sum, cyc
			} else if s.hybrid = cyc; sum != s.want {
				return fmt.Errorf("script %d: hybrid checksum %#x, native %#x", s.idx, sum, s.want)
			}
		}
	}
	return nil
}

// phase runs grid generations until d has elapsed. Each spawner spawns
// tenantGeneration tenants on a generation; then new tenants go to a fresh
// grid while the old one's finish. The simulator keeps every retired
// group's ROS partner thread and router hooks, so one grid's memory and
// per-write invalidation cost grow with every tenant it has hosted;
// recycling the grid bounds both (see NOTES.md).
func (w *tenantWorkload) phase(d time.Duration, rec *recorder) *phaseStats {
	ps := newPhaseStats()
	if !w.fresh {
		if err := w.nextGen(); err != nil {
			ps.fail("grid: %v", err)
			return ps
		}
	}
	w.gens = append(w.gens[:0], w.cur)
	w.fresh = false
	per := make([]*phaseStats, tenantNodes)
	// The last spawner to finish a generation ends the round and decides,
	// with both spawners parked, whether another generation runs.
	gen := newGenBarrier(tenantNodes, func(l *lane) bool {
		for _, p := range per {
			ps.absorb(p)
		}
		ps.cut()
		if time.Since(ps.start) >= d {
			return false
		}
		l.begin(spBoot)
		err := w.nextGen()
		l.end()
		if err != nil {
			ps.fail("grid: %v", err)
			return false
		}
		w.fresh = false
		return true
	})
	var wg sync.WaitGroup
	for k := range per {
		per[k] = &phaseStats{}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			w.spawner(k, gen, rec, per[k])
		}(k)
	}
	wg.Wait()
	for _, p := range per {
		ps.absorb(p)
	}
	ps.finish()
	ps.hybridOps = ps.ops
	for _, g := range w.gens {
		if g.retired.Load() {
			ps.ctr.add(g.ctr)
		} else {
			ps.ctr.add(readCounters(g.reg))
		}
	}
	return ps
}

// spawner is one load generator: it keeps tenantWindow tenants live on
// node k, joining the oldest before spawning the next, and meets the other
// spawner after every tenantGeneration spawns. The window is a ring, so
// the loop allocates nothing between its spans.
func (w *tenantWorkload) spawner(k int, gen *genBarrier, rec *recorder, ps *phaseStats) {
	l := rec.lane(int32(-1-k), false)
	l.begin(spLoad)
	var window [tenantWindow]*tenant
	n := 0
	step := func(spawn bool) {
		slot := &window[n%tenantWindow]
		n++
		if *slot != nil {
			w.join(k, *slot, l, ps)
			*slot = nil
		}
		if spawn {
			*slot = w.spawn(k, rec, l, ps)
		}
	}
	for more := true; more; {
		for i := 0; i < tenantGeneration; i++ {
			step(true)
		}
		l.begin(spLoadWait)
		more = gen.await(l)
		l.end()
	}
	for i := 0; i < tenantWindow; i++ {
		step(false)
	}
	l.end()
	l.flush()
}

// genBarrier is a cyclic barrier for the spawners. The last to arrive runs
// next, whose result tells every spawner whether to run another
// generation.
type genBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	round   int
	more    bool
	next    func(l *lane) bool
}

func newGenBarrier(parties int, next func(l *lane) bool) *genBarrier {
	b := &genBarrier{parties: parties, next: next}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *genBarrier) await(l *lane) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	if b.waiting++; b.waiting == b.parties {
		b.more = b.next(l)
		b.waiting = 0
		b.round++
		b.cond.Broadcast()
		return b.more
	}
	for round == b.round {
		b.cond.Wait()
	}
	return b.more
}

// spawn starts one tenant on node k. Its span covers the whole spawn as
// the load generator sees it, SpawnGroupOn and the tenant's bookkeeping.
func (w *tenantWorkload) spawn(k int, rec *recorder, l *lane, ps *phaseStats) *tenant {
	l.at(w.nextIDs[k]*tenantNodes+int32(k), true)
	l.begin(spSpawn)
	defer l.end()
	rng := w.rngs[k]
	t := &tenant{
		id:     w.nextIDs[k]*tenantNodes + int32(k),
		script: w.scripts[rng.Intn(len(w.scripts))],
	}
	w.nextIDs[k]++
	if rng.Intn(tenantMigrateOneIn) == 0 {
		at := t.script.barrierPoints()
		t.mig = &barrier{at: at[rng.Intn(len(at))],
			arrived: make(chan struct{}, 1), gate: make(chan struct{})}
	}
	fn := func(env core.Env) uint64 {
		tl := rec.lane(t.id, true)
		if tl != nil {
			tl.begin(spTenant)
			env = wrapEnv(env, tl)
		}
		sum, cyc := t.script.body(env, t.mig)
		tl.end()
		tl.flush()
		t.cycles = cyc
		t.exit = time.Now()
		t.done.Store(true)
		return sum
	}
	t.gen = w.cur
	t.start = time.Now()
	g, err := t.gen.grid.SpawnGroupOn(k, fn)
	if err != nil {
		ps.ops++
		ps.fail("tenant %d: spawn: %v", t.id, err)
		return nil
	}
	t.g = g
	t.gen.live.Add(1)
	if t.mig != nil {
		t.migDone = make(chan struct{})
		go w.migrate(t, (k+1)%tenantNodes, rec.lane(t.id, true))
	}
	return t
}

// migrate waits for t at its barrier, arms its migration to node target,
// releases it and waits for the result.
func (w *tenantWorkload) migrate(t *tenant, target int, l *lane) {
	defer close(t.migDone)
	<-t.mig.arrived
	time.Sleep(tenantMigrateHold)
	t.armedAt = time.Now()
	l.begin(spArm)
	res, err := t.gen.grid.ArmMigration(t.g, target, uint64(t.mig.at))
	l.end()
	close(t.mig.gate)
	if err == nil {
		err = <-res
	}
	t.migErr, t.migReady = err, time.Now()
	l.record(spMigrate, t.id, t.armedAt, t.migReady)
	l.flush()
}

// join waits for t and its migration result, then checks its exit
// checksum. Joining a retired generation's last tenant exits that grid.
func (w *tenantWorkload) join(k int, t *tenant, l *lane, ps *phaseStats) {
	l.at(t.id, true)
	l.begin(spJoin)
	defer l.end()
	code, err := t.g.Join(t.gen.grid.Node(k).Main)
	if t.mig != nil {
		<-t.migDone
	}
	if t.gen.live.Add(-1) == 0 && t.gen.retired.Load() {
		t.gen.exit()
	}
	ps.ops++
	if t.mig != nil {
		if t.migErr != nil {
			ps.fail("tenant %d: migration: %v", t.id, t.migErr)
		}
	}
	if err != nil {
		// A wedge is a simulator hang: print what shows where it stopped.
		ps.fail("tenant %d (script %d, migrating %v, body returned %v): join: %v",
			t.id, t.script.idx, t.mig != nil, t.done.Load(), err)
		if reason, dump := t.gen.flight.LastDump(); reason != "" {
			fmt.Fprintf(os.Stderr, "hostbench: flight recorder (%s):\n%s\n", reason, dump)
		}
		return
	}
	lat := t.exit.Sub(t.start)
	if t.mig != nil {
		lat -= t.mig.held
	}
	ps.lat = append(ps.lat, ms(float64(lat)))
	ps.cycles += t.cycles
	if code != t.script.want {
		ps.fail("tenant %d (script %d): exit checksum %#x, want %#x", t.id, t.script.idx, code, t.script.want)
	}
}

// mvOverhead is the geometric mean over the scripts of hybrid/native body
// cycles, both measured on standalone systems.
func (w *tenantWorkload) mvOverhead() float64 {
	var rs []float64
	for _, s := range w.scripts {
		rs = append(rs, float64(s.hybrid)/float64(s.native))
	}
	return geomean(rs)
}
