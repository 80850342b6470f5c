package bench

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"multiverse/internal/core"
	"multiverse/internal/hvm"
	"multiverse/internal/linuxabi"
	"multiverse/internal/scheme"
)

// TestAllProgramsRunNative gates correctness of every workload: each must
// run to completion and produce its expected output.
func TestAllProgramsRunNative(t *testing.T) {
	for _, p := range Programs() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			res, err := RunBenchmark(p, core.WorldNative, core.Options{}, false)
			if err != nil {
				t.Fatalf("%v", err)
			}
			t.Logf("%s: %.4fs virtual, %d reductions, %d syscalls, %d faults, %d gcs",
				p.Name, res.Seconds, res.Reductions, res.Stats.TotalSyscalls(),
				res.Stats.MinorFaults, res.GCCollections)
		})
	}
}

// TestOutputIdenticalAcrossWorlds is the paper's behavioural contract:
// "our port behaves identically" — the bytes a program writes must not
// depend on the hosting world.
func TestOutputIdenticalAcrossWorlds(t *testing.T) {
	for _, name := range []string{"fannkuch-redux", "binary-tree-2", "fasta"} {
		p, _ := ProgramByName(name)
		var outputs [3][]byte
		for i, w := range []core.World{core.WorldNative, core.WorldVirtual, core.WorldHRT} {
			res, err := RunBenchmark(p, w, core.Options{}, false)
			if err != nil {
				t.Fatalf("%s on %v: %v", name, w, err)
			}
			outputs[i] = res.Output
		}
		if !bytes.Equal(outputs[0], outputs[1]) || !bytes.Equal(outputs[0], outputs[2]) {
			t.Errorf("%s: output differs across worlds (native %d bytes, virtual %d, multiverse %d)",
				name, len(outputs[0]), len(outputs[1]), len(outputs[2]))
		}
	}
}

// TestFigure13Shape asserts the paper's headline ordering on a GC-heavy
// benchmark: Native <= Virtual <= Multiverse, with Multiverse overhead
// driven by forwarded interactions.
func TestFigure13Shape(t *testing.T) {
	p, _ := ProgramByName("binary-tree-2")
	var secs [3]float64
	var fwd uint64
	for i, w := range []core.World{core.WorldNative, core.WorldVirtual, core.WorldHRT} {
		res, err := RunBenchmark(p, w, core.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		secs[i] = res.Seconds
		if w == core.WorldHRT {
			fwd = res.ForwardedSyscalls + res.ForwardedFaults
		}
	}
	if !(secs[0] <= secs[1] && secs[1] <= secs[2]) {
		t.Errorf("ordering violated: native=%.4f virtual=%.4f multiverse=%.4f", secs[0], secs[1], secs[2])
	}
	if secs[2] <= secs[0]*1.01 {
		t.Errorf("Multiverse shows no overhead on a GC-heavy benchmark (%.4f vs %.4f)", secs[2], secs[0])
	}
	if fwd == 0 {
		t.Error("no interactions forwarded")
	}
}

// TestFigure13OverheadTracksInteractions: the compute-bound benchmark must
// see far less Multiverse overhead than the GC-bound one (the paper:
// "performance varies with the usage of legacy functionality").
func TestFigure13OverheadTracksInteractions(t *testing.T) {
	overhead := func(name string) float64 {
		p, _ := ProgramByName(name)
		rn, err := RunBenchmark(p, core.WorldNative, core.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := RunBenchmark(p, core.WorldHRT, core.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		return rm.Seconds / rn.Seconds
	}
	gcBound := overhead("binary-tree-2")
	computeBound := overhead("fannkuch-redux")
	if computeBound >= gcBound {
		t.Errorf("fannkuch overhead (%.3fx) not below binary-tree overhead (%.3fx)", computeBound, gcBound)
	}
}

func TestFigure2Shape(t *testing.T) {
	tab, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	vals := tableCycles(t, tab)
	merger, async, syncCross, syncSame := vals[0], vals[1], vals[2], vals[3]
	within := func(name string, got, want, tol uint64) {
		if got < want-tol || got > want+tol {
			t.Errorf("%s = %d, want %d±%d (paper)", name, got, want, tol)
		}
	}
	within("merger", merger, 33000, 4000)
	within("async", async, 25000, 5000)
	within("sync cross", syncCross, 1060, 100)
	within("sync same", syncSame, 790, 80)
}

// TestFigureOrderChecks feeds each figure's ordering check one input
// that violates it.
func TestFigureOrderChecks(t *testing.T) {
	if err := checkFigure2Order(32880, 22700, 1060, 790); err != nil {
		t.Errorf("Figure 2's own numbers fail the check: %v", err)
	}
	if err := checkFigure2Order(32880, 22700, 790, 1060); err == nil {
		t.Error("a cross-socket sync call cheaper than a same-socket one passed the Figure 2 check")
	}
	if err := checkWorldOrder("fasta", 100, 100, 172, 120); err != nil {
		t.Errorf("a tied Native and Virtual fails the Figure 13 check: %v", err)
	}
	if err := checkWorldOrder("fasta", 100, 101, 99, 99); err == nil {
		t.Error("a Multiverse run faster than Virtual passed the Figure 13 check")
	}
	if err := checkWorldOrder("fasta", 100, 101, 172, 173); err == nil {
		t.Error("a routed run slower than Multiverse passed the Figure 13 check")
	}
	if err := checkWorldOrder("fasta", 100, 101, 172, 99); err == nil {
		t.Error("a routed run faster than Native passed the Figure 13 check")
	}
}

func tableCycles(t *testing.T, tab *Table) []uint64 {
	t.Helper()
	var out []uint64
	for _, r := range tab.Rows {
		s := strings.TrimPrefix(r[1], "~")
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad cycles cell %q", r[1])
		}
		out = append(out, v)
	}
	return out
}

func TestFigure8CountsSomething(t *testing.T) {
	tab, err := Figure8()
	if err != nil {
		t.Skipf("source tree unavailable: %v", err)
	}
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		n, err := strconv.Atoi(r[1])
		if err != nil || n <= 0 {
			t.Errorf("component %s has SLOC %q", r[0], r[1])
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	tab, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	get := func(name string) (virt, mv float64) {
		for _, r := range tab.Rows {
			if r[0] == name {
				v, _ := strconv.ParseFloat(r[1], 64)
				m, _ := strconv.ParseFloat(r[2], 64)
				return v, m
			}
		}
		t.Fatalf("row %s missing", name)
		return 0, 0
	}
	// vdso calls: slightly better under Multiverse.
	for _, vdso := range []string{"getpid", "gettimeofday"} {
		v, m := get(vdso)
		if m >= v {
			t.Errorf("%s: multiverse (%v) not faster than virtual (%v)", vdso, m, v)
		}
		if m < v/3 {
			t.Errorf("%s: improvement implausibly large (%v vs %v)", vdso, m, v)
		}
	}
	// Forwarded cheap calls: an order of magnitude or more slower.
	for _, cheap := range []string{"stat", "getcwd", "open", "close"} {
		v, m := get(cheap)
		if m < v*5 {
			t.Errorf("%s: forwarding overhead too small (%v vs %v)", cheap, m, v)
		}
	}
	// Copy-dominated 1 MiB calls: overhead amortized below 2x.
	for _, big := range []string{"fwrite", "read"} {
		v, m := get(big)
		if m > v*2 {
			t.Errorf("%s: 1MiB call overhead not amortized (%v vs %v)", big, m, v)
		}
		if m <= v {
			t.Errorf("%s: forwarded call cannot be faster (%v vs %v)", big, m, v)
		}
	}
}

func TestFigure10Table(t *testing.T) {
	tab, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 benchmarks", len(tab.Rows))
	}
	counts := map[string]uint64{}
	for _, r := range tab.Rows {
		n, _ := strconv.ParseUint(r[4], 10, 64) // page faults column
		counts[r[0]] = n
	}
	// The compute-bound benchmark must fault least among the heavy ones;
	// the GC benchmark must be heavy.
	if counts["binary-tree-2"] < counts["fannkuch-redux"] {
		t.Errorf("binary-tree-2 faults (%d) below fannkuch (%d)", counts["binary-tree-2"], counts["fannkuch-redux"])
	}
}

func TestFigure11And12Profiles(t *testing.T) {
	t11, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", t11)
	// Startup: mmap leads (heap creation).
	if t11.Rows[0][0] != "mmap" {
		t.Errorf("startup profile led by %s, want mmap", t11.Rows[0][0])
	}

	t12, err := Figure12()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", t12)
	idx := map[string]int{}
	count := map[string]uint64{}
	for i, r := range t12.Rows {
		idx[r[0]] = i
		n, _ := strconv.ParseUint(r[1], 10, 64)
		count[r[0]] = n
	}
	// GC-driven calls dominate binary-tree-2 (Figure 12's shape).
	for _, name := range []string{"mmap", "munmap", "mprotect", "getrusage", "rt_sigreturn"} {
		if _, ok := idx[name]; !ok {
			t.Errorf("%s missing from binary-tree-2 profile", name)
		}
	}
	if count["mmap"] < count["open"] || count["munmap"] < count["open"] {
		t.Error("memory-management calls do not dominate the profile")
	}
}

// TestSigreturnsAreBarriersPlusTicks backs Figure 12's note: every
// rt_sigreturn is the return of either a GC write-barrier fault (SIGSEGV)
// or a scheduler tick (SIGVTALRM), on every CLBG program.
func TestSigreturnsAreBarriersPlusTicks(t *testing.T) {
	for _, p := range Programs() {
		res, err := RunBenchmark(p, core.WorldNative, core.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Stats.Syscalls[linuxabi.SysRtSigreturn]
		if want := res.BarrierFaults + res.TimerFires; got != want {
			t.Errorf("%s: rt_sigreturn %d, want %d barrier faults + %d timer ticks",
				p.Name, got, res.BarrierFaults, res.TimerFires)
		}
	}
}

func TestStartupProfileMultiverseForwards(t *testing.T) {
	res, err := RunStartup(core.WorldHRT)
	if err != nil {
		t.Fatal(err)
	}
	// All startup syscalls (heap mmaps, sigaction, setitimer...) were
	// issued from kernel mode and forwarded.
	if res.Stats.Syscalls[linuxabi.SysMmap] == 0 {
		t.Error("no heap creation at startup")
	}
	if res.Stats.Syscalls[linuxabi.SysRtSigaction] == 0 {
		t.Error("no signal handler registration at startup")
	}
}

func TestPrimitivesOrdersOfMagnitude(t *testing.T) {
	tab, err := PrimitivesTable()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tab)
	row := tab.Rows[0] // thread create+join
	ros, _ := strconv.ParseUint(row[1], 10, 64)
	ak, _ := strconv.ParseUint(row[2], 10, 64)
	if ros < ak*20 {
		t.Errorf("thread create: ROS %d vs AK %d — want >= 20x", ros, ak)
	}
}

func TestAblationShapes(t *testing.T) {
	sym, err := AblationSymbolCache()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", sym)
	uncached, _ := strconv.ParseUint(sym.Rows[0][1], 10, 64)
	cached, _ := strconv.ParseUint(sym.Rows[1][1], 10, 64)
	if cached >= uncached {
		t.Errorf("symbol cache not faster: %d vs %d", cached, uncached)
	}

	rem, err := AblationRemerge()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rem)
	lazy, _ := strconv.ParseUint(rem.Rows[0][1], 10, 64)
	eager, _ := strconv.ParseUint(rem.Rows[1][1], 10, 64)
	if eager <= lazy {
		t.Errorf("eager re-merge not costlier: %d vs %d", eager, lazy)
	}

	pin, err := AblationPinning()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", pin)
	demand, _ := strconv.ParseUint(pin.Rows[0][1], 10, 64)
	pinned, _ := strconv.ParseUint(pin.Rows[1][1], 10, 64)
	if pinned*10 > demand {
		t.Errorf("pinning should remove most cost: %d vs %d", pinned, demand)
	}

	ch, err := AblationChannelKind()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", ch)
	async, _ := strconv.ParseUint(ch.Rows[0][1], 10, 64)
	sync, _ := strconv.ParseUint(ch.Rows[1][1], 10, 64)
	if sync*10 > async {
		t.Errorf("sync channel should be >=10x cheaper: %d vs %d", sync, async)
	}

	ss, err := AblationSyncSyscalls()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", ss)
	asyncSys, _ := strconv.ParseUint(ss.Rows[0][1], 10, 64)
	syncSys, _ := strconv.ParseUint(ss.Rows[1][1], 10, 64)
	if syncSys*5 > asyncSys {
		t.Errorf("sync syscall path should be >=5x cheaper: %d vs %d", syncSys, asyncSys)
	}
}

// TestPromotedSyncSyscallsEndToEnd: a whole benchmark runs correctly
// when the router promotes the group to the synchronous forwarding path
// on its first forward, producing identical output, faster.
func TestPromotedSyncSyscallsEndToEnd(t *testing.T) {
	p, _ := ProgramByName("fasta")
	base, err := RunBenchmark(p, core.WorldHRT, core.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}

	syncd, err := RunBenchmark(p, core.WorldHRT, core.Options{
		Router: true, RouterPolicy: hvm.RouterPolicy{PromoteCalls: 1},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(syncd.Output, base.Output) {
		t.Error("sync-syscall run changed program output")
	}
	if syncd.Seconds >= base.Seconds {
		t.Errorf("sync forwarding (%.4fs) not faster than async (%.4fs) on a syscall-heavy benchmark", syncd.Seconds, base.Seconds)
	}
	t.Logf("fasta: async %.4fs, promoted sync-forwarding %.4fs", base.Seconds, syncd.Seconds)
}

// TestIncrementalPortingPayoff is the end-to-end thesis of the paper: the
// automatic hybridization is a *starting point*; porting the hotspot
// functionality (the GC's memory management) into the AeroKernel brings
// the HRT back to near-native, with forwarding largely gone.
func TestIncrementalPortingPayoff(t *testing.T) {
	p, _ := ProgramByName("binary-tree-2")
	native, err := RunBenchmark(p, core.WorldNative, core.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := RunBenchmark(p, core.WorldHRT, core.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	ported, err := RunBenchmark(p, core.WorldHRT, core.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(native.Output, ported.Output) {
		t.Error("AK-memory run changed program output")
	}
	if ported.Seconds >= initial.Seconds {
		t.Errorf("porting did not help: %.4fs vs %.4fs", ported.Seconds, initial.Seconds)
	}
	if ported.ForwardedFaults*10 > initial.ForwardedFaults {
		t.Errorf("faults still forwarded after port: %d vs %d", ported.ForwardedFaults, initial.ForwardedFaults)
	}
	if ratio := ported.Seconds / native.Seconds; ratio > 1.15 {
		t.Errorf("ported HRT %.2fx native; want near parity", ratio)
	}
	t.Logf("native %.4fs, initial HRT %.4fs (%.2fx), ported HRT %.4fs (%.2fx)",
		native.Seconds, initial.Seconds, initial.Seconds/native.Seconds,
		ported.Seconds, ported.Seconds/native.Seconds)
	if err != nil {
		t.Fatal(err)
	}
}

// TestHotspotReportNamesTheGCCalls: the hotspot profile must point at the
// paper's predicted porting targets for a GC-heavy run.
func TestHotspotReportNamesTheGCCalls(t *testing.T) {
	p, _ := ProgramByName("binary-tree-2")
	fs, err := provisionFS(&p)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystemForWorld(core.WorldHRT, core.Options{FS: fs, AppName: p.Name})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		eng, _ := scheme.NewEngine(env)
		if _, eerr := eng.RunFile(BenchDir + "/" + p.Name + ".scm"); eerr != nil {
			t.Error(eerr)
		}
		eng.Shutdown()
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	entries := sys.Hotspots().Entries()
	// The full profile is pinned: every HRT syscall and every forwarded
	// fault, with its count and cycles, in report order.
	want := []core.HotspotEntry{
		{Name: "page-fault", Count: 1616, Cycles: 48751450},
		{Name: "mmap", Count: 128, Cycles: 3554560},
		{Name: "munmap", Count: 103, Cycles: 2907685},
		{Name: "mprotect", Count: 31, Cycles: 850370},
		{Name: "getrusage", Count: 12, Cycles: 317640},
		{Name: "read", Count: 10, Cycles: 268200},
		{Name: "write", Count: 6, Cycles: 163020},
		{Name: "open", Count: 6, Cycles: 162420},
		{Name: "stat", Count: 6, Cycles: 161820},
		{Name: "close", Count: 6, Cycles: 158820},
		{Name: "brk", Count: 2, Cycles: 54380},
		{Name: "poll", Count: 2, Cycles: 52940},
		{Name: "rt_sigaction", Count: 2, Cycles: 52940},
		{Name: "setitimer", Count: 2, Cycles: 52940},
		{Name: "getdents64", Count: 1, Cycles: 27170},
		{Name: "ioctl", Count: 1, Cycles: 26470},
		{Name: "uname", Count: 1, Cycles: 26470},
	}
	if !reflect.DeepEqual(entries, want) {
		t.Errorf("binary-tree-2 hotspot profile drifted:\ngot  %+v\nwant %+v", entries, want)
	}
	if len(entries) < 5 {
		t.Fatalf("hotspot entries = %d", len(entries))
	}
	top := map[string]bool{}
	for _, e := range entries[:4] {
		top[e.Name] = true
	}
	// Section 5: page faults + the GC's mmap/munmap/mprotect are the
	// dominant legacy dependencies.
	if !top["page-fault"] {
		t.Errorf("page-fault not in top 4: %+v", entries[:4])
	}
	if !top["mmap"] && !top["munmap"] {
		t.Errorf("GC memory calls not in top 4: %+v", entries[:4])
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bbbb"}}
	tab.AddRow("xx", "y")
	tab.AddNote("n=%d", 1)
	s := tab.String()
	for _, want := range []string{"T\n", "a", "bbbb", "xx", "note: n=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestProgramByName(t *testing.T) {
	if _, ok := ProgramByName("n-body"); !ok {
		t.Error("n-body missing")
	}
	if _, ok := ProgramByName("quake"); ok {
		t.Error("found nonexistent program")
	}
}

// TestResultOfRegistersNothing pins that reading a run is a pure read: a
// router-off, merger-off hybrid run projected onto the sweep's record
// exposes no router counter, no merger counter the run never moved, and
// no sync-rung histogram, because ResultOf and the projection look names
// up instead of registering them.
func TestResultOfRegistersNothing(t *testing.T) {
	p, _ := ProgramByName("fasta")
	res, err := RunBenchmark(p, core.WorldHRT, core.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	run := sweepMetrics.project("off", res)
	snap := res.Metrics.Snapshot()
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "router.") || name == "fault.local" ||
			(strings.HasPrefix(name, "merger.") && v == 0) {
			t.Errorf("router-off, merger-off run exposes counter %s = %d", name, v)
		}
	}
	if _, ok := snap.Histograms["sync.syscall.latency"]; ok {
		t.Error("router-off run exposes sync.syscall.latency")
	}
	if run.Counters["paging.pml4_entries_copied"] == 0 || run.Counters["ak.merges"] == 0 {
		t.Errorf("merge counters not read: %v", run.Counters)
	}
}
