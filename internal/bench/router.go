package bench

import (
	"fmt"

	"multiverse/internal/core"
	"multiverse/internal/linuxabi"
)

// routerMicro measures the three router tiers directly from an HRT
// thread: tier-0 (getpid, uname), tier-1 hit (repeated stat), and tier-2
// (ioctl, which no tier can answer). Returns name -> mean cycles.
func routerMicro(sys *core.System, runs int) (map[string]uint64, error) {
	out := make(map[string]uint64)
	if _, err := sys.HRTInvokeFunc(func(env core.Env) uint64 {
		clk := env.Clock()
		measure := func(name string, fn func()) {
			out[name] = uint64(avgCycles(clk, runs, fn))
		}
		measure("tier0 getpid", func() {
			env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid})
		})
		measure("tier0 uname", func() {
			env.Syscall(linuxabi.Call{Num: linuxabi.SysUname})
		})
		// Prime the stat cache, then measure hits.
		env.Syscall(linuxabi.Call{Num: linuxabi.SysStat, Path: "/racket/collects"})
		measure("tier1 stat (cached)", func() {
			env.Syscall(linuxabi.Call{Num: linuxabi.SysStat, Path: "/racket/collects"})
		})
		measure("tier2 ioctl (forwarded)", func() {
			env.Syscall(linuxabi.Call{Num: linuxabi.SysIoctl})
		})
		return 0
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// FigureRouter renders the router suite: the seven benchmarks in
// WorldHRT with the router off vs on (crossings, cycle totals, and the
// per-tier counts of calls served without crossing), plus per-tier
// latencies measured directly.
func FigureRouter() (*Table, error) {
	sweep, err := CollectSweepBaseline()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Router figure: adaptive boundary-crossing fast path, WorldHRT router off vs on",
		Header: []string{
			"Benchmark", "Cycles (off)", "Cycles (on)", "Speedup",
			"Crossings (off)", "Crossings (on)",
			"Local", "Cache h/m", "Promo",
		},
	}
	for _, p := range Programs() {
		off, on := sweep.find(p.Name, "off"), sweep.find(p.Name, "router")
		c := on.Counters
		t.AddRow(
			p.Name,
			fmt.Sprintf("%d", off.Cycles),
			fmt.Sprintf("%d", on.Cycles),
			fmt.Sprintf("%.3fx", float64(off.Cycles)/float64(on.Cycles)),
			fmt.Sprintf("%d", off.Counters["ak.forwarded_syscalls"]),
			fmt.Sprintf("%d", c["ak.forwarded_syscalls"]),
			fmt.Sprintf("%d", c["router.local_hits"]),
			fmt.Sprintf("%d/%d", c["router.cache_hits"], c["router.cache_misses"]),
			fmt.Sprintf("%d/%d", c["router.promotions"], c["router.demotions"]),
		)
	}

	// Per-tier latency microbenchmarks on a routed hybrid system.
	fs, err := provisionFS(nil)
	if err != nil {
		return nil, err
	}
	sysR, err := NewSystemForWorld(core.WorldHRT, core.Options{FS: fs, AppName: "router-micro", Router: true})
	if err != nil {
		return nil, err
	}
	micro, err := routerMicro(sysR, 64)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"tier0 getpid", "tier0 uname", "tier1 stat (cached)", "tier2 ioctl (forwarded)"} {
		t.AddNote("%s: ~%d cycles", name, micro[name])
	}
	t.AddNote("tier prices: local %d, cache probe+hit %d; async round trip ~25K, sync ~790/1060 (Figure 2)",
		uint64(sysR.Machine.Cost.HRTLocalSyscall),
		uint64(sysR.Machine.Cost.SyscallCacheProbe+sysR.Machine.Cost.SyscallCacheHit))
	latencyHistogramNotes(t, sysR.Metrics(),
		"router.local.latency", "router.cache_hit.latency",
		"forward.syscall.latency", "sync.syscall.latency")
	return t, nil
}
