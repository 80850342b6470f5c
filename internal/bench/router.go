package bench

import (
	"fmt"

	"multiverse/internal/core"
	"multiverse/internal/linuxabi"
)

// RouterComparison is one benchmark's WorldHRT run with the boundary
// router off vs on: end-to-end cycles, actual boundary crossings, the
// virtual time spent crossing, and the router's tier counters.
type RouterComparison struct {
	Program string `json:"program"`

	OffCycles    uint64 `json:"off_cycles"`
	OnCycles     uint64 `json:"on_cycles"`
	OffCrossings uint64 `json:"off_crossings"`
	OnCrossings  uint64 `json:"on_crossings"`
	// Forward cycles: the sum of boundary round-trip latencies the HRT
	// thread paid for system calls (async event channel + promoted sync
	// channel).
	OffForwardCycles uint64 `json:"off_forward_cycles"`
	OnForwardCycles  uint64 `json:"on_forward_cycles"`

	LocalHits     uint64 `json:"local_hits"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	Invalidations uint64 `json:"invalidations"`
	Promotions    uint64 `json:"promotions"`
	Demotions     uint64 `json:"demotions"`
}

// CrossingsEliminated is how many would-be boundary crossings the router
// serviced inside the HRT.
func (c *RouterComparison) CrossingsEliminated() uint64 {
	if c.OffCrossings < c.OnCrossings {
		return 0
	}
	return c.OffCrossings - c.OnCrossings
}

// CompareRouter runs one benchmark in WorldHRT twice — router off, then
// router on — and pairs the results. Both runs are deterministic, so the
// comparison is too.
func CompareRouter(prog Program) (*RouterComparison, error) {
	off, err := RunBenchmarkCfg(prog, core.WorldHRT, RunConfig{})
	if err != nil {
		return nil, err
	}
	on, err := RunBenchmarkCfg(prog, core.WorldHRT, RunConfig{Router: true})
	if err != nil {
		return nil, err
	}
	return &RouterComparison{
		Program:          prog.Name,
		OffCycles:        uint64(off.Cycles),
		OnCycles:         uint64(on.Cycles),
		OffCrossings:     off.ForwardedSyscalls,
		OnCrossings:      on.ForwardedSyscalls,
		OffForwardCycles: uint64(off.ForwardedSyscallCycles),
		OnForwardCycles:  uint64(on.ForwardedSyscallCycles),
		LocalHits:        on.RouterLocalHits,
		CacheHits:        on.RouterCacheHits,
		CacheMisses:      on.RouterCacheMisses,
		Invalidations:    on.RouterInvalidations,
		Promotions:       on.RouterPromotions,
		Demotions:        on.RouterDemotions,
	}, nil
}

// RouterBaseline is the BENCH_pr2.json document: the deterministic
// per-benchmark crossing and cycle totals the regression tests pin.
type RouterBaseline struct {
	// Note documents how to regenerate the file.
	Note       string             `json:"note"`
	Benchmarks []RouterComparison `json:"benchmarks"`
}

// CollectRouterBaseline runs the seven-benchmark suite in WorldHRT with
// the router off and on and returns the comparison set. It enforces the
// suite-wide acceptance invariants before returning: the router reduces
// both the total crossings and the total forwarded-syscall cycles.
func CollectRouterBaseline() (*RouterBaseline, error) {
	b := &RouterBaseline{Note: regenerateNote("router")}
	var offX, onX, offFwd, onFwd uint64
	for _, p := range Programs() {
		cmp, err := CompareRouter(p)
		if err != nil {
			return nil, err
		}
		b.Benchmarks = append(b.Benchmarks, *cmp)
		offX += cmp.OffCrossings
		onX += cmp.OnCrossings
		offFwd += cmp.OffForwardCycles
		onFwd += cmp.OnForwardCycles
	}
	if onX >= offX {
		return nil, fmt.Errorf("bench: router did not reduce total crossings: off=%d on=%d", offX, onX)
	}
	if onFwd >= offFwd {
		return nil, fmt.Errorf("bench: router did not reduce total forwarded cycles: off=%d on=%d", offFwd, onFwd)
	}
	return b, nil
}

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

// FigureRouter regenerates the adaptive-router comparison: the seven
// benchmarks in WorldHRT with the router off vs on (crossings eliminated,
// cycle totals), plus per-tier latencies measured directly.
func FigureRouter() (*Table, error) {
	t := &Table{
		Title: "Router figure: adaptive boundary-crossing fast path, WorldHRT router off vs on",
		Header: []string{
			"Benchmark", "Cycles (off)", "Cycles (on)", "Speedup",
			"Crossings (off)", "Crossings (on)", "Eliminated",
			"Local", "Cache h/m", "Promo",
		},
	}
	for _, p := range Programs() {
		c, err := CompareRouter(p)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			c.Program,
			fmt.Sprintf("%d", c.OffCycles),
			fmt.Sprintf("%d", c.OnCycles),
			fmt.Sprintf("%.3fx", float64(c.OffCycles)/float64(c.OnCycles)),
			fmt.Sprintf("%d", c.OffCrossings),
			fmt.Sprintf("%d", c.OnCrossings),
			fmt.Sprintf("%d", c.CrossingsEliminated()),
			fmt.Sprintf("%d", c.LocalHits),
			fmt.Sprintf("%d/%d", c.CacheHits, c.CacheMisses),
			fmt.Sprintf("%d/%d", c.Promotions, c.Demotions),
		)
	}

	// Per-tier latency microbenchmarks on a routed hybrid system.
	fs, err := provisionFS(nil)
	if err != nil {
		return nil, err
	}
	sysR, err := NewSystemForWorldCfg(core.WorldHRT, fs, "router-micro", RunConfig{Router: true})
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
