package core

import (
	"sync"
	"testing"

	"multiverse/internal/linuxabi"
)

// TestTLBStorageOnlyWhereTranslated: a core's TLB allocates its entries
// at its first fill, so a booted hybrid system holds TLB storage on no
// core, and after a run that touches memory, only on the ROS core and
// the HRT core the run translated on.
func TestTLBStorageOnlyWhereTranslated(t *testing.T) {
	sys := buildTestSystem(t, Options{AppName: "tlb"})
	filled := func() []int {
		var ids []int
		for i, c := range sys.Machine.Cores() {
			if c.MMU.TLB().Filled() {
				ids = append(ids, i)
			}
		}
		return ids
	}
	if got := filled(); len(got) != 0 {
		t.Fatalf("after boot, cores %v hold TLB storage; want none", got)
	}
	const addr = 0x7f10_0000_0000
	if errno := sys.Proc.Touch(sys.Main, mmapFixed(t, sys, addr), true); errno != linuxabi.OK {
		t.Fatalf("ROS touch: %v", errno)
	}
	code, err := sys.RunMain(func(env Env) uint64 {
		if env.Touch(addr, true) != nil {
			return 1
		}
		return 0
	})
	if err != nil || code != 0 {
		t.Fatalf("run: code %d, %v", code, err)
	}
	got := filled()
	if len(got) != 2 || got[0] != 0 || got[1] != int(sys.Opts.HRTCores[0]) {
		t.Errorf("cores %v hold TLB storage; want [0 %d]", got, sys.Opts.HRTCores[0])
	}
}

// mmapFixed maps one anonymous read-write page at addr in the ROS
// process and returns addr.
func mmapFixed(t *testing.T, sys *System, addr uint64) uint64 {
	t.Helper()
	r := sys.Proc.Syscall(sys.Main, linuxabi.Call{Num: linuxabi.SysMmap, Args: [6]uint64{addr, 4096,
		linuxabi.ProtRead | linuxabi.ProtWrite, linuxabi.MapPrivate | linuxabi.MapAnonymous | linuxabi.MapFixed}})
	if !r.Ok() || r.Ret != addr {
		t.Fatalf("mmap %#x: %v", addr, r.Err)
	}
	return addr
}

// TestSameCoreFirstTLBFills: groups sharing one HRT core make that
// core's first TLB fills at once. Every group touches the same ROS pages
// twice, so however the fills interleave the TLB ends up holding each
// page once, and every touch is one hit or one miss.
func TestSameCoreFirstTLBFills(t *testing.T) {
	const groups, pages = 4, 8
	const base = uint64(0x7f20_0000_0000)
	sys := buildTestSystem(t, Options{AppName: "tlb-fills"})
	for p := uint64(0); p < pages; p++ {
		if errno := sys.Proc.Touch(sys.Main, mmapFixed(t, sys, base+p*4096), true); errno != linuxabi.OK {
			t.Fatalf("ROS touch: %v", errno)
		}
	}
	if err := sys.HVM.MergeAddressSpace(sys.Main.Clock, sys.Proc.CR3()); err != nil {
		t.Fatal(err)
	}
	tlb := sys.Machine.Core(sys.Opts.HRTCores[0]).MMU.TLB()
	start := make(chan struct{})
	var ready sync.WaitGroup
	gs := make([]*ExecutionGroup, groups)
	for i := range gs {
		ready.Add(1)
		g, err := sys.SpawnGroup(sys.Main.Clock, func(env Env) uint64 {
			ready.Done()
			<-start
			for pass := 0; pass < 2; pass++ {
				for p := uint64(0); p < pages; p++ {
					if env.Touch(base+p*4096, false) != nil {
						return 1
					}
				}
			}
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = g
	}
	ready.Wait()
	if tlb.Filled() {
		t.Fatal("HRT core's TLB filled before any group touched memory")
	}
	hits0, misses0, _ := tlb.Stats()
	close(start)
	for i, g := range gs {
		if code, err := g.WaitExit(sys.Main.Clock); err != nil || code != 0 {
			t.Fatalf("group %d: code %d, %v", i, code, err)
		}
	}
	hits, misses, _ := tlb.Stats()
	hits, misses = hits-hits0, misses-misses0
	if hits+misses != 2*groups*pages || misses < pages {
		t.Errorf("%d hits + %d misses; want %d touches with at least %d misses", hits, misses, 2*groups*pages, pages)
	}
	if got := tlb.Len(); got != pages {
		t.Errorf("TLB holds %d translations, want %d", got, pages)
	}
}
