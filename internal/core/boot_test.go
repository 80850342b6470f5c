package core

import (
	"sync"
	"testing"

	"multiverse/internal/linuxabi"
	"multiverse/internal/mem"
	"multiverse/internal/paging"
)

// TestConcurrentHybridBoots boots eight hybrid systems at once, so their
// HRT identity maps share leaf templates while being built; each then
// runs a forwarded call, edits its own higher half and must still read
// the identity map everywhere else.
func TestConcurrentHybridBoots(t *testing.T) {
	const n = 8
	fat, err := Build(BuildInput{App: NewAppImage("boot"), AeroKernel: NewAeroKernelImage()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys, err := NewSystem(fat, Options{Hybrid: true})
			if err == nil {
				err = sys.InitRuntime()
			}
			if err != nil {
				t.Errorf("system %d: boot: %v", i, err)
				return
			}
			space := sys.AK.Space()
			mine := mem.Frame(i)
			if err := space.Protect(paging.HigherHalfVA(mine.Addr()), 0); err != nil {
				t.Error(err)
				return
			}
			for f := mem.Frame(0); f < n; f++ {
				want := f.Addr() | paging.PteWrite | paging.PtePresent
				if f == mine {
					want = f.Addr() | paging.PtePresent
				}
				if pte, _ := space.Lookup(paging.HigherHalfVA(f.Addr())); pte != want {
					t.Errorf("system %d: frame %d reads %#x, want %#x", i, f, pte, want)
				}
			}
			code, err := sys.RunMain(func(env Env) uint64 {
				return env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}).Ret
			})
			if err != nil || int(code) != sys.Proc.Pid() {
				t.Errorf("system %d: getpid = %d, %v; want %d", i, code, err, sys.Proc.Pid())
			}
		}()
	}
	wg.Wait()
}

// BenchmarkBoot times assembling a system and running its initialization:
// the native baseline, and a hybrid boot with its HRT identity map.
func BenchmarkBoot(b *testing.B) {
	fat, err := Build(BuildInput{App: NewAppImage("boot"), AeroKernel: NewAeroKernelImage()})
	if err != nil {
		b.Fatal(err)
	}
	for _, hybrid := range []bool{false, true} {
		name := "native"
		if hybrid {
			name = "hybrid"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := NewSystem(fat, Options{Hybrid: hybrid})
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.InitRuntime(); err != nil {
					b.Fatal(err)
				}
				sys.ExitProcess(0)
			}
		})
	}
}
