package core

import (
	"runtime"
	"sync"
	"testing"

	"multiverse/internal/image"
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
// the native baseline, a hybrid boot with its HRT identity map, and a
// hybrid boot that first runs the toolchain's link step (Build, which
// encodes the AeroKernel image), as a process that builds its fat binary
// per boot does.
func BenchmarkBoot(b *testing.B) {
	in := BuildInput{App: NewAppImage("boot"), AeroKernel: NewAeroKernelImage()}
	fat, err := Build(in)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		hybrid, build bool
	}{{"native", false, false}, {"hybrid", true, false}, {"build+hybrid", true, true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f := fat
				if c.build {
					if f, err = Build(in); err != nil {
						b.Fatal(err)
					}
				}
				bootOnce(b, f, c.hybrid)
			}
		})
	}
}

// bootOnce boots one system from fat, runs its initialization and exits
// it.
func bootOnce(tb testing.TB, fat *image.Image, hybrid bool) {
	sys, err := NewSystem(fat, Options{Hybrid: hybrid})
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.InitRuntime(); err != nil {
		tb.Fatal(err)
	}
	sys.ExitProcess(0)
}

// TestBootBytes bounds the host memory a hybrid boot allocates. A boot
// allocates only the state it uses: TLBs fill on first use, the flight
// recorder starts with one small piece, and the fat binary decodes in
// place. The ceiling sits about a third above the measured figure.
func TestBootBytes(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	fat, err := Build(BuildInput{App: NewAppImage("boot"), AeroKernel: NewAeroKernelImage()})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	bootOnce(t, fat, true) // warm the process-wide identity-map templates
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		bootOnce(t, fat, true)
	}
	runtime.ReadMemStats(&after)
	perBoot := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("hybrid boot allocates %d bytes", perBoot)
	const ceiling = 75 << 10
	if perBoot > ceiling {
		t.Errorf("hybrid boot allocates %d bytes, want at most %d", perBoot, ceiling)
	}
}
