package places_test

import (
	"strings"
	"testing"

	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/places"
	"multiverse/internal/scheme"
	"multiverse/internal/vfs"
)

func runWithPlaces(t *testing.T, world core.World, src string) (*core.System, *scheme.Obj) {
	t.Helper()
	fs := vfs.New()
	if err := scheme.InstallPrelude(fs); err != nil {
		t.Fatal(err)
	}
	sys, err := bench.NewSystemForWorld(world, core.Options{FS: fs, AppName: "places"})
	if err != nil {
		t.Fatal(err)
	}
	var out *scheme.Obj
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		eng, eerr := places.NewEngine(env)
		if eerr != nil {
			t.Error(eerr)
			return 1
		}
		out, eerr = eng.RunString(src)
		if eerr != nil {
			t.Error(eerr)
			return 1
		}
		eng.Shutdown()
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	return sys, out
}

const placeProgram = `
(define p1 (place-spawn "(define (f n a) (if (= n 0) a (f (- n 1) (+ a 2)))) (f 20000 0)"))
(define p2 (place-spawn "(define (f n a) (if (= n 0) a (f (- n 1) (+ a 3)))) (f 20000 0)"))
(+ (place-wait p1) (place-wait p2))
`

func TestPlacesNative(t *testing.T) {
	_, out := runWithPlaces(t, core.WorldNative, placeProgram)
	if scheme.WriteString(out) != "100000" {
		t.Errorf("result = %s", scheme.WriteString(out))
	}
}

// TestPlacesMultiverse: each place becomes its own execution group; the
// Scheme program is unchanged.
func TestPlacesMultiverse(t *testing.T) {
	sys, out := runWithPlaces(t, core.WorldHRT, placeProgram)
	if scheme.WriteString(out) != "100000" {
		t.Errorf("result = %s", scheme.WriteString(out))
	}
	// The places' engines booted inside the HRT: their heap mmaps and
	// signal setup were forwarded.
	if sys.AK.ForwardedSyscalls() == 0 {
		t.Error("no forwarded syscalls — places did not run in the HRT")
	}
}

func TestPlaceValueMarshalling(t *testing.T) {
	_, out := runWithPlaces(t, core.WorldNative, `
		(define p (place-spawn "(list 1 2.5 \"s\" 'sym #(7 8))"))
		(place-wait p)`)
	if got := scheme.WriteString(out); got != `(1 2.5 "s" sym #(7 8))` {
		t.Errorf("marshalled = %s", got)
	}
}

func TestPlaceErrorsSurface(t *testing.T) {
	fs := vfs.New()
	_ = scheme.InstallPrelude(fs)
	sys, err := bench.NewSystemForWorld(core.WorldNative, core.Options{FS: fs, AppName: "placeerr"})
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		eng, _ := places.NewEngine(env)
		_, runErr = eng.RunString(`(place-wait (place-spawn "(car 5)"))`)
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if runErr == nil || !strings.Contains(runErr.Error(), "place failed") {
		t.Errorf("place error not surfaced: %v", runErr)
	}
}

func TestPlacesUnavailableWithoutAttach(t *testing.T) {
	fs := vfs.New()
	_ = scheme.InstallPrelude(fs)
	sys, err := bench.NewSystemForWorld(core.WorldNative, core.Options{FS: fs, AppName: "noplaces"})
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		eng, _ := scheme.NewEngine(env) // no Attach
		_, runErr = eng.RunString(`(place-spawn "1")`)
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	if runErr == nil {
		t.Error("place-spawn worked without a spawner")
	}
}

// TestAKCallFromScheme: the incremental -> accelerator transition — the
// same source probes its world and calls into the AeroKernel when
// hybridized.
func TestAKCallFromScheme(t *testing.T) {
	const probe = `(if (running-as-hrt?) (aerokernel-call "nk_sysinfo") -1)`

	_, native := runWithPlaces(t, core.WorldNative, probe)
	if native.Int != -1 {
		t.Errorf("native probe = %s", scheme.WriteString(native))
	}
	_, hrt := runWithPlaces(t, core.WorldHRT, probe)
	if hrt.Int != 1 { // one HRT core
		t.Errorf("hrt probe = %s", scheme.WriteString(hrt))
	}
}

// TestPlacesRunInParallelVirtualTime: two places each burning W cycles
// finish in ~W of the parent's virtual time, not ~2W — they are threads,
// not a queue.
func TestPlacesRunInParallelVirtualTime(t *testing.T) {
	seq := `
	(define (burn n a) (if (= n 0) a (burn (- n 1) (+ a 1))))
	(burn 60000 0) (burn 60000 0)`
	par := `
	(define p1 (place-spawn "(define (burn n a) (if (= n 0) a (burn (- n 1) (+ a 1)))) (burn 60000 0)"))
	(define p2 (place-spawn "(define (burn n a) (if (= n 0) a (burn (- n 1) (+ a 1)))) (burn 60000 0)"))
	(place-wait p1) (place-wait p2)`

	run := func(src string) float64 {
		sys, _ := runWithPlaces(t, core.WorldNative, src)
		return sys.Main.Clock.Now().Seconds()
	}
	seqTime := run(seq)
	parTime := run(par)
	if parTime >= seqTime {
		t.Errorf("parallel (%.5fs) not faster than sequential (%.5fs)", parTime, seqTime)
	}
}
