package scheme_test

import (
	"testing"
	"unsafe"

	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/cycles"
	"multiverse/internal/scheme"
	"multiverse/internal/vfs"
)

// collectorGolden is what one native run of a CLBG program leaves in the
// collector and on the main thread's clock.
type collectorGolden struct {
	Collections, MinorCollections, MarkedLast uint64
	SegmentsFreed, BarrierFaults, Reductions  uint64
	Cycles                                    cycles.Cycles
}

// goldenCollector holds values recorded with a map-based marker, a
// 120-byte cell and chain-walking global lookups. The host representation
// of the heap must not show in the simulation: every collection, marked
// object, freed segment and virtual cycle must come out exactly the same.
var goldenCollector = map[string]collectorGolden{
	"fannkuch-redux": {0, 0, 0, 0, 0, 2972806, 113077412},
	"binary-tree-2":  {12, 9, 2807, 103, 0, 3407486, 135007874},
	"fasta":          {2, 2, 1297, 13, 2, 638778, 25662575},
	"fasta-3":        {0, 0, 0, 0, 0, 792619, 30378395},
	"n-body":         {13, 10, 1395, 110, 13, 1335398, 57370977},
	"spectral-norm":  {29, 22, 1419, 230, 29, 2917474, 124320456},
	"mandelbrot-2":   {48, 36, 712, 430, 0, 2698122, 123359709},
}

// runNativeProgram runs one benchmark program on a native system and
// returns its collector counters and main-thread cycles.
func runNativeProgram(t *testing.T, prog bench.Program) collectorGolden {
	t.Helper()
	fs := vfs.New()
	if err := scheme.InstallPrelude(fs); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll(bench.BenchDir); err != nil {
		t.Fatal(err)
	}
	path := bench.BenchDir + "/" + prog.Name + ".scm"
	if err := fs.WriteFile(path, []byte(prog.Source)); err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(nil, core.Options{FS: fs, AppName: prog.Name})
	if err != nil {
		t.Fatal(err)
	}
	var got collectorGolden
	if _, err := sys.RunMain(func(env core.Env) uint64 {
		eng, err := scheme.NewEngine(env)
		if err != nil {
			t.Error(err)
			return 1
		}
		if _, err := eng.RunFile(path); err != nil {
			t.Error(err)
			return 1
		}
		eng.Shutdown()
		gc := eng.Interp().GC()
		got = collectorGolden{
			Collections:      gc.Collections,
			MinorCollections: gc.MinorCollections,
			MarkedLast:       gc.MarkedLast,
			SegmentsFreed:    gc.SegmentsFreed,
			BarrierFaults:    gc.BarrierFaults,
			Reductions:       eng.Interp().Reductions(),
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	got.Cycles = sys.Main.Clock.Now()
	return got
}

// TestCollectorGolden pins the collector's behaviour on the seven CLBG
// programs, natively: the counts of collections, the objects the last
// collection marked, the segments freed, the write-barrier faults, the
// reductions, and the main thread's cycles.
func TestCollectorGolden(t *testing.T) {
	for _, prog := range bench.Programs() {
		t.Run(prog.Name, func(t *testing.T) {
			got := runNativeProgram(t, prog)
			want, ok := goldenCollector[prog.Name]
			if !ok {
				t.Fatalf("no golden values for %s; got %+v", prog.Name, got)
			}
			if got != want {
				t.Errorf("collector drifted:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestObjCellSize guards the heap cell's host size: every heap object is
// an Obj in a segment's page-sized chunk, so its size is what each
// chunk's allocation, its zeroing, and the host collector's scans pay for.
func TestObjCellSize(t *testing.T) {
	if n := unsafe.Sizeof(scheme.Obj{}); n > 48 {
		t.Errorf("unsafe.Sizeof(Obj{}) = %d bytes, want <= 48", n)
	}
}
