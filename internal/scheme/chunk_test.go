package scheme

import (
	"testing"
	"unsafe"

	"multiverse/internal/core"
)

// newChunkTestInterp boots a native interpreter for the chunk tests.
func newChunkTestInterp(t *testing.T) *Interp {
	t.Helper()
	sys, err := core.NewSystem(nil, core.Options{AppName: "chunk-test"})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	in, err := NewInterp(sys.NativeEnv())
	if err != nil {
		t.Fatalf("NewInterp: %v", err)
	}
	return in
}

// heldChunks counts the chunks a segment holds.
func heldChunks(s *segment) int {
	n := 0
	for _, c := range s.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// TestChunkFitsPage: a chunk of cells stays within Go's 4 KiB size class.
func TestChunkFitsPage(t *testing.T) {
	if n := unsafe.Sizeof([chunkCells]Obj{}); n > pageBytes {
		t.Errorf("unsafe.Sizeof([chunkCells]Obj{}) = %d bytes, want <= %d", n, pageBytes)
	}
	if segChunks*chunkCells < segCells {
		t.Errorf("%d chunks of %d cells cannot hold a %d-cell segment", segChunks, chunkCells, segCells)
	}
}

// TestSegmentChunksFollowAllocation: after k allocations a fresh nursery
// holds ceil(k/chunkCells) chunks, and a segment that never received a
// cell (most of the initial heap) holds none.
func TestSegmentChunksFollowAllocation(t *testing.T) {
	in := newChunkTestInterp(t)
	g := in.gc
	empty := 0
	for _, s := range g.segments {
		if s.n == 0 && s != g.nursery {
			empty++
			if h := heldChunks(s); h != 0 {
				t.Errorf("segment %#x never allocated a cell but holds %d chunks", s.base, h)
			}
		}
	}
	if empty == 0 {
		t.Fatal("no segment of the initial heap stayed empty")
	}
	for _, k := range []int{0, 1, chunkCells - 1, chunkCells, chunkCells + 1, 500, segCells} {
		g.Collect() // allocation resumes in a fresh nursery
		s := g.nursery
		for i := 0; i < k; i++ {
			in.alloc(KPair)
		}
		if g.nursery != s {
			t.Fatalf("k=%d: allocation left the nursery", k)
		}
		if h, want := heldChunks(s), (k+chunkCells-1)/chunkCells; h != want {
			t.Errorf("k=%d: segment holds %d chunks, want %d", k, h, want)
		}
	}
}

// TestUnmappedCellsAreNeverReused pins the no-reuse invariant: a cell
// whose segment a collection unmapped keeps its contents however much is
// allocated afterwards, because chunks are never recycled.
func TestUnmappedCellsAreNeverReused(t *testing.T) {
	in := newChunkTestInterp(t)
	g := in.gc
	g.Collect()
	o := in.alloc(KInt) // reachable only from this test
	o.Int = 424242
	g.Collect() // o's segment was the nursery: it stays mapped, now old
	freed := g.SegmentsFreed
	g.Collect() // an old segment with no marked cell: unmapped
	if o.seg != nil || g.SegmentsFreed == freed {
		t.Fatal("the cell's segment was not unmapped")
	}
	for i := 0; i < 10*segCells; i++ {
		c := in.alloc(KFloat)
		c.Int = -1
	}
	if o.Kind != KInt || o.Int != 424242 {
		t.Errorf("unmapped cell now reads Kind %d, Int %d; want %d, 424242", o.Kind, o.Int, KInt)
	}
}
