package hvm

import (
	"sync"
	"testing"

	"multiverse/internal/cycles"
	"multiverse/internal/linuxabi"
)

// fakeStamps is a StampSource with one stamp for every path, fd and the
// break, which the test moves by hand.
type fakeStamps struct {
	mu    sync.Mutex
	stamp uint64
}

func (f *fakeStamps) read() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stamp
}

func (f *fakeStamps) bump() {
	f.mu.Lock()
	f.stamp++
	f.mu.Unlock()
}

func (f *fakeStamps) FDStamp(int) uint64      { return f.read() }
func (f *fakeStamps) PathStamp(string) uint64 { return f.read() }
func (f *fakeStamps) BrkStamp() uint64        { return f.read() }

// TestRouterFillStampPrecedesForward races a fill against a mutation: the
// servicing side restamps the file while it serves the first stat. That
// entry was filled under the stamp read before the call crossed, so the
// next stat finds it stale and misses; the stat after that hits. An entry
// stamped at fill time would carry the new stamp and serve the result the
// mutation already outdated.
func TestRouterFillStampPrecedesForward(t *testing.T) {
	_, h := newHVM(t)
	ch := h.NewEventChannel(1, 0)
	r := NewSyscallRouter(h, 1, RouterLocalState{Cwd: "/"}, RouterPolicy{})
	stamps := &fakeStamps{stamp: 1}
	r.SetStamps(stamps)

	rosClk := cycles.NewClock(0)
	n := 0
	ch.Bind(rosClk, func(env *Envelope) {
		if n == 0 {
			stamps.bump() // a mutation lands while the first fill is in flight
		}
		ch.Complete(rosClk, env, Reply{Res: linuxabi.Result{Ret: uint64(n), Err: linuxabi.OK}})
		n++
	})

	m := h.Metrics()
	clk := cycles.NewClock(0)
	stat := linuxabi.Call{Num: linuxabi.SysStat, Path: "/f"}
	for i, want := range []struct{ hits, misses, invalidations uint64 }{
		{0, 1, 0}, // fills under stamp 1; the file moves to stamp 2 meanwhile
		{0, 2, 1}, // stale: refills under stamp 2
		{1, 2, 1}, // current
	} {
		if _, _, err := r.Dispatch(clk, ch, stat, 0); err != nil {
			t.Fatalf("stat %d: %v", i, err)
		}
		hits, misses := m.Counter("router.cache_hits").Value(), m.Counter("router.cache_misses").Value()
		inv := m.Counter("router.cache_invalidations").Value()
		if hits != want.hits || misses != want.misses || inv != want.invalidations {
			t.Errorf("after stat %d: hits/misses/invalidations = %d/%d/%d, want %d/%d/%d",
				i, hits, misses, inv, want.hits, want.misses, want.invalidations)
		}
	}
}
