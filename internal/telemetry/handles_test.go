package telemetry

import (
	"strconv"
	"sync"
	"testing"
)

// TestHandlesResolveOnce races readers that each resolve an overlapping
// run of keys: every key resolves exactly once, every reader gets the
// one handle its key resolved to, and keys added after a reader loaded
// the handles never disturb it (run it under -race).
func TestHandlesResolveOnce(t *testing.T) {
	var h Handles[int, *Counter]
	reg := NewRegistry()
	var mu sync.Mutex
	resolved := make(map[int]int)
	get := func(k int) *Counter {
		return h.Get(k, func() *Counter {
			mu.Lock()
			resolved[k]++
			mu.Unlock()
			return reg.Counter("k" + strconv.Itoa(k))
		})
	}
	const keys, readers = 40, 8
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := (i + r*5) % keys
				if c := get(k); c != reg.Counter("k"+strconv.Itoa(k)) {
					t.Errorf("key %d: wrong handle", k)
				}
				get(k).Inc()
			}
		}(r)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if resolved[k] != 1 {
			t.Errorf("key %d resolved %d times, want 1", k, resolved[k])
		}
		if v := reg.Counter("k" + strconv.Itoa(k)).Value(); v != readers {
			t.Errorf("key %d counted %d, want %d", k, v, readers)
		}
	}
}
