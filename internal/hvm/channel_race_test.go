package hvm

import (
	"sync"
	"testing"

	"multiverse/internal/cycles"
)

// TestForwardCountersConcurrent hammers one channel with concurrent
// forwards while a reader polls the per-kind metrics counters (which
// replaced the racy ForwardCount shim). Under `go test -race` this fails
// if the counters are not atomic.
func TestForwardCountersConcurrent(t *testing.T) {
	_, h := newHVM(t)
	c := h.NewEventChannel(1, 0)

	const workers = 4
	const perWorker = 64

	// The partner completes every envelope at delivery.
	svc := cycles.NewClock(0)
	c.Bind(svc, func(env *Envelope) { c.Complete(svc, env, Reply{}) })

	// Concurrent reader of the counters.
	readerStop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-readerStop:
				return
			default:
				_ = h.Metrics().Counter("forward.syscall").Value()
				_ = h.Metrics().Counter("forward.page-fault").Value()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clk := cycles.NewClock(0)
			kind := EvSyscall
			if w%2 == 1 {
				kind = EvPageFault
			}
			for i := 0; i < perWorker; i++ {
				if _, err := c.Forward(clk, &Envelope{Kind: kind}); err != nil {
					t.Errorf("forward: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(readerStop)
	<-readerDone

	want := uint64(workers / 2 * perWorker)
	if got := h.Metrics().Counter("forward.syscall").Value(); got != want {
		t.Errorf("forward.syscall counter = %d, want %d", got, want)
	}
	if got := h.Metrics().Counter("forward.page-fault").Value(); got != want {
		t.Errorf("forward.page-fault counter = %d, want %d", got, want)
	}
	if got := h.Metrics().LatencyHistogram("forward.page-fault.latency").Count(); got != want {
		t.Errorf("forward.page-fault.latency count = %d, want %d", got, want)
	}
}
