package hvm

import (
	"strings"
	"testing"

	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/linuxabi"
)

// toucher is a poller's fault service that counts the accesses it
// replicates, by address, and resolves every one but bad.
type toucher struct {
	n   map[uint64]int
	bad uint64
}

func newToucher() *toucher { return &toucher{n: make(map[uint64]int), bad: ^uint64(0)} }

func (tc *toucher) touch(addr uint64, write bool) bool {
	tc.n[addr]++
	return addr != tc.bad
}

// echoPoller serves system calls by echoing the first argument and faults
// through tc.
func echoPoller(clk *cycles.Clock, tc *toucher) Poller {
	return Poller{
		Clock: cycles.NewClock(clk.Now()),
		Serve: func(call linuxabi.Call) linuxabi.Result { return linuxabi.Result{Ret: call.Args[0]} },
		Touch: tc.touch,
	}
}

// TestPolledFaultFrameTouchesOnce arms drop and corrupt rolls on every
// attempt but the last: a dropped fault frame never reaches the poller and
// a corrupt one is discarded before service, so however many attempts a
// frame takes, its access is replicated exactly once.
func TestPolledFaultFrameTouchesOnce(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		h := newFaultedHVM(t, faults.Plan{
			Seed: 29, MaxAttempts: 4,
			Rates: map[faults.Kind]float64{faults.DropNotify: 0.4, faults.CorruptFrame: 0.4},
		})
		clk := cycles.NewClock(0)
		bootFake(t, h, clk)
		tc := newToucher()
		p, err := h.OpenPolled(clk, 0, 1, echoPoller(clk, tc))
		if err != nil {
			t.Fatal(err)
		}
		const frames = 200
		for i := uint64(0); i < frames; i++ {
			res, err := p.roundTrip(clk, frame{fault: true, addr: 0x10000 + i*4096, write: i%2 == 0}, i+1)
			if err != nil || res.Err != linuxabi.OK {
				t.Fatalf("fault frame %d: res=%+v err=%v", i, res, err)
			}
		}
		for addr, n := range tc.n {
			if n != 1 {
				t.Errorf("access at %#x replicated %d times, want 1", addr, n)
			}
		}
		if len(tc.n) != frames {
			t.Errorf("%d accesses replicated, want %d", len(tc.n), frames)
		}
		// Every dropped and every corrupt frame costs one retransmission,
		// so more retransmissions than corrupt frames means both rolls
		// fired.
		m := h.Metrics()
		retx, corrupt := m.Counter("faults.retransmit").Value(), m.Counter("faults.corrupt.detected").Value()
		if corrupt == 0 || retx <= corrupt {
			t.Errorf("rolls never fired: %d retransmissions, %d corrupt frames", retx, corrupt)
		}
	})
}

// TestPolledFaultFrameCounters: a fault frame is counted by the
// channel's fault metrics alone, never as a system call, a channel that has carried
// no fault registers no fault metric, and an access the ROS cannot
// resolve comes back as a failed fault, not a transport error.
func TestPolledFaultFrameCounters(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		_, h := newHVM(t)
		clk := cycles.NewClock(0)
		bootFake(t, h, clk)
		tc := newToucher()
		tc.bad = 0x9000
		p, err := h.OpenPolled(clk, 0, 1, echoPoller(clk, tc))
		if err != nil {
			t.Fatal(err)
		}
		m := h.Metrics()
		if _, err := p.Invoke(clk, linuxabi.Call{Num: linuxabi.SysClose, Args: [6]uint64{3}}, 1); err != nil {
			t.Fatal(err)
		}
		m.EachCounter(func(c string, _ uint64) {
			if strings.HasSuffix(c, ".faults") {
				t.Errorf("%s registered before any fault frame", c)
			}
		})
		for i, addr := range []uint64{0x8000, 0x9000, 0xa000} {
			res, err := p.roundTrip(clk, frame{fault: true, addr: addr, write: true}, uint64(i+2))
			if err != nil {
				t.Fatal(err)
			}
			if ok := res.Err == linuxabi.OK; ok != (addr != tc.bad) {
				t.Errorf("fault at %#x: res = %+v", addr, res)
			}
		}
		for metric, want := range map[string]uint64{
			"sync.syscalls": 1,
			"sync.faults":   3,
		} {
			if got := m.Counter(metric).Value(); got != want {
				t.Errorf("%s = %d, want %d", metric, got, want)
			}
		}
		for metric, want := range map[string]uint64{
			"sync.syscall.latency": 1,
			"sync.fault.latency":   3,
		} {
			if got := m.LatencyHistogram(metric).Count(); got != want {
				t.Errorf("%s count = %d, want %d", metric, got, want)
			}
		}
	})
}

// TestRouterFaultsClimbRungs drives faults alone through a router: they
// fill the sync rung's promotion window like any forward, the fault that
// fills it is the first to ride the rung, and the router.forward.*
// counters, which count system calls, never move. A system call after
// them finds the rung already promoted.
func TestRouterFaultsClimbRungs(t *testing.T) {
	_, h := newHVM(t)
	clk := cycles.NewClock(0)
	bootFake(t, h, clk)
	ch := h.NewEventChannel(1, 0)
	rosClk := cycles.NewClock(0)
	partnerFaults := 0
	ch.Bind(rosClk, func(env *Envelope) {
		if env.Kind == EvPageFault {
			partnerFaults++
		}
		ch.Complete(rosClk, env, Reply{FaultOK: true, Res: linuxabi.Result{Err: linuxabi.OK}})
	})

	const promoteAt = 4
	r := NewSyscallRouter(h, 1, RouterLocalState{Cwd: "/"}, RouterPolicy{PromoteCalls: promoteAt})
	tc := newToucher()
	r.SetPollHooks(func(clk *cycles.Clock) (*PolledChannel, error) {
		return h.OpenPolled(clk, 0, 1, echoPoller(clk, tc))
	}, h.ClosePolled)

	const n = 10
	for i := uint64(0); i < n; i++ {
		ok, err := r.ForwardFault(clk, ch, 0x20000+i*4096, false, i+1)
		if err != nil || !ok {
			t.Fatalf("fault %d: ok=%v err=%v", i, ok, err)
		}
	}
	m := h.Metrics()
	if partnerFaults != promoteAt-1 || len(tc.n) != n-promoteAt+1 {
		t.Errorf("partner served %d faults and poller %d, want %d and %d",
			partnerFaults, len(tc.n), promoteAt-1, n-promoteAt+1)
	}
	for metric, want := range map[string]uint64{
		"router.promotions":    1,
		"sync.faults":          n - promoteAt + 1,
		"forward.page-fault":   promoteAt - 1,
		"sync.syscalls":        0,
		"router.forward.sync":  0,
		"router.forward.async": 0,
		"forward.syscall":      0,
		"router.cache_misses":  0,
	} {
		if got := m.Counter(metric).Value(); got != want {
			t.Errorf("%s = %d, want %d", metric, got, want)
		}
	}
	if got := m.LatencyHistogram("sync.syscall.latency").Count(); got != 0 {
		t.Errorf("sync.syscall.latency count = %d, want 0", got)
	}

	res, crossed, err := r.Dispatch(clk, ch, linuxabi.Call{Num: linuxabi.SysClose, Args: [6]uint64{7}}, n+1)
	if err != nil || !crossed || res.Ret != 7 {
		t.Fatalf("close after the faults: res=%+v crossed=%v err=%v", res, crossed, err)
	}
	if got := m.Counter("router.forward.sync").Value(); got != 1 {
		t.Errorf("router.forward.sync = %d, want 1: the faults promoted the rung", got)
	}
}
