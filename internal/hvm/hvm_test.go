package hvm

import (
	"sync"
	"testing"

	"multiverse/internal/cycles"
	"multiverse/internal/image"
	"multiverse/internal/linuxabi"
	"multiverse/internal/machine"
)

func newHVM(t *testing.T) (*machine.Machine, *HVM) {
	t.Helper()
	m, err := machine.New(machine.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(m, Config{
		ROSCores: []machine.CoreID{0},
		HRTCores: []machine.CoreID{1, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, h
}

// fakeSink records injected requests and completes them immediately.
type fakeSink struct {
	mu   sync.Mutex
	reqs []*HRTRequest
	clk  *cycles.Clock
	ret  uint64
}

func (s *fakeSink) Inject(req *HRTRequest) {
	s.mu.Lock()
	s.reqs = append(s.reqs, req)
	s.mu.Unlock()
	go req.Complete(s.clk, s.ret)
}

func (s *fakeSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reqs)
}

func TestPartitionValidation(t *testing.T) {
	m, _ := machine.New(machine.DefaultSpec())
	cases := []Config{
		{},                              // empty
		{ROSCores: []machine.CoreID{0}}, // no HRT
		{ROSCores: []machine.CoreID{0}, HRTCores: []machine.CoreID{0}},  // overlap
		{ROSCores: []machine.CoreID{0}, HRTCores: []machine.CoreID{99}}, // out of range
	}
	for i, cfg := range cases {
		if _, err := New(m, cfg); err == nil {
			t.Errorf("case %d: bad partition accepted", i)
		}
	}
}

func TestBootRequiresImageAndHandler(t *testing.T) {
	_, h := newHVM(t)
	clk := cycles.NewClock(0)
	if err := h.BootHRT(clk); err == nil {
		t.Error("boot without handler should fail")
	}
	h.RegisterBootHandler(func(info BootInfo) (HRTSink, error) {
		return &fakeSink{clk: cycles.NewClock(0)}, nil
	})
	if err := h.BootHRT(clk); err == nil {
		t.Error("boot without image should fail")
	}
	if err := h.InstallImage(clk, &image.Image{Name: "nk"}); err != nil {
		t.Fatal(err)
	}
	if err := h.BootHRT(clk); err != nil {
		t.Fatalf("boot: %v", err)
	}
	if !h.Booted() || h.BootCount() != 1 {
		t.Error("boot state wrong")
	}
}

func TestBootCostIsMilliseconds(t *testing.T) {
	_, h := newHVM(t)
	clk := cycles.NewClock(0)
	h.RegisterBootHandler(func(info BootInfo) (HRTSink, error) {
		return &fakeSink{clk: cycles.NewClock(0)}, nil
	})
	_ = h.InstallImage(clk, &image.Image{Name: "nk"})
	before := clk.Now()
	_ = h.BootHRT(clk)
	bootMs := (clk.Now() - before).Nanoseconds() / 1e6
	if bootMs < 0.5 || bootMs > 10 {
		t.Errorf("boot took %v ms; paper says milliseconds", bootMs)
	}
}

func TestBootInfoTags(t *testing.T) {
	_, h := newHVM(t)
	clk := cycles.NewClock(0)
	var got BootInfo
	h.RegisterBootHandler(func(info BootInfo) (HRTSink, error) {
		got = info
		return &fakeSink{clk: cycles.NewClock(0)}, nil
	})
	_ = h.InstallImage(clk, &image.Image{Name: "nk"})
	if err := h.BootHRT(clk); err != nil {
		t.Fatal(err)
	}
	if got.Core != 1 || len(got.HRTCores) != 2 {
		t.Errorf("boot cores = %v", got)
	}
	tags := map[uint32]uint64{}
	for _, tag := range got.Tags {
		tags[tag.Type] = tag.Data
	}
	if tags[image.TagHRTFlags]&image.HRTFlagMergeCapable == 0 {
		t.Error("merge-capable flag missing")
	}
	if tags[image.TagCommChan] != h.SharedPage().Addr() {
		t.Error("comm channel tag wrong")
	}
	if tags[image.TagAPICCount] != 2 {
		t.Error("APIC count tag wrong")
	}
}

func TestMergeWritesSharedPageAndWaits(t *testing.T) {
	m, h := newHVM(t)
	clk := cycles.NewClock(0)
	sink := &fakeSink{clk: cycles.NewClock(0)}
	h.RegisterBootHandler(func(BootInfo) (HRTSink, error) { return sink, nil })
	_ = h.InstallImage(clk, &image.Image{Name: "nk"})
	_ = h.BootHRT(clk)

	if err := h.MergeAddressSpace(clk, 0x1234000); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 1 || sink.reqs[0].Op != OpMerge || sink.reqs[0].CR3 != 0x1234000 {
		t.Errorf("reqs = %+v", sink.reqs)
	}
	// The shared page carries the CR3 (section 4.3).
	v, err := m.Phys.ReadU64(h.SharedPage().Addr() + 0x08)
	if err != nil || v != 0x1234000 {
		t.Errorf("shared page CR3 = %#x, %v", v, err)
	}
}

func TestAsyncCallCarriesArgsAndReturn(t *testing.T) {
	m, h := newHVM(t)
	clk := cycles.NewClock(0)
	sink := &fakeSink{clk: cycles.NewClock(0), ret: 99}
	h.RegisterBootHandler(func(BootInfo) (HRTSink, error) { return sink, nil })
	_ = h.InstallImage(clk, &image.Image{Name: "nk"})
	_ = h.BootHRT(clk)

	ret, err := h.AsyncCall(clk, 0xFEED, 11, 22, 33)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 99 {
		t.Errorf("ret = %d", ret)
	}
	req := sink.reqs[0]
	if req.Op != OpCall || req.Fn != 0xFEED || len(req.Args) != 3 || req.Args[2] != 33 {
		t.Errorf("req = %+v", req)
	}
	// Function pointer and args written to the shared page.
	fn, _ := m.Phys.ReadU64(h.SharedPage().Addr() + 0x10)
	if fn != 0xFEED {
		t.Errorf("shared fn = %#x", fn)
	}
	a1, _ := m.Phys.ReadU64(h.SharedPage().Addr() + 0x18 + 8)
	if a1 != 22 {
		t.Errorf("shared arg1 = %d", a1)
	}
	if _, err := h.AsyncCall(clk, 1, 1, 2, 3, 4, 5, 6, 7); err == nil {
		t.Error("7 args should be rejected")
	}
}

func TestAsyncCallCostMatchesFigure2(t *testing.T) {
	_, h := newHVM(t)
	clk := cycles.NewClock(0)
	sink := &fakeSink{clk: cycles.NewClock(0)}
	h.RegisterBootHandler(func(BootInfo) (HRTSink, error) { return sink, nil })
	_ = h.InstallImage(clk, &image.Image{Name: "nk"})
	_ = h.BootHRT(clk)

	before := clk.Now()
	if _, err := h.AsyncCall(clk, 1); err != nil {
		t.Fatal(err)
	}
	cost := clk.Now() - before
	if cost < 18_000 || cost > 32_000 {
		t.Errorf("async call = %d cycles, want ~25K (Figure 2)", cost)
	}
}

func TestSignalHRTInjects(t *testing.T) {
	_, h := newHVM(t)
	clk := cycles.NewClock(0)
	sink := &fakeSink{clk: cycles.NewClock(0)}
	h.RegisterBootHandler(func(BootInfo) (HRTSink, error) { return sink, nil })
	_ = h.InstallImage(clk, &image.Image{Name: "nk"})
	_ = h.BootHRT(clk)
	if err := h.SignalHRT(clk, 7); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 1 || sink.reqs[0].Op != OpSignal || sink.reqs[0].Signal != 7 {
		t.Errorf("reqs = %+v", sink.reqs)
	}
}

func TestROSSignalPath(t *testing.T) {
	_, h := newHVM(t)
	rosClk := cycles.NewClock(0)
	hrtClk := cycles.NewClock(0)

	if err := h.RaiseROSSignal(hrtClk, 1); err == nil {
		t.Error("raise without registration should fail")
	}

	var got []int
	stack := machine.NewStack(4096)
	h.RegisterROSSignal(rosClk, func(sig int) { got = append(got, sig) }, stack)

	hrtClk.Advance(50_000)
	if err := h.RaiseROSSignal(hrtClk, int(linuxabi.SIGCHLD)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != int(linuxabi.SIGCHLD) {
		t.Errorf("handler got %v", got)
	}
	// The registered thread's clock synchronizes past the raise.
	if rosClk.Now() < 50_000 {
		t.Errorf("ROS clock = %d", rosClk.Now())
	}
}

func TestEventChannelRoundTrip(t *testing.T) {
	_, h := newHVM(t)
	ch := h.NewEventChannel(1, 0)
	hrtClk := cycles.NewClock(0)
	rosClk := cycles.NewClock(0)

	ch.Bind(rosClk, func(env *Envelope) {
		if env.Kind != EvSyscall || env.Call.Num != linuxabi.SysGetpid {
			t.Errorf("delivered %+v", env)
		}
		rosClk.Advance(500) // service time
		ch.Complete(rosClk, env, Reply{Res: linuxabi.Result{Ret: 321, Err: linuxabi.OK}})
	})

	r, err := ch.Forward(hrtClk, &Envelope{Kind: EvSyscall, Call: linuxabi.Call{Num: linuxabi.SysGetpid}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Res.Ret != 321 {
		t.Errorf("reply = %+v", r)
	}
	if h.Metrics().Counter("forward.syscall").Value() != 1 {
		t.Error("forward count wrong")
	}
	// The HRT clock must land after the ROS completion stamp.
	if hrtClk.Now() <= rosClk.Now() {
		t.Errorf("hrt=%d ros=%d", hrtClk.Now(), rosClk.Now())
	}

	ch.Close()
	if _, err := ch.Forward(hrtClk, &Envelope{Kind: EvSyscall}); err == nil {
		t.Error("forward on closed channel should fail")
	}
	ch.Close() // idempotent
}

// TestSyncChannelSocketDistance pins Figure 2's two synchronous rows on
// the section 4.3 polled channel: half the protocol overhead, a
// cacheline to the poller, a cacheline back, the other half.
func TestSyncChannelSocketDistance(t *testing.T) {
	measure := func(hrtCore machine.CoreID) cycles.Cycles {
		_, h := newHVM(t)
		clk := cycles.NewClock(0)
		p := openEchoOn(t, h, clk, hrtCore)
		before := clk.Now()
		res, err := p.Invoke(clk, linuxabi.Call{Args: [6]uint64{42}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != 42 {
			t.Errorf("sync call returned %d, want 42", res.Ret)
		}
		return clk.Now() - before
	}

	same := measure(1)  // core 1 shares socket 0 with ROS core 0
	cross := measure(4) // core 4 is socket 1
	if same != 790 {
		t.Errorf("same-socket sync = %d, want 790 (Figure 2)", same)
	}
	if cross != 1060 {
		t.Errorf("cross-socket sync = %d, want 1060 (Figure 2)", cross)
	}
}

func TestSyncChannelRequiresBoot(t *testing.T) {
	_, h := newHVM(t)
	if _, err := h.OpenPolled(cycles.NewClock(0), 0, 1, Poller{}); err == nil {
		t.Error("sync setup before boot should fail")
	}
}

func TestExitAccounting(t *testing.T) {
	_, h := newHVM(t)
	clk := cycles.NewClock(0)
	sink := &fakeSink{clk: cycles.NewClock(0)}
	h.RegisterBootHandler(func(BootInfo) (HRTSink, error) { return sink, nil })
	_ = h.InstallImage(clk, &image.Image{Name: "nk"})
	_ = h.BootHRT(clk)
	m := h.Metrics()
	if m.Counter("exits.hypercall:install").Value() != 1 {
		t.Error("install hypercall not counted")
	}
	if m.Counter("exits.hypercall:boot").Value() != 1 {
		t.Error("boot hypercall not counted")
	}
}
