package hvm

import (
	"reflect"
	"testing"
	"testing/quick"

	"multiverse/internal/cycles"
	"multiverse/internal/image"
	"multiverse/internal/machine"
)

// Property: arbitrary function pointers, argument vectors, and return
// values cross the shared data page intact through AsyncCall.
func TestAsyncCallRoundTripProperty(t *testing.T) {
	m, err := machine.New(machine.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(m, Config{ROSCores: []machine.CoreID{0}, HRTCores: []machine.CoreID{1}})
	if err != nil {
		t.Fatal(err)
	}

	// An echo sink: returns fn xor'd with every argument, read back from
	// the injected request (which itself was read from the shared page
	// layout by the HVM).
	type echoSink struct{ clk *cycles.Clock }
	sink := &echoSink{clk: cycles.NewClock(0)}
	h.RegisterBootHandler(func(BootInfo) (HRTSink, error) {
		return sinkFunc(func(req *HRTRequest) {
			ret := req.Fn
			for _, a := range req.Args {
				ret ^= a
			}
			go req.Complete(sink.clk, ret)
		}), nil
	})
	clk := cycles.NewClock(0)
	if err := h.InstallImage(clk, &image.Image{Name: "nk"}); err != nil {
		t.Fatal(err)
	}
	if err := h.BootHRT(clk); err != nil {
		t.Fatal(err)
	}

	prop := func(fn uint64, a1, a2, a3 uint64) bool {
		ret, err := h.AsyncCall(clk, fn, a1, a2, a3)
		return err == nil && ret == fn^a1^a2^a3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// sinkFunc adapts a function to HRTSink.
type sinkFunc func(*HRTRequest)

func (f sinkFunc) Inject(req *HRTRequest) { f(req) }

// Property: the router's promotion ladder is a pure function of the
// forward stream's virtual times. For any sequence of inter-arrival gaps,
// replaying the identical stream through a fresh router with both rungs
// installed yields the identical transition sequence at identical virtual
// times — the determinism the seeded fault plane and the pinned bench
// baselines stand on. Each rung's promotions and demotions must strictly
// alternate (the policy never double-promotes or double-demotes), and the
// two rungs are never promoted at once: a ring promotion gives the sync
// channel back first.
func TestRouterLadderTransitionsReplayableProperty(t *testing.T) {
	type transition struct {
		Kind PollKind
		Open bool
		At   cycles.Cycles
	}
	pol := RouterPolicy{
		PromoteCalls: 3, PromoteWindow: 150_000, DemoteIdle: 600_000,
		RingCalls: 8, RingWindow: 400_000, RingIdle: 1_200_000,
	}
	var promotions [2]int

	// run replays one stream and reports its transitions, and whether
	// both rungs were ever promoted at once.
	run := func(gaps []uint16) ([]transition, bool) {
		m, err := machine.New(machine.DefaultSpec())
		if err != nil {
			t.Fatal(err)
		}
		h, err := New(m, Config{ROSCores: []machine.CoreID{0}, HRTCores: []machine.CoreID{1}})
		if err != nil {
			t.Fatal(err)
		}
		r := NewSyscallRouter(h, 1, RouterLocalState{}, pol)
		var evs []transition
		var open [2]bool
		overlap := false
		r.SetPollHooks(
			func(clk *cycles.Clock, kind PollKind) (*PolledChannel, error) {
				clk.Advance(h.cost.HypercallRoundTrip())
				overlap = overlap || open[PollSync] || open[PollRing]
				open[kind] = true
				promotions[kind]++
				evs = append(evs, transition{kind, true, clk.Now()})
				return h.newPolled(kind, 0, 1, Poller{}), nil
			},
			func(clk *cycles.Clock, p *PolledChannel) {
				clk.Advance(h.cost.HypercallRoundTrip())
				open[p.kind] = false
				evs = append(evs, transition{p.kind, false, clk.Now()})
				p.Close()
			},
			true,
		)
		clk := cycles.NewClock(0)
		for _, g := range gaps {
			// Mostly sub-window gaps (promotable bursts) with occasional
			// idle stretches past one or both idle budgets — all derived
			// only from the input, so the stream itself is deterministic.
			gap := cycles.Cycles(g&1023) * 97
			switch {
			case g%31 == 0:
				gap += pol.RingIdle
			case g%17 == 0:
				gap += pol.DemoteIdle
			}
			clk.Advance(gap)
			// The climbs forward makes, minus the transport call.
			if r.climb(clk, &r.ring) == nil {
				r.climb(clk, &r.sync)
			}
		}
		return evs, overlap
	}

	prop := func(gaps []uint16) bool {
		a, overlap := run(gaps)
		b, _ := run(gaps)
		if overlap || !reflect.DeepEqual(a, b) {
			return false
		}
		var promoted [2]bool
		for _, e := range a {
			if e.Open == promoted[e.Kind] {
				return false
			}
			promoted[e.Kind] = e.Open
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if promotions[PollSync] == 0 || promotions[PollRing] == 0 {
		t.Errorf("promotions per rung = %v: the streams never climbed both rungs", promotions)
	}
}
