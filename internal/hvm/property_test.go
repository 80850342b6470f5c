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
// replaying the identical stream through a fresh router yields the
// identical transition sequence at identical virtual times — the
// determinism the seeded fault plane and the pinned bench baselines stand
// on. Promotions and demotions must strictly alternate (the policy never
// double-promotes or double-demotes).
func TestRouterLadderTransitionsReplayableProperty(t *testing.T) {
	type transition struct {
		Open bool
		At   cycles.Cycles
	}
	pol := RouterPolicy{PromoteCalls: 3, PromoteWindow: 150_000, DemoteIdle: 600_000}
	promotions := 0

	// run replays one stream and reports its transitions.
	run := func(gaps []uint16) []transition {
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
		r.SetPollHooks(
			func(clk *cycles.Clock) (*PolledChannel, error) {
				clk.Advance(h.cost.HypercallRoundTrip())
				promotions++
				evs = append(evs, transition{true, clk.Now()})
				return h.newPolled(0, 1, Poller{}), nil
			},
			func(clk *cycles.Clock, p *PolledChannel) {
				clk.Advance(h.cost.HypercallRoundTrip())
				evs = append(evs, transition{false, clk.Now()})
				p.Close()
			},
		)
		clk := cycles.NewClock(0)
		for _, g := range gaps {
			// Mostly sub-window gaps (promotable bursts) with occasional
			// idle stretches past the idle budget — all derived only from
			// the input, so the stream itself is deterministic.
			gap := cycles.Cycles(g&1023) * 97
			if g%17 == 0 {
				gap += pol.DemoteIdle
			}
			clk.Advance(gap)
			// The climb forward makes, minus the transport call.
			r.climb(clk)
		}
		return evs
	}

	prop := func(gaps []uint16) bool {
		a, b := run(gaps), run(gaps)
		if !reflect.DeepEqual(a, b) {
			return false
		}
		promoted := false
		for _, e := range a {
			if e.Open == promoted {
				return false
			}
			promoted = e.Open
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if promotions == 0 {
		t.Error("the streams never promoted")
	}
}
