package faults

import (
	"testing"

	"multiverse/internal/telemetry"
)

// Two injectors built from the same plan must agree on every roll — the
// decision is a pure function of (seed, kind, id, seq, attempt).
func TestRollDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, Rate: 0.3, KillRate: 0.1, PanicRate: 0.05}
	a, err := New(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for kind := DropNotify; kind < numKinds; kind++ {
		for id := uint64(0); id < 4; id++ {
			for seq := uint64(1); seq < 64; seq++ {
				for attempt := 0; attempt < 3; attempt++ {
					ra := a.Roll(kind, id, seq, attempt, 0)
					rb := b.Roll(kind, id, seq, attempt, 0)
					if ra != rb {
						t.Fatalf("instances disagree at kind=%v id=%d seq=%d attempt=%d", kind, id, seq, attempt)
					}
					if ra {
						hits++
					}
				}
			}
		}
	}
	if hits == 0 {
		t.Fatal("rate 0.3 plan never injected anything")
	}
}

// Different seeds must produce different injection patterns (with
// overwhelming probability at these sample sizes).
func TestSeedChangesPattern(t *testing.T) {
	a, _ := New(Plan{Seed: 1, Rate: 0.5}, nil)
	b, _ := New(Plan{Seed: 2, Rate: 0.5}, nil)
	same := true
	for seq := uint64(1); seq < 256; seq++ {
		if a.Roll(DropNotify, 0, seq, 0, 0) != b.Roll(DropNotify, 0, seq, 0, 0) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 255-roll patterns")
	}
}

// Per-kind Rates override the class rate.
func TestPerKindRates(t *testing.T) {
	inj, _ := New(Plan{
		Seed:  7,
		Rate:  0,                                 // class transports off...
		Rates: map[Kind]float64{CorruptFrame: 1}, // ...but corruption always on
	}, nil)
	for seq := uint64(1); seq < 16; seq++ {
		if inj.Roll(DropNotify, 0, seq, 0, 0) {
			t.Fatal("DropNotify fired despite rate 0")
		}
		if !inj.Roll(CorruptFrame, 0, seq, 0, 0) {
			t.Fatal("CorruptFrame missed despite rate 1")
		}
	}
}

// Scenario entries fire at most once, only after their virtual time, and
// only at a matching target.
func TestSpecFireOnce(t *testing.T) {
	m := telemetry.NewRegistry()
	inj, err := New(Plan{
		Seed: 1,
		Spec: []Injection{
			{VTime: 100, Kind: "partner-kill", Target: "chan:3"},
			{VTime: 200, Kind: "drop-notify"},
		},
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Roll(PartnerKill, 3, 1, 0, 50) {
		t.Fatal("fired before vtime")
	}
	if inj.Roll(PartnerKill, 9, 1, 0, 150) {
		t.Fatal("fired at wrong target")
	}
	if !inj.Roll(PartnerKill, 3, 1, 0, 150) {
		t.Fatal("did not fire at matching site past vtime")
	}
	if inj.Roll(PartnerKill, 3, 2, 0, 300) {
		t.Fatal("fired twice")
	}
	if !inj.Roll(DropNotify, 0, 5, 0, 250) {
		t.Fatal("untargeted entry did not fire")
	}
	if got := m.Counter("faults.injected.partner-kill").Value(); got != 1 {
		t.Fatalf("partner-kill counter = %d, want 1", got)
	}
	if got := m.Counter("faults.injected.drop-notify").Value(); got != 1 {
		t.Fatalf("drop-notify counter = %d, want 1", got)
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := New(Plan{Spec: []Injection{{Kind: "meteor-strike"}}}, nil); err == nil {
		t.Fatal("unknown spec kind accepted")
	}
}

func TestParseSeedRate(t *testing.T) {
	p, err := ParseSeedRate("42:0.25")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || p.Rate != 0.25 {
		t.Fatalf("got %+v", p)
	}
	for _, bad := range []string{"", "x", "1:", "1:2.0", "1:-0.1"} {
		if _, err := ParseSeedRate(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec([]byte(`[{"vtime": 10, "kind": "corrupt-frame", "target": "chan:1"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec) != 1 || spec[0].Kind != "corrupt-frame" || spec[0].VTime != 10 {
		t.Fatalf("got %+v", spec)
	}
	if _, err := ParseSpec([]byte(`[{"kind": "nope"}]`)); err == nil {
		t.Fatal("bad kind accepted")
	}
	if _, err := ParseSpec([]byte(`{`)); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

// Nil injector is fully inert — the disabled fixed path calls these
// unconditionally.
func TestNilInjector(t *testing.T) {
	var inj *Injector
	if inj.Roll(DropNotify, 0, 1, 0, 0) {
		t.Fatal("nil injector rolled true")
	}
	if inj.RetryTimeout() != 0 || inj.Delay() != 0 || inj.Stall() != 0 || inj.RecoveryBudget() != 0 {
		t.Fatal("nil injector leaked plan values")
	}
	if inj.MaxAttempts() != 1 {
		t.Fatal("nil injector MaxAttempts != 1")
	}
}

func TestChecksumDetectsChange(t *testing.T) {
	a := Checksum(1, 2, 3)
	b := Checksum(1, 2, 4)
	if a == b {
		t.Fatal("checksum collision on adjacent frames")
	}
	if a == 0 || b == 0 {
		t.Fatal("checksum produced the zero sentinel")
	}
	if Checksum(1, 2, 3) != a {
		t.Fatal("checksum not stable")
	}
	if HashString("brk") == HashString("mmap") {
		t.Fatal("string hash collision")
	}
}
