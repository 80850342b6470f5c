// Package faults is the deterministic fault-injection plane of the
// Multiverse simulation. The paper's split-execution protocol assumes the
// VMM, event channels, and partner threads never misbehave; this package
// lets a run arm the misbehavior on purpose — dropped, duplicated, or
// corrupted boundary notifications, delayed injection windows, stalled or
// killed partner threads, and HRT panics mid-syscall — so the recovery
// machinery in hvm/core can be exercised and measured.
//
// Determinism is the governing constraint, exactly as for the rest of the
// repository: every injection decision is a pure hash of
// (seed, kind, site id, sequence number, attempt) — never of goroutine
// interleaving, shared PRNG state, or wall-clock time — so a faulted run
// replays bit for bit under the same seed, and two injector instances
// built from the same Plan agree everywhere. A nil *Injector is the
// disabled default; every method is nil-safe, so the fixed paths can call
// unconditionally and stay byte-identical when no plan is armed.
package faults

import (
	"encoding/json"
	"fmt"
	"sync"

	"multiverse/internal/cycles"
	"multiverse/internal/telemetry"
)

// Kind classifies one injectable fault.
type Kind int

const (
	// DropNotify loses an HRT->ROS boundary notification in the VMM: the
	// frame is written but the partner is never signaled. The sender's
	// virtual-time poll deadline expires and it retransmits.
	DropNotify Kind = iota + 1
	// DupNotify delivers the same notification twice; the receiver must
	// coalesce by sequence number or double-apply the request.
	DupNotify
	// DelayInject widens the ROS user-mode injection window the VMM waits
	// for, delaying the request's arrival by Plan.DelayCycles.
	DelayInject
	// CorruptFrame flips bits in the shared-memory request frame; the
	// receiver detects the damage through the per-frame checksum and
	// discards it, forcing a retransmission.
	CorruptFrame
	// PartnerStall freezes the ROS partner thread for Plan.StallCycles
	// before it services a received request.
	PartnerStall
	// PartnerKill kills the ROS partner thread after it receives a request
	// but before it applies it; the delivery that found it dead must
	// respawn the partner and redeliver the in-flight work.
	PartnerKill
	// HRTPanic panics the HRT thread mid-syscall; the AeroKernel contains
	// the panic on the IST stack and the syscall retries from the stub.
	HRTPanic

	numKinds
)

var kindNames = map[Kind]string{
	DropNotify:   "drop-notify",
	DupNotify:    "dup-notify",
	DelayInject:  "delay-inject",
	CorruptFrame: "corrupt-frame",
	PartnerStall: "partner-stall",
	PartnerKill:  "partner-kill",
	HRTPanic:     "hrt-panic",
}

// String names the kind the way counters and scenario files spell it.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// KindFromString parses a scenario-file kind name.
func KindFromString(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q", s)
}

// Injection is one scripted fault in a scenario file: at or after virtual
// time VTime, fire one fault of Kind at a matching site. Entries fire at
// most once, in file order. Target narrows the site: "" matches any,
// "chan:<id>" one channel, "thread:<id>" one HRT thread.
type Injection struct {
	VTime  uint64 `json:"vtime"`
	Kind   string `json:"kind"`
	Target string `json:"target,omitempty"`
}

// Plan is the armed configuration. The zero value with a Seed injects
// nothing (all rates zero, no scenario) but still runs the checksum and
// sequencing machinery — the "plumbed but clean" configuration the
// overhead benchmark measures.
type Plan struct {
	// Seed keys the injection hash; two runs with the same Seed (and the
	// same program) inject identically.
	Seed uint64 `json:"seed"`
	// Rate is the per-roll probability of the transport faults
	// (drop/dup/delay/corrupt/stall) unless overridden per kind.
	Rate float64 `json:"rate,omitempty"`
	// KillRate is the per-serviced-envelope probability of PartnerKill.
	KillRate float64 `json:"kill_rate,omitempty"`
	// PanicRate is the per-syscall probability of HRTPanic.
	PanicRate float64 `json:"panic_rate,omitempty"`
	// Rates overrides the probability of individual kinds.
	Rates map[Kind]float64 `json:"-"`

	// DelayCycles is the extra injection-window latency of DelayInject.
	DelayCycles cycles.Cycles `json:"delay_cycles,omitempty"`
	// StallCycles is the partner freeze of PartnerStall.
	StallCycles cycles.Cycles `json:"stall_cycles,omitempty"`
	// RetryTimeout is the initial virtual-time poll deadline after which
	// an unanswered boundary notification retransmits; it doubles per
	// attempt (exponential backoff).
	RetryTimeout cycles.Cycles `json:"retry_timeout,omitempty"`
	// MaxAttempts bounds retransmission; the final attempt is forced
	// clean so a request always completes.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// RecoveryBudget is how many partner respawns a group performs before
	// degrading to ROS-only execution.
	RecoveryBudget int `json:"recovery_budget,omitempty"`
	// RetransmitBound caps the per-channel retransmission queue (pending
	// duplicate redeliveries + unacknowledged in-flight work). Past the
	// bound, further duplicate deliveries are rejected and the channel
	// degrades to reliable transport — the graceful path — instead of
	// growing without limit against a stalled partner.
	RetransmitBound int `json:"retransmit_bound,omitempty"`
	// NodeKills is how many whole-node failures a grid chaos run injects.
	// Victim selection is the same splitmix64 determinism as every other
	// roll: NodeKillVictim(Seed, event, nodes).
	NodeKills int `json:"node_kills,omitempty"`

	// Spec is the scripted scenario (ordered, fire-once injections); it
	// composes with the rate-based plan.
	Spec []Injection `json:"spec,omitempty"`

	// Groups scopes the whole plan to the listed execution-group IDs (the
	// multi-tenant isolation contract): when non-empty, rolls — rate-based
	// AND scripted — only fire at sites core has allowlisted for an
	// in-scope group (its event channel, its HRT threads). Every other
	// tenant runs byte-identical to an unfaulted run. Empty means
	// system-wide, the pre-tenancy behavior.
	Groups []uint64 `json:"groups,omitempty"`
}

func (p *Plan) fill() {
	if p.DelayCycles <= 0 {
		p.DelayCycles = 8_000
	}
	if p.StallCycles <= 0 {
		p.StallCycles = 20_000
	}
	if p.RetryTimeout <= 0 {
		// ~2.4x the asynchronous round trip: long enough that a serviced
		// request never falsely times out, short enough that recovery
		// latency stays visible at benchmark scale.
		p.RetryTimeout = 60_000
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.RecoveryBudget <= 0 {
		p.RecoveryBudget = 3
	}
	if p.RetransmitBound <= 0 {
		p.RetransmitBound = 256
	}
}

// rateOf returns the armed probability of a kind.
func (p *Plan) rateOf(k Kind) float64 {
	if r, ok := p.Rates[k]; ok {
		return r
	}
	switch k {
	case PartnerKill:
		return p.KillRate
	case HRTPanic:
		return p.PanicRate
	default:
		return p.Rate
	}
}

// specEntry is one compiled scenario injection.
type specEntry struct {
	vtime  cycles.Cycles
	kind   Kind
	target string
	fired  bool
}

// Injector draws injection decisions for one run. All state is
// per-instance (no package globals), so concurrent runs and repeated
// tests cannot leak seed state into each other.
type Injector struct {
	plan     Plan
	metrics  *telemetry.Registry
	recorder *telemetry.Recorder

	// scoped is set when the plan names Groups; allowed is then the site
	// allowlist core populates as in-scope groups register their channels
	// and threads. Sites not on the list never roll.
	scoped bool

	mu      sync.Mutex
	spec    []specEntry
	allowed map[faultSite]bool
}

// faultSite identifies one injection site for scope filtering.
type faultSite struct {
	class string // "chan" or "thread", as in siteClass
	id    uint64
}

// SetRecorder attaches the flight recorder; every fired roll is then
// recorded as a fault-roll event (site, kind, seq), which is what lets
// a post-mortem dump explain *why* a retransmission or respawn
// happened, not just that it did.
func (i *Injector) SetRecorder(rec *telemetry.Recorder) {
	if i != nil {
		i.recorder = rec
	}
}

// New compiles a plan. metrics receives the faults.injected.* counters
// (nil is tolerated: decisions still fire, uncounted).
func New(plan Plan, m *telemetry.Registry) (*Injector, error) {
	plan.fill()
	inj := &Injector{plan: plan, metrics: m, scoped: len(plan.Groups) > 0}
	for _, s := range plan.Spec {
		k, err := KindFromString(s.Kind)
		if err != nil {
			return nil, err
		}
		inj.spec = append(inj.spec, specEntry{
			vtime:  cycles.Cycles(s.VTime),
			kind:   k,
			target: s.Target,
		})
	}
	return inj, nil
}

// siteClass names the site type a kind rolls at, for Target matching.
func siteClass(k Kind) string {
	if k == HRTPanic {
		return "thread"
	}
	return "chan"
}

// Roll decides whether a fault of kind k fires at a site. id identifies
// the site (channel id, or thread id for HRTPanic), seq the request, and
// attempt the retransmission attempt (or delivery generation), so the
// decision depends only on program structure — never on host scheduling.
func (i *Injector) Roll(k Kind, id, seq uint64, attempt int, now cycles.Cycles) bool {
	if i == nil {
		return false
	}
	if i.scoped && !i.siteAllowed(siteClass(k), id) {
		// Scoped plan, out-of-scope site: absolute isolation — neither
		// rates nor scripted entries may touch another tenant.
		return false
	}
	if i.specFire(k, id, now) {
		i.count(k)
		i.recorder.Record(now, telemetry.RecFaultRoll, id, 0, uint64(k), seq)
		return true
	}
	r := i.plan.rateOf(k)
	if r <= 0 {
		return false
	}
	if chance(i.plan.Seed, k, id, seq, attempt) >= r {
		return false
	}
	i.count(k)
	i.recorder.Record(now, telemetry.RecFaultRoll, id, 0, uint64(k), seq)
	return true
}

// specFire consumes the first matching un-fired scenario entry whose
// virtual time has passed.
func (i *Injector) specFire(k Kind, id uint64, now cycles.Cycles) bool {
	if len(i.spec) == 0 {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	for idx := range i.spec {
		e := &i.spec[idx]
		if e.fired || e.kind != k || now < e.vtime {
			continue
		}
		if e.target != "" && e.target != fmt.Sprintf("%s:%d", siteClass(k), id) {
			continue
		}
		e.fired = true
		return true
	}
	return false
}

// GroupInScope reports whether gid is one of the plan's named groups.
func (i *Injector) GroupInScope(gid uint64) bool {
	if i == nil {
		return false
	}
	for _, g := range i.plan.Groups {
		if g == gid {
			return true
		}
	}
	return false
}

// AllowSite allowlists one injection site ("chan" or "thread" class plus
// its id) for a scoped plan. core calls this as in-scope groups register
// their channels and HRT threads; it is a no-op on unscoped plans.
func (i *Injector) AllowSite(class string, id uint64) {
	if i == nil || !i.scoped {
		return
	}
	i.mu.Lock()
	if i.allowed == nil {
		i.allowed = make(map[faultSite]bool)
	}
	i.allowed[faultSite{class, id}] = true
	i.mu.Unlock()
}

func (i *Injector) siteAllowed(class string, id uint64) bool {
	i.mu.Lock()
	ok := i.allowed[faultSite{class, id}]
	i.mu.Unlock()
	return ok
}

func (i *Injector) count(k Kind) {
	if i.metrics != nil {
		i.metrics.Counter("faults.injected." + k.String()).Inc()
	}
}

// Delay is the extra arrival latency when DelayInject fires (already
// decided by Roll).
func (i *Injector) Delay() cycles.Cycles {
	if i == nil {
		return 0
	}
	return i.plan.DelayCycles
}

// Stall is the partner freeze when PartnerStall fires.
func (i *Injector) Stall() cycles.Cycles {
	if i == nil {
		return 0
	}
	return i.plan.StallCycles
}

// RetryTimeout is the initial retransmission deadline.
func (i *Injector) RetryTimeout() cycles.Cycles {
	if i == nil {
		return 0
	}
	return i.plan.RetryTimeout
}

// MaxAttempts bounds retransmission per request.
func (i *Injector) MaxAttempts() int {
	if i == nil {
		return 1
	}
	return i.plan.MaxAttempts
}

// RecoveryBudget is the respawn allowance before a group degrades.
func (i *Injector) RecoveryBudget() int {
	if i == nil {
		return 0
	}
	return i.plan.RecoveryBudget
}

// RetransmitBound is the per-channel retransmission-queue cap (0 when
// no plan is armed: the clean path never queues retransmissions).
func (i *Injector) RetransmitBound() int {
	if i == nil {
		return 0
	}
	return i.plan.RetransmitBound
}

// NodeKillVictim deterministically picks the victim node of node-kill
// event number `event` (0-based) on a grid of `nodes` nodes. It is a
// pure hash of (seed, event) — host scheduling can never change which
// node dies.
func NodeKillVictim(seed uint64, event, nodes int) int {
	if nodes <= 0 {
		return 0
	}
	h := splitmix64(seed ^ 0x6e6f_6465_6b69_6c6c) // "nodekill"
	h = fold(h, uint64(event))
	return int(h % uint64(nodes))
}

// ---- Deterministic hashing ----------------------------------------------

// splitmix64 is the finalizer of the splitmix64 generator: a cheap,
// well-distributed bijection on uint64.
func splitmix64(x uint64) uint64 {
	x += 0x9e37_79b9_7f4a_7c15
	x = (x ^ (x >> 30)) * 0xbf58_476d_1ce4_e5b9
	x = (x ^ (x >> 27)) * 0x94d0_49bb_1331_11eb
	return x ^ (x >> 31)
}

func fold(acc, v uint64) uint64 {
	return splitmix64(acc ^ (v + 0x9e37_79b9_7f4a_7c15))
}

// chance maps an injection site to a uniform [0,1) value.
func chance(seed uint64, k Kind, id, seq uint64, attempt int) float64 {
	h := splitmix64(seed)
	h = fold(h, uint64(k))
	h = fold(h, id)
	h = fold(h, seq)
	h = fold(h, uint64(attempt))
	return float64(h>>11) / float64(uint64(1)<<53)
}

// Checksum folds the identifying words of a request frame into the
// per-frame integrity word a receiver verifies before servicing. It is a
// content hash, not a CRC: the simulation only needs corruption to be
// detectable and deterministic.
func Checksum(words ...uint64) uint64 {
	h := splitmix64(0x6d75_6c74_6976_7273) // "multivrs"
	for _, w := range words {
		h = fold(h, w)
	}
	if h == 0 {
		h = 1 // 0 is the "no checksum" sentinel on the wire
	}
	return h
}

// HashString folds a string into a word for inclusion in a Checksum.
func HashString(s string) uint64 {
	h := splitmix64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = fold(h, uint64(s[i]))
	}
	return h
}

// ---- Parsing -------------------------------------------------------------

// ParseSeedRate parses the mvrun -faults argument "<seed>:<rate>", e.g.
// "42:0.01".
func ParseSeedRate(s string) (Plan, error) {
	var seed uint64
	var rate float64
	if _, err := fmt.Sscanf(s, "%d:%g", &seed, &rate); err != nil {
		return Plan{}, fmt.Errorf("faults: want <seed>:<rate>, got %q: %v", s, err)
	}
	if rate < 0 || rate > 1 {
		return Plan{}, fmt.Errorf("faults: rate %g out of [0,1]", rate)
	}
	return Plan{Seed: seed, Rate: rate, KillRate: rate / 10, PanicRate: rate / 10}, nil
}

// ParseChaos parses the mvrun -chaos argument "<seed>:<rate>". It is
// the full PR-5 fault menu of ParseSeedRate plus one node-kill event,
// the grid chaos configuration.
func ParseChaos(s string) (Plan, error) {
	plan, err := ParseSeedRate(s)
	if err != nil {
		return Plan{}, err
	}
	plan.NodeKills = 1
	return plan, nil
}

// ParseSpec parses a scenario file: a JSON array of Injection objects,
// ordered by intended firing. Kinds are validated here so a bad file
// fails at load, not mid-run.
func ParseSpec(data []byte) ([]Injection, error) {
	var spec []Injection
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("faults: parsing scenario: %w", err)
	}
	for i, s := range spec {
		if _, err := KindFromString(s.Kind); err != nil {
			return nil, fmt.Errorf("faults: scenario entry %d: %w", i, err)
		}
	}
	return spec, nil
}
