package core

import (
	"errors"

	"multiverse/internal/aerokernel"
	"multiverse/internal/cycles"
	"multiverse/internal/hvm"
	"multiverse/internal/telemetry"
)

// This file is the checkpoint/restore half of live migration: the
// serialized image of one quiesced execution group (GroupCheckpoint),
// the group-side Checkpoint/RestoreGroup building blocks, and the
// voluntary-migration syscall gate. The Grid (grid.go) is the safe
// driver for all of it — it owns the quiesce protocol and the dedicated
// migration clock, and holds the group's channel service while it moves
// the group, which serializes a move against inline recovery.

// ErrNotMigratable reports that a group cannot be checkpointed or
// migrated: it is not grid-hosted, already dead, or running degraded
// (a degraded group's channel state is entangled with its fallback
// service context and does not move).
var ErrNotMigratable = errors.New("multiverse: group not migratable (dead, degraded, or not grid-hosted)")

// DeltaSlot is one touched top-level page-table slot in a checkpoint
// image. The PR-3 per-PML4-slot generation stamps make the serialized
// address space a delta — only the slots the group's process actually
// mutated are carried, and the stamp lets the target detect staleness.
type DeltaSlot struct {
	Slot int
	Gen  uint64
}

// GroupCheckpoint is the full superposed state of one quiesced
// execution group, sufficient to resume it on another grid node:
// the HRT thread context, the partner's exact virtual time (the new
// partner resumes at it, which is what makes migration virtually
// transparent), the address-space delta, the event-channel
// seqno/retransmission window (in-flight calls replay idempotently
// after restore), and the router tier state (rings torn down to the
// tier-2 fallback, exactly as in partner-kill recovery).
type GroupCheckpoint struct {
	GroupID    uint64
	SourceNode int

	// HRT execution context. Restore does not rebuild the context from
	// these fields — the simulation re-homes the live thread object —
	// but they are what a real image would carry, they size the
	// transfer costs, and tests assert them against the live state.
	HRTThreadID int
	HRTClock    cycles.Cycles
	StackSP     uint64
	StackBytes  uint64
	FSBase      uint64

	// Partner context: the clock the restored partner resumes at and
	// the TID whose per-thread ROS state (timers, handlers) was live.
	PartnerClock cycles.Cycles
	PartnerTID   int

	// Delta is the merged-address-space delta (PML4 slots with nonzero
	// generation stamps).
	Delta []DeltaSlot

	// Window is the event channel's seqno/retransmission window at the
	// quiesce point.
	Window hvm.ChannelWindow

	// Router is the quiesced router state (nil when the router is off):
	// the local process-invariant state, which migrates as-is so tier-0
	// answers stay byte-identical.
	Router *hvm.RouterCheckpoint
}

// Checkpoint serializes the group's superposed state. The caller (the
// Grid) must have quiesced the group first: no forwarded call in flight
// on the HRT side, and the channel's service held.
// All costs charge migClk — the dedicated migration clock — never a
// group clock, so the workload's virtual times match an unmigrated run.
func (g *ExecutionGroup) Checkpoint(migClk *cycles.Clock) *GroupCheckpoint {
	src := g.sys()
	cost := src.Machine.Cost
	p := g.partnerRef()

	var delta []DeltaSlot
	for slot, gen := range src.Proc.PML4Generations() {
		if gen > 0 {
			delta = append(delta, DeltaSlot{Slot: slot, Gen: gen})
		}
	}
	var rcp *hvm.RouterCheckpoint
	if g.router != nil {
		r := g.router.Quiesce(migClk)
		rcp = &r
	}
	var stackBytes, stackSP uint64
	if g.akStack != nil {
		stackBytes = uint64(g.akStack.Size())
		stackSP = uint64(g.akStack.SP())
	}
	cp := &GroupCheckpoint{
		GroupID:      g.id,
		SourceNode:   src.gridNode,
		HRTThreadID:  g.hrt.ID,
		HRTClock:     g.hrt.Clock.Now(),
		StackSP:      stackSP,
		StackBytes:   stackBytes,
		FSBase:       g.hrt.FSBase,
		PartnerClock: p.Clock.Now(),
		PartnerTID:   p.TID,
		Delta:        delta,
		Window:       g.channel.Window(),
		Router:       rcp,
	}
	migClk.Advance(cost.CheckpointBase +
		cycles.Cycles(len(delta))*cost.CheckpointPerSlot)
	src.recorder.Record(migClk.Now(), telemetry.RecCheckpoint, g.id, 0,
		uint64(len(delta)), uint64(len(cp.Window.Inflight)))
	return cp
}

// RestoreGroup resumes a checkpointed group on this System (the target
// node): a fresh partner thread at the source partner's exact virtual
// time, the mirrored-state merge replayed (delta-cheap under the
// incremental merger), the registry and live-count accounting moved
// between fault domains, the channel window requeued so in-flight and
// pending envelopes redeliver exactly once, and the router hooks
// rebound to this node's Proc and HVM. Transfer and rebuild costs
// charge migClk. The caller holds the group's channel service; the
// AK-thread re-home is the caller's job (inline for a voluntary
// migration, deferred to the next boundary crossing for a forced
// restore).
func (s *System) RestoreGroup(g *ExecutionGroup, cp *GroupCheckpoint, migClk *cycles.Clock) {
	src := g.sys()
	cost := s.Machine.Cost
	pages := (cp.StackBytes + 4095) / 4096
	migClk.Advance(cost.GridTransferBase +
		cycles.Cycles(pages)*cost.GridTransferPerPage +
		cost.RestoreBase + cost.ROSThreadCreate)

	// Fresh partner on the target, synced to the source partner's final
	// time: Reply.Departure after the move is bit-for-bit what an
	// unmigrated run would have produced.
	pt := s.Proc.NewThread(g.rosCore)
	pt.Clock.SyncTo(cp.PartnerClock)

	// Replay the mirrored-state merge on the target node, best-effort
	// exactly as in a respawn.
	_ = s.HVM.MergeAddressSpace(migClk, s.Proc.CR3())

	// Move the group between fault domains: registry entry, live-count
	// accounting, and the hosting-System pointer.
	src.groups.delete(g.id)
	src.noteGroupDead()
	s.groups.store(g.id, g)
	s.noteGroupMigratedIn()
	g.sysv.Store(s)

	// In-flight and pending envelopes redeliver through the new partner
	// at the next delivery; completed seqnos stay deduplicated in the
	// window, so the replay is exactly-once — zero lost, zero duplicated
	// syscalls. The new partner serves on the target's Proc with a fresh
	// recovery budget.
	g.channel.Requeue(pt.Clock.Now())
	g.gen.Add(1) // kill rolls re-key, as in respawn
	g.recoveries = 0
	g.bind(pt)

	if g.router != nil {
		// The quiesced router survives the move (tier state, hold
		// flags, local mirror); only its hooks must re-target this
		// node's Proc/HVM.
		g.bindRouterHooks(s, g.rosCore, g.hrt.Core)
	}

	s.recorder.Record(migClk.Now(), telemetry.RecRestore, g.id, 0,
		uint64(cp.SourceNode), uint64(s.gridNode))
}

// migrateRequest is an armed voluntary migration, claimed by the
// syscall gate at the group's next boundary crossing past afterCalls.
type migrateRequest struct {
	gr         *Grid
	target     *System
	targetNode int
	afterCalls uint64
	done       chan struct{}
	err        error
}

// syscallGate runs at every boundary crossing of a grid-hosted group,
// on the HRT goroutine itself, at zero virtual cost. It retires a
// deferred AK-thread re-home (the first provably quiescent point after
// a forced restore) and fires an armed voluntary migration.
func (g *ExecutionGroup) syscallGate(t *aerokernel.Thread) {
	if g.rehomePending.CompareAndSwap(true, false) {
		if ak := g.sys().AK; ak != nil {
			t.Rehome(ak)
		}
	}
	n := g.gateCalls.Add(1)
	req := g.gateReq.Load()
	if req == nil || n <= req.afterCalls {
		return
	}
	if !g.gateReq.CompareAndSwap(req, nil) {
		return
	}
	req.err = req.gr.migrateNow(g, t, req.target, req.targetNode)
	close(req.done)
}
