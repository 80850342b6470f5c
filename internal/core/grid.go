package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"multiverse/internal/aerokernel"
	"multiverse/internal/cycles"
	"multiverse/internal/telemetry"
)

// Grid hosts multiple Systems (machines) as independent fault domains
// with deterministic virtual-time placement, voluntary live migration
// (DrainNode / MigrateGroup), and node-kill recovery (KillNode): the
// killed node's groups are checkpointed and restored on survivors with
// zero lost and zero duplicated syscalls.
//
// Determinism contract: every migration cost — quiesce, checkpoint,
// transfer, restore — charges the grid's dedicated migration clock,
// never a group or partner clock, so a migrated group's virtual times
// (and therefore its output) are bit-for-bit what an unmigrated run
// produces. The quiesce-point invariant makes that safe: groups are
// only moved at syscall boundaries, where no forwarded call is in
// flight, and the move holds the channel's service, so no delivery runs
// while the partner is rebound. (A router-promoted
// group is the known exception: Quiesce demotes it, and it re-promotes
// on the target's clock, so its cycle total shifts.)
//
// Grid nodes must be built alike: hybrid, booted (InitRuntime ran), no
// scheduler, identical machine topologies,
// and a shared metrics registry / flight recorder / process PID so a
// group observes nothing node-specific across a move. NewGrid seeds
// each node's group/thread/channel id counters into disjoint ranges so
// cross-node moves cannot collide.
type Grid struct {
	nodes []*System

	mu    sync.Mutex
	down  []bool // killed nodes: no placement, no migration target
	drain []bool // draining nodes: no placement

	// migClk is the dedicated migration clock. Its deltas are the
	// pinned migration-latency and restore-latency figures.
	migClk *cycles.Clock

	metrics  *telemetry.Registry
	recorder *telemetry.Recorder

	nodesG   *telemetry.Gauge   // grid.nodes
	liveG    *telemetry.Gauge   // grid.nodes.live
	migrated *telemetry.Counter // grid.groups.migrated
	kills    *telemetry.Counter // grid.node_kills
	restoreH *telemetry.Histogram
	migrateH *telemetry.Histogram
}

// NewGrid assembles nodes into a grid. The caller builds each node with
// a shared telemetry registry and recorder (and fault injector, when
// armed); NewGrid validates the configuration, seeds the per-node id
// ranges, and marks each System grid-hosted before any group exists.
func NewGrid(nodes []*System) (*Grid, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("multiverse: grid needs at least one node")
	}
	base := nodes[0]
	for i, s := range nodes {
		if s == nil || !s.Opts.Hybrid {
			return nil, fmt.Errorf("multiverse: grid node %d is not a hybrid system", i)
		}
		if s.AK == nil {
			return nil, fmt.Errorf("multiverse: grid node %d not booted (run InitRuntime first)", i)
		}
		if s.Opts.Scheduler || s.AK.Scheduler() != nil {
			return nil, fmt.Errorf("multiverse: grid node %d runs the AK scheduler (migration requires boot-core pinning)", i)
		}
		if s.grid != nil {
			return nil, fmt.Errorf("multiverse: grid node %d already belongs to a grid", i)
		}
		if s.metrics != base.metrics || s.recorder != base.recorder {
			return nil, fmt.Errorf("multiverse: grid node %d must share the grid's metrics registry and recorder", i)
		}
		if s.Proc.Pid() != base.Proc.Pid() {
			return nil, fmt.Errorf("multiverse: grid node %d PID %d != node 0 PID %d (breaks migration transparency)", i, s.Proc.Pid(), base.Proc.Pid())
		}
		if s.GroupTableSize() != 0 {
			return nil, fmt.Errorf("multiverse: grid node %d already has groups", i)
		}
	}
	gr := &Grid{
		nodes:    nodes,
		down:     make([]bool, len(nodes)),
		drain:    make([]bool, len(nodes)),
		migClk:   cycles.NewClock(0),
		metrics:  base.metrics,
		recorder: base.recorder,
	}
	gr.nodesG = gr.metrics.Gauge("grid.nodes")
	gr.liveG = gr.metrics.Gauge("grid.nodes.live")
	gr.migrated = gr.metrics.Counter("grid.groups.migrated")
	gr.kills = gr.metrics.Counter("grid.node_kills")
	gr.restoreH = gr.metrics.LatencyHistogram("grid.restore.latency")
	gr.migrateH = gr.metrics.LatencyHistogram("grid.migrate.latency")
	for i, s := range nodes {
		// Disjoint id ranges per node (node 0 keeps the standalone
		// numbering): a restored group, its re-homed thread, and its
		// surviving channel stay unique on any node they land on.
		s.SeedGroupIDs(uint64(i) << 32)
		s.AK.SeedThreadIDs(int64(i) << 32)
		s.HVM.SeedChannelIDs(uint64(i) << 32)
		s.grid = gr
		s.gridNode = i
	}
	gr.nodesG.Set(uint64(len(nodes)))
	gr.liveG.Set(uint64(len(nodes)))
	return gr, nil
}

// Nodes returns the node count (live or not).
func (gr *Grid) Nodes() int { return len(gr.nodes) }

// Node returns node i's System.
func (gr *Grid) Node(i int) *System { return gr.nodes[i] }

// NodesLive returns the number of nodes not killed.
func (gr *Grid) NodesLive() int {
	gr.mu.Lock()
	defer gr.mu.Unlock()
	n := 0
	for i := range gr.nodes {
		if !gr.down[i] {
			n++
		}
	}
	return n
}

// NodeDown reports whether node i has been killed.
func (gr *Grid) NodeDown(i int) bool {
	gr.mu.Lock()
	defer gr.mu.Unlock()
	return gr.down[i]
}

// MigrationCycles returns the migration clock — the total virtual
// cycles spent on checkpoint/transfer/restore work grid-wide.
func (gr *Grid) MigrationCycles() cycles.Cycles { return gr.migClk.Now() }

// pickLocked returns the least-loaded live, non-draining node other
// than exclude (-1 for none); ties break to the lowest index, so the
// choice is deterministic given the live-group counts at the call.
func (gr *Grid) pickLocked(exclude int) (int, error) {
	best, bestLoad := -1, 0
	for i, s := range gr.nodes {
		if i == exclude || gr.down[i] || gr.drain[i] {
			continue
		}
		load := s.LiveGroups()
		if best == -1 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("multiverse: no live grid node available")
	}
	return best, nil
}

// SpawnGroup places fn on the least-loaded live node and spawns it
// there, charging the node's main thread as creator. Deterministic
// under a sequential driver; concurrent spawners should place
// explicitly with SpawnGroupOn.
func (gr *Grid) SpawnGroup(fn func(Env) uint64) (*ExecutionGroup, int, error) {
	gr.mu.Lock()
	i, err := gr.pickLocked(-1)
	gr.mu.Unlock()
	if err != nil {
		return nil, -1, err
	}
	g, err := gr.SpawnGroupOn(i, fn)
	return g, i, err
}

// SpawnGroupOn spawns fn on node i.
func (gr *Grid) SpawnGroupOn(i int, fn func(Env) uint64) (*ExecutionGroup, error) {
	if i < 0 || i >= len(gr.nodes) {
		return nil, fmt.Errorf("multiverse: no grid node %d", i)
	}
	if gr.NodeDown(i) {
		return nil, fmt.Errorf("multiverse: grid node %d is down", i)
	}
	s := gr.nodes[i]
	return s.SpawnGroup(s.Main.Clock, fn)
}

// MigrateGroup arms a voluntary migration of g to target, firing at the
// group's next boundary crossing, and waits for it to complete.
func (gr *Grid) MigrateGroup(g *ExecutionGroup, target int) error {
	return gr.MigrateGroupAfter(g, target, 0)
}

// MigrateGroupAfter arms a voluntary migration that fires at the
// group's first boundary crossing numbered past afterCalls (counted
// from the group's start), then waits for completion. A migration that
// never completes within Options.WedgeTimeout surfaces ErrGroupWedged
// with a flight-recorder auto-dump — a group that stops crossing the
// boundary (pure compute, or already exiting) cannot hang the caller.
func (gr *Grid) MigrateGroupAfter(g *ExecutionGroup, target int, afterCalls uint64) error {
	res, err := gr.ArmMigration(g, target, afterCalls)
	if err != nil {
		return err
	}
	return <-res
}

// ArmMigration arms a voluntary migration and returns without waiting:
// the result channel yields once, when the migration fires at the
// group's next eligible boundary crossing (nil if the group finishes
// first, ErrGroupWedged past the deadline). Arming is synchronous, so a
// caller holding the group at a barrier can arm, release the barrier,
// and know exactly which crossing the migration lands on — the
// deterministic driving the pinned migration-latency figure needs.
func (gr *Grid) ArmMigration(g *ExecutionGroup, target int, afterCalls uint64) (<-chan error, error) {
	if !g.gridHosted || g.degraded.Load() {
		return nil, ErrNotMigratable
	}
	if target < 0 || target >= len(gr.nodes) {
		return nil, fmt.Errorf("multiverse: no grid node %d", target)
	}
	if gr.NodeDown(target) {
		return nil, fmt.Errorf("multiverse: migration target node %d is down", target)
	}
	req := &migrateRequest{
		gr:         gr,
		target:     gr.nodes[target],
		targetNode: target,
		afterCalls: afterCalls,
		done:       make(chan struct{}),
	}
	if !g.gateReq.CompareAndSwap(nil, req) {
		return nil, fmt.Errorf("multiverse: migration already armed on group %d", g.id)
	}
	res := make(chan error, 1)
	go func() { res <- gr.awaitMigration(g, req) }()
	return res, nil
}

// awaitMigration waits for an armed request to fire, the group to
// finish on its own (nothing left to migrate), or the wedge deadline.
func (gr *Grid) awaitMigration(g *ExecutionGroup, req *migrateRequest) error {
	var timeout <-chan time.Time
	if d := g.sys().Opts.WedgeTimeout; d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-req.done:
		return req.err
	case <-g.finished:
		g.gateReq.CompareAndSwap(req, nil)
		return nil
	case <-timeout:
		g.gateReq.CompareAndSwap(req, nil)
		return g.wedged()
	}
}

// migrateNow executes a claimed voluntary migration. It runs on the
// group's own HRT goroutine at a syscall boundary — the group is
// quiescent by construction — and holds the channel's service, so no
// delivery (and no inline recovery) runs while the group moves.
func (gr *Grid) migrateNow(g *ExecutionGroup, t *aerokernel.Thread, target *System, targetNode int) error {
	src := g.sys()
	if target == src {
		return nil
	}
	err := ErrNotMigratable
	g.channel.Hold(func() {
		if g.dead.Load() || g.degraded.Load() {
			return
		}
		start := gr.migClk.Now()
		cp := g.Checkpoint(gr.migClk)
		target.RestoreGroup(g, cp, gr.migClk)
		// Voluntary path: this goroutine IS the HRT thread, so the
		// re-home is safe right here.
		t.Rehome(target.AK)
		lat := gr.migClk.Now() - start
		gr.migrated.Inc()
		gr.migrateH.Observe(lat)
		gr.recorder.Record(gr.migClk.Now(), telemetry.RecMigrateDone, g.id, 0,
			uint64(lat), uint64(targetNode))
		err = nil
	})
	return err
}

// DrainNode stops placement on node i and migrates every live group off
// it (ascending group-id order, each at its next boundary crossing),
// returning how many moved. The members are the groups live on node i
// when the drain flag is set, taken under the same lock, so the count
// never depends on when the host schedules this call. Members that exit
// before crossing again count as drained; degraded groups stay (they do
// not migrate).
func (gr *Grid) DrainNode(i int) (int, error) {
	if i < 0 || i >= len(gr.nodes) {
		return 0, fmt.Errorf("multiverse: no grid node %d", i)
	}
	gr.mu.Lock()
	if gr.down[i] {
		gr.mu.Unlock()
		return 0, fmt.Errorf("multiverse: grid node %d is down", i)
	}
	gr.drain[i] = true
	members := gr.liveGroupsOn(i)
	gr.mu.Unlock()

	moved := 0
	for _, g := range members {
		if g.degraded.Load() {
			continue
		}
		gr.mu.Lock()
		tgt, err := gr.pickLocked(i)
		gr.mu.Unlock()
		if err != nil {
			return moved, err
		}
		if err := gr.MigrateGroupAfter(g, tgt, 0); err != nil {
			return moved, err
		}
		moved++
	}
	gr.recorder.Record(gr.migClk.Now(), telemetry.RecDrain, uint64(i), 0,
		uint64(moved), 0)
	return moved, nil
}

// KillNode kills node i: every live group hosted there is checkpointed
// and restored on the least-loaded survivor, in ascending group-id
// order (the restore order is part of the determinism contract).
// Returns the restored group ids. The caller must drive kills at
// points where the victims are quiescent (the chaos driver kills at
// workload barriers); the recovery itself then loses and duplicates
// nothing — in-flight envelopes replay idempotently off the
// retransmission window.
func (gr *Grid) KillNode(i int) ([]uint64, error) {
	if i < 0 || i >= len(gr.nodes) {
		return nil, fmt.Errorf("multiverse: no grid node %d", i)
	}
	gr.mu.Lock()
	if gr.down[i] {
		gr.mu.Unlock()
		return nil, fmt.Errorf("multiverse: grid node %d already down", i)
	}
	alive := 0
	for n := range gr.nodes {
		if !gr.down[n] {
			alive++
		}
	}
	if alive <= 1 {
		gr.mu.Unlock()
		return nil, fmt.Errorf("multiverse: cannot kill the last live node")
	}
	gr.down[i] = true
	gr.mu.Unlock()

	victims := gr.liveGroupsOn(i)
	gr.kills.Inc()
	gr.liveG.Set(uint64(gr.NodesLive()))
	gr.recorder.Record(gr.migClk.Now(), telemetry.RecNodeKill, uint64(i), 0,
		uint64(len(victims)), 0)

	ids := make([]uint64, 0, len(victims))
	for _, g := range victims {
		if g.degraded.Load() {
			// A degraded group's state is entangled with its fallback
			// service context; it dies with the node.
			continue
		}
		gr.mu.Lock()
		tgt, err := gr.pickLocked(i)
		gr.mu.Unlock()
		if err != nil {
			return ids, err
		}
		if gr.restoreOnSurvivor(g, gr.nodes[tgt]) {
			ids = append(ids, g.id)
		}
	}
	return ids, nil
}

// restoreOnSurvivor force-restores one victim of a node kill onto
// target: hold the (quiesced) group's service, checkpoint, restore. The
// AK-thread re-home is deferred to the group's next boundary crossing
// — the HRT goroutine is not ours to touch here. The source
// AeroKernel is deliberately not halted: the restored HRT context is
// the live thread object, which re-homes itself at that next crossing.
func (gr *Grid) restoreOnSurvivor(g *ExecutionGroup, target *System) bool {
	restored := false
	g.channel.Hold(func() {
		if g.dead.Load() {
			return
		}
		start := gr.migClk.Now()
		cp := g.Checkpoint(gr.migClk)
		target.RestoreGroup(g, cp, gr.migClk)
		g.rehomePending.Store(true)
		gr.migrated.Inc()
		gr.restoreH.Observe(gr.migClk.Now() - start)
		restored = true
	})
	return restored
}

// liveGroupsOn snapshots the live groups hosted on node i, ascending
// by group id.
func (gr *Grid) liveGroupsOn(i int) []*ExecutionGroup {
	src := gr.nodes[i]
	var gs []*ExecutionGroup
	src.groups.rangeAll(func(_ uint64, g *ExecutionGroup) {
		if !g.dead.Load() {
			gs = append(gs, g)
		}
	})
	sort.Slice(gs, func(a, b int) bool { return gs[a].id < gs[b].id })
	return gs
}
