package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"multiverse/internal/cycles"
	"multiverse/internal/faults"
	"multiverse/internal/linuxabi"
	"multiverse/internal/telemetry"
)

// buildTestGrid assembles n identically-configured hybrid nodes sharing
// one metrics registry and flight recorder, and joins them into a Grid.
func buildTestGrid(t *testing.T, n int, opts Options) *Grid {
	t.Helper()
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(telemetry.DefaultRecorderSize)
	nodes := make([]*System, n)
	for i := range nodes {
		o := opts
		o.Hybrid = true
		o.Metrics = reg
		o.Recorder = rec
		fat, err := Build(BuildInput{
			App:        NewAppImage(o.AppName),
			AeroKernel: NewAeroKernelImage(),
		})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		sys, err := NewSystem(fat, o)
		if err != nil {
			t.Fatalf("NewSystem node %d: %v", i, err)
		}
		if err := sys.InitRuntime(); err != nil {
			t.Fatalf("InitRuntime node %d: %v", i, err)
		}
		nodes[i] = sys
	}
	gr, err := NewGrid(nodes)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return gr
}

// corpusApp builds a deterministic random program from seed: `calls`
// boundary crossings drawn from {getpid, write, clock_gettime}, with
// random compute bursts interleaved. start gates execution so a test
// can arm a migration before the group's first crossing.
func corpusApp(seed uint64, calls int, start <-chan struct{}) func(Env) uint64 {
	return func(env Env) uint64 {
		if start != nil {
			<-start
		}
		r := rand.New(rand.NewSource(int64(seed)))
		sum := uint64(0)
		for i := 0; i < calls; i++ {
			if r.Intn(2) == 0 {
				env.Compute(cycles.Cycles(1000 + r.Intn(5)*700))
			}
			switch r.Intn(3) {
			case 0:
				res := env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid})
				sum += res.Ret
			case 1:
				res := env.Syscall(linuxabi.Call{
					Num:  linuxabi.SysWrite,
					Args: [6]uint64{1},
					Data: []byte(fmt.Sprintf("s%d.%d;", seed, i)),
				})
				sum += res.Ret
			case 2:
				res := env.Syscall(linuxabi.Call{Num: linuxabi.SysClockGettime})
				sum += res.Ret & 0xf
			}
		}
		return sum & 0xff
	}
}

// TestGridMigrateTransparency is the checkpoint→restore round-trip
// property: over a corpus of random programs and migration points, a
// migrated run produces byte-identical output (source stdout + target
// stdout), the same exit code, and the identical virtual-cycle total as
// an unmigrated run of the same program. The router case uses the
// default policy, which does not promote within these short programs: a
// group migrated while promoted is not cycle-transparent (DESIGN.md,
// "Virtual transparency").
func TestGridMigrateTransparency(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"paper", Options{AppName: "grid"}},
		{"router", Options{AppName: "grid", Router: true}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				for _, migrateAt := range []uint64{1, 3, 7} {
					// Unmigrated reference on a standalone system.
					ref := buildTestSystem(t, cfg.opts)
					refStart := make(chan struct{})
					close(refStart)
					rg, err := ref.SpawnGroup(ref.Main.Clock, corpusApp(seed, 12, refStart))
					if err != nil {
						t.Fatalf("ref spawn: %v", err)
					}
					refCode, err := rg.Join(ref.Main)
					if err != nil {
						t.Fatalf("ref join: %v", err)
					}
					refOut := ref.Proc.Stdout()
					refCycles := rg.HRTThread().Clock.Now()
					refDone := rg.Channel().Window().Completed

					// Grid run, migrating node 0 -> node 1 at crossing migrateAt.
					gr := buildTestGrid(t, 2, cfg.opts)
					start := make(chan struct{})
					g, err := gr.SpawnGroupOn(0, corpusApp(seed, 12, start))
					if err != nil {
						t.Fatalf("grid spawn: %v", err)
					}
					req := &migrateRequest{
						gr:         gr,
						target:     gr.Node(1),
						targetNode: 1,
						afterCalls: migrateAt - 1,
						done:       make(chan struct{}),
					}
					g.gateReq.Store(req)
					close(start)
					<-req.done
					if req.err != nil {
						t.Fatalf("seed %d at %d: migrate: %v", seed, migrateAt, req.err)
					}
					if g.sys() != gr.Node(1) {
						t.Fatalf("seed %d at %d: group still on node %d", seed, migrateAt, g.sys().gridNode)
					}
					// The router's mutation hook moved with the group.
					wantHooks := 0
					if cfg.opts.Router {
						wantHooks = 1
					}
					if src, dst := gr.Node(0).Proc.MutationHooks(), gr.Node(1).Proc.MutationHooks(); src != 0 || dst != wantHooks {
						t.Errorf("seed %d at %d: mutation hooks = %d on the source, %d on the target, want 0 and %d",
							seed, migrateAt, src, dst, wantHooks)
					}
					code, err := g.Join(gr.Node(0).Main)
					if err != nil {
						t.Fatalf("grid join: %v", err)
					}
					out := append(append([]byte{}, gr.Node(0).Proc.Stdout()...), gr.Node(1).Proc.Stdout()...)

					if code != refCode {
						t.Errorf("seed %d at %d: exit = %d, want %d", seed, migrateAt, code, refCode)
					}
					if !bytes.Equal(out, refOut) {
						t.Errorf("seed %d at %d: output %q, want %q", seed, migrateAt, out, refOut)
					}
					if got := g.HRTThread().Clock.Now(); got != refCycles {
						t.Errorf("seed %d at %d: HRT cycles = %d, want %d (migration leaked virtual cost)",
							seed, migrateAt, got, refCycles)
					}
					if got := g.Channel().Window().Completed; got != refDone {
						t.Errorf("seed %d at %d: completed = %d, want %d", seed, migrateAt, got, refDone)
					}
					if v := gr.metrics.Counter("grid.groups.migrated").Value(); v != 1 {
						t.Errorf("grid.groups.migrated = %d, want 1", v)
					}
				}
			}
		})
	}
}

// TestGridNodeKillRestoresAll kills one of two nodes while every group
// is quiesced at a workload barrier: all victims must restore on the
// survivor and finish with zero lost and zero duplicated syscalls.
func TestGridNodeKillRestoresAll(t *testing.T) {
	// A zero-rate fault plan: injects nothing, but arms the channel
	// seqno/retransmission window so completions are tracked — the
	// zero-lost/zero-duplicated assertion reads that window.
	gr := buildTestGrid(t, 2, Options{AppName: "grid", Faults: &faults.Plan{}})
	const perNode, k1, k2 = 8, 3, 4

	arrived := make(chan struct{}, 2*perNode)
	gate := make(chan struct{})
	app := func(env Env) uint64 {
		var pid uint64
		for i := 0; i < k1; i++ {
			pid = env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}).Ret
		}
		arrived <- struct{}{}
		<-gate
		for i := 0; i < k2; i++ {
			pid = env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid}).Ret
		}
		return pid & 0xff
	}

	var gs []*ExecutionGroup
	var victims []uint64
	for n := 0; n < 2; n++ {
		for i := 0; i < perNode; i++ {
			g, err := gr.SpawnGroupOn(n, app)
			if err != nil {
				t.Fatalf("spawn node %d: %v", n, err)
			}
			gs = append(gs, g)
			if n == 1 {
				victims = append(victims, g.id)
			}
		}
	}
	for range gs {
		<-arrived
	}

	ids, err := gr.KillNode(1)
	if err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if len(ids) != perNode {
		t.Fatalf("restored %d groups, want %d", len(ids), perNode)
	}
	for i, id := range ids {
		if id != victims[i] {
			t.Errorf("restored[%d] = %d, want %d (ascending victim order)", i, id, victims[i])
		}
	}
	close(gate)

	wantPid := uint64(gr.Node(0).Proc.Pid()) & 0xff
	for _, g := range gs {
		code, err := g.Join(gr.Node(0).Main)
		if err != nil {
			t.Fatalf("join group %d: %v", g.id, err)
		}
		if code != wantPid {
			t.Errorf("group %d exit = %d, want %d (lost or corrupted reply)", g.id, code, wantPid)
		}
		// Exactly k1+k2 syscalls plus the exit notification completed —
		// a duplicate would overcount, a loss would have hung the join.
		if got := g.Channel().Window().Completed; got != k1+k2+1 {
			t.Errorf("group %d completed %d envelopes, want %d", g.id, got, k1+k2+1)
		}
		if g.sys() != gr.Node(0) {
			t.Errorf("group %d not hosted on survivor", g.id)
		}
	}
	if live := gr.NodesLive(); live != 1 {
		t.Errorf("NodesLive = %d, want 1", live)
	}
	if v := gr.metrics.Counter("grid.node_kills").Value(); v != 1 {
		t.Errorf("grid.node_kills = %d, want 1", v)
	}
	if v := gr.metrics.Counter("grid.groups.migrated").Value(); v != perNode {
		t.Errorf("grid.groups.migrated = %d, want %d", v, perNode)
	}
	if n := gr.metrics.LatencyHistogram("grid.restore.latency").Count(); n != perNode {
		t.Errorf("restore latency observations = %d, want %d", n, perNode)
	}
}

// draining reports whether DrainNode has set node i's drain flag.
func (gr *Grid) draining(i int) bool {
	gr.mu.Lock()
	defer gr.mu.Unlock()
	return gr.drain[i]
}

// TestGridDrainNode drains a node through the public API: every live
// group migrates off at its next boundary crossing and the node ends
// empty.
func TestGridDrainNode(t *testing.T) {
	gr := buildTestGrid(t, 2, Options{AppName: "grid"})
	const groups = 4

	gate := make(chan struct{})
	var gs []*ExecutionGroup
	for i := 0; i < groups; i++ {
		g, err := gr.SpawnGroupOn(0, func(env Env) uint64 {
			<-gate
			for j := 0; j < 200; j++ {
				env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid})
			}
			return 7
		})
		if err != nil {
			t.Fatalf("spawn: %v", err)
		}
		gs = append(gs, g)
	}

	drained := make(chan struct{})
	var moved int
	var derr error
	go func() {
		moved, derr = gr.DrainNode(0)
		close(drained)
	}()
	// Release the groups only once the drain has begun, so all four are
	// members however the host schedules the drain goroutine; members
	// that then exit before their next crossing still count as moved.
	for !gr.draining(0) {
		runtime.Gosched()
	}
	close(gate)
	<-drained
	if derr != nil {
		t.Fatalf("DrainNode: %v", derr)
	}
	if moved != groups {
		t.Errorf("drained %d groups, want %d", moved, groups)
	}
	for _, g := range gs {
		code, err := g.Join(gr.Node(1).Main)
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		if code != 7 {
			t.Errorf("exit = %d, want 7", code)
		}
	}
	if n := gr.Node(0).LiveGroups(); n != 0 {
		t.Errorf("drained node still hosts %d live groups", n)
	}
}

// TestGridMigrateWedge pins the migration wedge path: a group that
// stops crossing the boundary can never complete an armed migration,
// so the caller gets ErrGroupWedged within the deadline, with a
// flight-recorder auto-dump for the post-mortem.
func TestGridMigrateWedge(t *testing.T) {
	gr := buildTestGrid(t, 2, Options{AppName: "grid", WedgeTimeout: 250 * time.Millisecond})
	release := make(chan struct{})
	g, err := gr.SpawnGroupOn(0, func(env Env) uint64 {
		env.Syscall(linuxabi.Call{Num: linuxabi.SysGetpid})
		<-release // never crosses the boundary again until released
		return 0
	})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	// Give the group time to make its only crossing, then arm.
	for g.gateCalls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := gr.MigrateGroup(g, 1); !errors.Is(err, ErrGroupWedged) {
		t.Fatalf("MigrateGroup = %v, want ErrGroupWedged", err)
	}
	if reason, text := gr.Node(0).Recorder().LastDump(); reason == "" || text == "" {
		t.Error("wedged migration produced no flight-recorder auto-dump")
	}
	close(release)
	if _, err := g.Join(gr.Node(0).Main); err != nil {
		t.Fatalf("join after release: %v", err)
	}
}

// TestGridValidation pins the NewGrid configuration contract.
func TestGridValidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(telemetry.DefaultRecorderSize)
	build := func(opts Options) *System {
		opts.Hybrid = true
		opts.AppName = "grid"
		fat, err := Build(BuildInput{App: NewAppImage("grid"), AeroKernel: NewAeroKernelImage()})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(fat, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.InitRuntime(); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	if _, err := NewGrid(nil); err == nil {
		t.Error("NewGrid(nil) succeeded")
	}
	if _, err := NewGrid([]*System{build(Options{Metrics: reg, Recorder: rec, Scheduler: true})}); err == nil {
		t.Error("NewGrid accepted a scheduler node")
	}
	if _, err := NewGrid([]*System{
		build(Options{Metrics: reg, Recorder: rec}),
		build(Options{Metrics: telemetry.NewRegistry(), Recorder: rec}),
	}); err == nil {
		t.Error("NewGrid accepted nodes with separate metric registries")
	}
	// A valid single-node grid works and seeds nothing on node 0.
	s := build(Options{Metrics: reg, Recorder: rec})
	gr, err := NewGrid([]*System{s})
	if err != nil {
		t.Fatalf("NewGrid(valid): %v", err)
	}
	if gr.Nodes() != 1 || gr.NodesLive() != 1 {
		t.Errorf("Nodes/NodesLive = %d/%d, want 1/1", gr.Nodes(), gr.NodesLive())
	}
	if _, err := gr.KillNode(0); err == nil {
		t.Error("KillNode killed the last live node")
	}
}
