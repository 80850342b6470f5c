package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// The traced run records one host-time span per call into a layer: system
// boot, the scheme engine, every core.Env call, spawn/join/migration and
// the HPCG solve. Spans nest per thread of control (a lane); a span's self
// time is its duration minus its children's, so the layer self times of a
// load-generator lane add up to that lane's wall time.

// spanName identifies what a span measured. Its layer is the part of the
// name before the first dot.
type spanName uint8

const (
	spLoad     spanName = iota // a load generator's whole phase (root)
	spLoadWait                 // a spawner waiting for the other at a generation boundary
	spOp                       // one program run or HPCG solve
	spTenant                   // one tenant body, on its HRT goroutine (root)
	spThread                   // a pthread started through a traced Env (root)

	spProvision // vfs image for one run
	spBoot      // core.Build + NewSystem + InitRuntime
	spRunMain   // System.RunMain around the guest
	spSpawn     // Grid.SpawnGroupOn
	spJoin      // ExecutionGroup.Join
	spArm       // Grid.ArmMigration
	spMigrate   // ArmMigration to its result (asynchronous)

	spEngineBoot // scheme.NewEngine
	spSchemeRun  // Engine.RunFile
	spSchemeStop // Engine.Shutdown

	spSolve // legion.New + RunHPCG + Shutdown

	spEnvCompute
	spEnvSyscall
	spEnvVDSO
	spEnvTouch
	spEnvTimer
	spEnvPthread
	spEnvSignal
	spEnvAKCall
	spEnvOverride
	spEnvProtect

	numSpanNames
)

var spanNames = [numSpanNames]string{
	"load.loop", "load.wait", "op.run", "tenant.body", "thread.body",
	"vfs.provision", "core.boot", "core.run_main",
	"core.spawn", "core.join", "core.arm_migration", "core.migrate",
	"scheme.engine_boot", "scheme.run", "scheme.shutdown",
	"legion.solve",
	"env.compute", "env.syscall", "env.vdso", "env.touch", "env.timer",
	"env.pthread_create", "env.signal_code", "env.akcall", "env.override", "env.protect",
}

func (n spanName) String() string { return spanNames[n] }

// isEnv reports whether n is a core.Env call.
func (n spanName) isEnv() bool { return n >= spEnvCompute }

// span is one timed call. parent indexes the recorder's span slice (-1 for
// a root); op is the run or tenant the span belongs to, and hybrid
// whether that op ran in the HRT world.
type span struct {
	name       spanName
	hybrid     bool
	parent     int32
	op         int32
	start, end int64 // ns since the recorder's epoch
}

// recorder holds a phase's spans in memory.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// lane returns a new span stack for one thread of control. A nil recorder
// yields a nil lane, whose methods do nothing: untraced runs pay one nil
// check per call.
func (r *recorder) lane(op int32, hybrid bool) *lane {
	if r == nil {
		return nil
	}
	return &lane{rec: r, op: op, hybrid: hybrid}
}

// lane is one thread of control's span stack. It is used by one goroutine
// at a time (a guest's HRT goroutine takes it over while the load
// generator is blocked in RunMain).
type lane struct {
	rec    *recorder
	op     int32
	hybrid bool
	spans  []span
	stack  []int32
}

// at makes op, hybrid or not, the operation of the lane's next spans.
func (l *lane) at(op int32, hybrid bool) {
	if l != nil {
		l.op, l.hybrid = op, hybrid
	}
}

func (l *lane) begin(n spanName) {
	if l == nil {
		return
	}
	parent := int32(-1)
	if k := len(l.stack); k > 0 {
		parent = l.stack[k-1]
	}
	l.stack = append(l.stack, int32(len(l.spans)))
	l.spans = append(l.spans, span{name: n, hybrid: l.hybrid, parent: parent, op: l.op, start: l.rec.now()})
}

func (l *lane) end() {
	if l == nil {
		return
	}
	k := len(l.stack) - 1
	l.spans[l.stack[k]].end = l.rec.now()
	l.stack = l.stack[:k]
}

// record adds a root span timed elsewhere (an asynchronous wait).
func (l *lane) record(n spanName, op int32, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name: n, hybrid: l.hybrid, parent: -1, op: op,
		start: int64(start.Sub(l.rec.epoch)), end: int64(end.Sub(l.rec.epoch))})
}

// flush moves the lane's finished spans into the recorder.
func (l *lane) flush() {
	if l == nil {
		return
	}
	r := l.rec
	r.mu.Lock()
	base := int32(len(r.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
	l.spans = l.spans[:0]
}

// spanAgg is the aggregate of one span name (optionally one world).
type spanAgg struct {
	count     int
	dur, self int64
	durs      []float64 // per-span durations, ns
}

func (a *spanAgg) meanDur() float64 { return ratio(float64(a.dur), float64(a.count)) }

// profile is the derived per-layer view of a recorder.
type profile struct {
	byName   [numSpanNames]spanAgg
	byWorld  [2][numSpanNames]spanAgg // [hybrid][name], env calls only
	envSelf  [2]int64                 // [hybrid] self time of all env calls
	loadWall int64                    // sum of load-lane durations
	waitSelf int64                    // self time of load.wait spans
	glueSelf int64                    // self time of load/op spans
	opWall   [2]int64                 // [hybrid] sum of op/tenant root durations
}

// derive computes self times and aggregates the recorder's spans.
func (r *recorder) derive() *profile {
	p := &profile{}
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	for i, s := range r.spans {
		d := s.end - s.start
		a := &p.byName[s.name]
		a.count++
		a.dur += d
		a.self += self[i]
		if s.name >= spSpawn && s.name <= spMigrate {
			a.durs = append(a.durs, float64(d)) // quantiled metrics only
		}
		hy := 0
		if s.hybrid {
			hy = 1
		}
		switch {
		case s.name == spLoad:
			p.loadWall += d
			p.glueSelf += self[i]
		case s.name == spLoadWait:
			p.waitSelf += self[i]
		case s.name == spOp:
			p.glueSelf += self[i]
			p.opWall[hy] += d
		case s.name == spTenant:
			p.opWall[hy] += d
		case s.name.isEnv():
			w := &p.byWorld[hy][s.name]
			w.count++
			w.dur += d
			w.self += self[i]
			p.envSelf[hy] += self[i]
		}
	}
	return p
}

// unattributed is the share of the load generators' wall time that no
// layer span covers. Time a spawner spends waiting for the other is not
// load, so it is left out. The layer self times add up to the rest of the
// load wall time exactly minus this share.
func (p *profile) unattributed() float64 {
	return ratio(float64(p.glueSelf), float64(p.loadWall-p.waitSelf))
}

// writeSpans writes every span as gzip-compressed TSV.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, strings.Join([]string{"span", "parent", "op", "hybrid", "name", "start_ns", "end_ns"}, "\t"))
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%t\t%s\t%d\t%d\n", i, s.parent, s.op, s.hybrid, s.name, s.start, s.end)
	}
	err = w.Flush()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
