package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"multiverse/internal/aerokernel"
	"multiverse/internal/bench"
	"multiverse/internal/core"
	"multiverse/internal/telemetry"
)

// TestDecoratorSelfCheck runs every program natively and on the paper and
// fast profiles, once with the guest's Env wrapped in the timing decorator
// and once without: virtual cycles, stdout and layer counters (forwarded
// calls included) must be equal, and the decorator must offer exactly the
// wrapped Env's capabilities.
func TestDecoratorSelfCheck(t *testing.T) {
	worlds := []struct {
		name   string
		prof   sysProfile
		hybrid bool
	}{
		{"native", paperProfile, false},
		{"paper", paperProfile, true},
		{"fast", fastProfile, true},
	}
	for _, wd := range worlds {
		w := newProgWorkload(wd.prof, false, 1)
		for _, p := range bench.Programs() {
			p := p
			spec := opSpec{prog: &p, hybrid: wd.hybrid}
			plain, err := w.run(spec, nil)
			if err != nil {
				t.Fatalf("%s %s: %v", wd.name, spec, err)
			}
			l := newRecorder().lane(0, wd.hybrid)
			traced, err := w.run(spec, l)
			if err != nil {
				t.Fatalf("%s %s traced: %v", wd.name, spec, err)
			}
			if traced != plain {
				t.Errorf("%s %s: traced run differs:\n traced %+v\n plain  %+v", wd.name, spec, traced, plain)
			}
			if len(l.spans) == 0 {
				t.Errorf("%s %s: traced run recorded no spans", wd.name, spec)
			}
		}

		fs, err := provision(nil)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := bootSystem(wd.hybrid, wd.prof, fs, "caps", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunMain(func(env core.Env) uint64 {
			inner, wrapped := envCaps(env), envCaps(wrapEnv(env, nil))
			if !reflect.DeepEqual(inner, wrapped) {
				t.Errorf("%s: decorator capabilities %v, wrapped Env has %v", wd.name, wrapped, inner)
			}
			return 0
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs each workload briefly, untraced and traced, and checks
// that the result line is correct and names exactly the metrics of
// BENCHMARK.json with their units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", wl.Name, "--seed", "7", "--seconds", "0.2",
				"--trace", string(rune('0' + trace)), "--spans", filepath.Join(t.TempDir(), "spans.tsv.gz")}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", wl.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d\n%s",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, errOut.String())
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace %d: metric %s missing", wl.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics printed, BENCHMARK.json lists %d", wl.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// envCaps names the optional capabilities env offers, in a fixed order.
func envCaps(env core.Env) []string {
	var caps []string
	if _, ok := env.(interface{ TelemetryScope() telemetry.Scope }); ok {
		caps = append(caps, "TelemetryScope")
	}
	if _, ok := env.(core.HRTExtras); ok {
		caps = append(caps, "AKCall+OverrideInvoke")
	}
	if _, ok := env.(interface {
		RegisterAKMemFaultHandler(h func(addr uint64, write bool) bool)
	}); ok {
		caps = append(caps, "RegisterAKMemFaultHandler")
	}
	if _, ok := env.(interface {
		RegisterUserFaultHandler(h func(addr uint64, write bool) bool) bool
		UserProtect(addr, length uint64, writable bool) bool
	}); ok {
		caps = append(caps, "UserFaultLane")
	}
	if _, ok := env.(core.SchedulerHost); ok {
		caps = append(caps, "SchedulerHost")
	}
	if _, ok := env.(interface{ HRTThreadForBench() *aerokernel.Thread }); ok {
		caps = append(caps, "HRTThread")
	}
	return caps
}
