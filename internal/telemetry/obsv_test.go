package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"multiverse/internal/cycles"
)

// TestHistogramQuantileAtBucketEdges pins the bucket-edge semantics: an
// observation exactly on an edge lands in that edge's bucket, and the
// quantile reports the upper edge of the containing bucket.
func TestHistogramQuantileAtBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHistogram("edges")
	// Exactly on the first edge, one below, one above.
	h.Observe(64)
	h.Observe(63)
	h.Observe(65)
	if got := h.Quantile(0.5); got != 64 {
		t.Errorf("p50 = %d, want 64 (two of three observations in the first bucket)", got)
	}
	if got := h.Quantile(1.0); got != 128 {
		t.Errorf("p100 = %d, want 128 (65 lands in the second bucket)", got)
	}

	// Overflow: above the last edge reports the last edge.
	h2 := r.LatencyHistogram("overflow")
	h2.Observe(1 << 40)
	if got := h2.Quantile(0.5); got != 16777216 {
		t.Errorf("overflow p50 = %d, want last edge 16777216", got)
	}
}

// TestHistogramQuantileEmpty pins the empty-histogram contract: every
// quantile is 0, and an empty histogram never violates an SLO.
func TestHistogramQuantileEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHistogram("empty")
	for _, p := range []float64{0.5, 0.99, 0.999, 1.0} {
		if got := h.Quantile(p); got != 0 {
			t.Errorf("empty Quantile(%g) = %d, want 0", p, got)
		}
	}
	viol := CheckSLOs(r.Snapshot(), []SLOTarget{{Metric: "empty", Quantile: 0.99, MaxCycles: 0}})
	if len(viol) != 0 {
		t.Errorf("empty histogram violated an SLO: %v", viol)
	}
}

// TestHistogramP999Sparse pins p999 behaviour on sparse data: with few
// observations the 99.9th percentile degrades to the maximum bucket,
// not to garbage.
func TestHistogramP999Sparse(t *testing.T) {
	r := NewRegistry()
	h := r.LatencyHistogram("sparse")
	h.Observe(100) // bucket edge 128
	if got := h.Quantile(0.999); got != 128 {
		t.Errorf("single-observation p999 = %d, want 128", got)
	}
	h.Observe(100000) // bucket edge 131072
	// Two observations: the p999 target index floors to 1, which the
	// fast bucket already covers — sparse tails need p=1.0 to surface.
	if got := h.Quantile(0.999); got != 128 {
		t.Errorf("two-observation p999 = %d, want 128", got)
	}
	if got := h.Quantile(1.0); got != 131072 {
		t.Errorf("two-observation p100 = %d, want 131072", got)
	}
	// 999 fast observations and one slow one: p999 must still find the
	// slow tail (target index 999 of 1000 falls in the last bucket).
	h3 := r.LatencyHistogram("tail")
	for i := 0; i < 999; i++ {
		h3.Observe(64)
	}
	h3.Observe(1048576)
	if got := h3.Quantile(0.999); got != 64 {
		// target = floor(0.999*1000) = 999 <= cum(64)=999: the tail is
		// strictly beyond p999 with exactly 1000 observations.
		t.Errorf("p999 of 999x64+1 slow = %d, want 64", got)
	}
	if got := h3.Quantile(1.0); got != 1048576 {
		t.Errorf("p100 of 999x64+1 slow = %d, want 1048576", got)
	}
}

// TestRecorderRingWrap pins the fixed-size ring semantics: Total counts
// everything ever recorded, Events retains only the window, in
// virtual-time order.
func TestRecorderRingWrap(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 10; i++ {
		rec.Record(cycles.Cycles(100-i*10), RecDoorbell, uint64(i), 0, 0, 0)
	}
	if got := rec.Total(); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// The last four records had descending vtimes 40,30,20,10; Events
	// must return them ascending.
	for i := 1; i < len(evs); i++ {
		if evs[i].VTime < evs[i-1].VTime {
			t.Errorf("events not time-sorted: %d before %d", evs[i-1].VTime, evs[i].VTime)
		}
	}
	if evs[0].VTime != 10 || evs[3].VTime != 40 {
		t.Errorf("window = [%d..%d], want [10..40]", evs[0].VTime, evs[3].VTime)
	}

	// Nil recorder: everything is a safe no-op.
	var nr *Recorder
	nr.Record(0, RecDoorbell, 0, 0, 0, 0)
	nr.AutoDump("nothing")
	if nr.Total() != 0 || nr.Events() != nil {
		t.Error("nil recorder retained state")
	}
}

// TestRecorderRingAcrossChunks: a ring larger than one allocation piece,
// with a short last piece, keeps the same window in the same order as a
// flat ring — before it fills, and after it wraps mid-piece.
func TestRecorderRingAcrossChunks(t *testing.T) {
	const size = 2*recChunk + 300
	rec := NewRecorder(size)
	for _, n := range []int{recChunk + 5, 3*size + 17} {
		for int(rec.Total()) < n {
			i := rec.Total()
			rec.Record(cycles.Cycles(i), RecDoorbell, i, 0, 0, 0)
		}
		evs := rec.Events()
		want := min(n, size)
		if len(evs) != want {
			t.Fatalf("after %d records: retained %d events, want %d", n, len(evs), want)
		}
		for i, ev := range evs {
			if wantSite := uint64(n - want + i); ev.Site != wantSite {
				t.Fatalf("after %d records: event %d is record %d, want %d", n, i, ev.Site, wantSite)
			}
		}
	}
}

// TestRecorderAutoDumpOnce pins the post-mortem contract: the first
// trigger wins, later triggers do not overwrite it, and the dump text
// renders every retained event with its code name.
func TestRecorderAutoDumpOnce(t *testing.T) {
	rec := NewRecorder(8)
	var sink bytes.Buffer
	rec.SetAutoDumpWriter(&sink)
	rec.Record(5, RecDoorbell, 1, 42, 7, 0)
	rec.Record(9, RecRespawn, 2, 42, 1, 3)
	rec.AutoDump("first trigger")
	rec.Record(11, RecWedge, 3, 0, 0, 0)
	rec.AutoDump("second trigger")

	why, text := rec.LastDump()
	if why != "first trigger" {
		t.Errorf("LastDump reason = %q, want the first trigger", why)
	}
	for _, want := range []string{"flight recorder dump: first trigger", "doorbell", "respawn", "req=0x2a"} {
		if !strings.Contains(text, want) {
			t.Errorf("dump text missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "wedged") {
		t.Error("dump includes an event recorded after the trigger")
	}
	if !strings.Contains(sink.String(), "first trigger") || strings.Contains(sink.String(), "second trigger") {
		t.Errorf("auto-dump writer got %q", sink.String())
	}
}

// TestSLOSpecParseAndCheck covers the spec schema: exact and prefix
// matching, violation ordering, and rejection of malformed entries.
func TestSLOSpecParseAndCheck(t *testing.T) {
	r := NewRegistry()
	r.LatencyHistogram("slo.g1.write").Observe(100000)
	r.LatencyHistogram("slo.g1.read").Observe(100)
	r.LatencyHistogram("slo.g2.write").Observe(200000)
	s := r.Snapshot()

	spec, err := ParseSLOSpec([]byte(`[
		{"metric": "slo.g1.write", "quantile": 0.99, "max_cycles": 50000},
		{"metric": "slo.*", "quantile": 0.5, "max_cycles": 1000000},
		{"metric": "slo.g9.never", "quantile": 0.99, "max_cycles": 1}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	viol := CheckSLOs(s, spec)
	if len(viol) != 1 {
		t.Fatalf("violations = %v, want exactly the g1.write p99 miss", viol)
	}
	if viol[0].Metric != "slo.g1.write" || viol[0].Observed != 131072 {
		t.Errorf("violation = %+v", viol[0])
	}
	if !strings.Contains(viol[0].String(), "SLO VIOLATION") {
		t.Errorf("String() = %q", viol[0].String())
	}

	// Prefix match that does violate.
	viol = CheckSLOs(s, []SLOTarget{{Metric: "slo.g*", Quantile: 0.99, MaxCycles: 200}})
	if len(viol) != 2 { // g1.write and g2.write; g1.read fits in 256>200? 100 -> bucket 128 <= 200 ok
		t.Errorf("prefix violations = %v, want 2", viol)
	}

	if _, err := ParseSLOSpec([]byte(`[{"metric": "", "quantile": 0.5, "max_cycles": 1}]`)); err == nil {
		t.Error("empty metric accepted")
	}
	if _, err := ParseSLOSpec([]byte(`[{"metric": "x", "quantile": 1.5, "max_cycles": 1}]`)); err == nil {
		t.Error("quantile > 1 accepted")
	}

	report := SLOReport(s)
	for _, want := range []string{"slo.g1.read", "slo.g2.write", "p999"} {
		if !strings.Contains(report, want) {
			t.Errorf("SLO report missing %q:\n%s", want, report)
		}
	}
}

// TestSnapshotRoundTrip pins the -metrics-json format: marshal is
// byte-stable and parse inverts it exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(3)
	r.Counter("a.count").Inc()
	r.Gauge("g.depth").Set(9)
	r.LatencyHistogram("slo.g1.write").Observe(300)

	s := r.Snapshot()
	blob1, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	blob2, _ := r.Snapshot().MarshalIndent()
	if !bytes.Equal(blob1, blob2) {
		t.Error("snapshot marshalling is not byte-stable")
	}
	back, err := ParseMetricsSnapshot(blob1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Error("round trip lost data")
	}
	if back.Counters["a.count"] != 1 || back.Counters["b.count"] != 3 {
		t.Errorf("counters = %v", back.Counters)
	}
	if back.Histograms["slo.g1.write"].Quantile(0.5) != 512 {
		t.Errorf("histogram quantile after round trip = %d", back.Histograms["slo.g1.write"].Quantile(0.5))
	}

	// Nil registry: constant empty shape.
	var nilReg *Registry
	blob, _ := nilReg.Snapshot().MarshalIndent()
	if !strings.Contains(string(blob), `"counters": {}`) {
		t.Errorf("nil snapshot = %s", blob)
	}
}

// TestWritePrometheus pins the exposition text shape: namespaced names,
// cumulative le buckets, +Inf, _sum/_count.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("faults.retransmit").Add(2)
	r.Gauge("sched.queue").Set(4)
	h := r.LatencyHistogram("slo.g1.write")
	h.Observe(100)
	h.Observe(100000)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE mv_faults_retransmit counter\nmv_faults_retransmit 2",
		"# TYPE mv_sched_queue gauge\nmv_sched_queue 4",
		"# TYPE mv_slo_g1_write histogram",
		`mv_slo_g1_write_bucket{le="128"} 1`,
		`mv_slo_g1_write_bucket{le="131072"} 2`,
		`mv_slo_g1_write_bucket{le="+Inf"} 2`,
		"mv_slo_g1_write_sum 100100",
		"mv_slo_g1_write_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestExpositionHandler drives the four endpoints through httptest.
func TestExpositionHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Inc()
	tr := New()
	tr.Instant(Track{Core: 0, Name: "t"}, "cat", "mark", 10)
	rec := NewRecorder(8)
	rec.Record(3, RecDoorbell, 1, 1, 1, 0)
	h := ExpositionHandler(reg, tr, rec)

	get := func(path string) (int, string) {
		req := httptest.NewRequest("GET", path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code, w.Body.String()
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "mv_hits 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 {
		t.Errorf("/metrics.json = %d", code)
	} else {
		var s MetricsSnapshot
		if err := json.Unmarshal([]byte(body), &s); err != nil || s.Counters["hits"] != 1 {
			t.Errorf("/metrics.json body bad: %v %q", err, body)
		}
	}
	if code, body := get("/trace"); code != 200 || !strings.Contains(body, `"traceEvents"`) {
		t.Errorf("/trace = %d %q", code, body)
	}
	if code, body := get("/flight"); code != 200 || !strings.Contains(body, "doorbell") {
		t.Errorf("/flight = %d %q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("/nope = %d, want 404", code)
	}

	// Disabled planes still serve well-formed documents.
	dark := ExpositionHandler(reg, nil, nil)
	req := httptest.NewRequest("GET", "/trace", nil)
	w := httptest.NewRecorder()
	dark.ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), `"traceEvents"`) {
		t.Errorf("dark /trace = %q", w.Body.String())
	}
	req = httptest.NewRequest("GET", "/flight", nil)
	w = httptest.NewRecorder()
	dark.ServeHTTP(w, req)
	if !strings.Contains(w.Body.String(), "disabled") {
		t.Errorf("dark /flight = %q", w.Body.String())
	}
}

// TestInstantFlowChrome pins the causality satellite: instants carrying
// flow ids produce "s"/"f" events in the Chrome export, so Perfetto
// renders arrows into and out of zero-duration markers.
func TestInstantFlowChrome(t *testing.T) {
	tr := New()
	tk := Track{Core: 1, Name: "hrt"}
	sp := tr.Begin(tk, "evtchan", "forward", 0)
	sp.LinkOut(77)
	sp.EndAt(10)
	tr.InstantFlow(Track{Core: 0, Name: "ros"}, "faults", "retransmit", 20, 77, 0,
		Attr{Key: "req", Val: 42})

	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"ph":"s","id":77`) {
		t.Errorf("flow start missing:\n%s", out)
	}
	if !strings.Contains(out, `"ph":"f","bp":"e","id":77`) {
		t.Errorf("flow finish (from the instant) missing:\n%s", out)
	}
	if !strings.Contains(out, `"ph":"i"`) || !strings.Contains(out, `"req":42`) {
		t.Errorf("instant with req attr missing:\n%s", out)
	}
	if !json.Valid(b.Bytes()) {
		t.Error("chrome trace is not valid JSON")
	}
}
