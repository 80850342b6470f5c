package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"multiverse/internal/cycles"
)

func TestSpanNesting(t *testing.T) {
	tr := New()
	tk := Track{Core: 1, Name: "hrt"}

	root := tr.Begin(tk, "test", "root", 100)
	child := tr.Begin(tk, "test", "child", 150)
	grand := tr.Begin(tk, "test", "grand", 160)

	if root.Depth != 0 || child.Depth != 1 || grand.Depth != 2 {
		t.Errorf("depths = %d/%d/%d, want 0/1/2", root.Depth, child.Depth, grand.Depth)
	}
	if child.Parent() != root || grand.Parent() != child {
		t.Error("parent chain broken")
	}

	grand.EndAt(170)
	child.EndAt(180)

	// A sibling opened after the child closed nests under root again.
	sib := tr.Begin(tk, "test", "sibling", 190)
	if sib.Depth != 1 || sib.Parent() != root {
		t.Errorf("sibling depth=%d parent=%v, want depth 1 under root", sib.Depth, sib.Parent())
	}
	sib.EndAt(200)
	root.EndAt(210)

	// Spans on another track do not nest under this one.
	other := tr.Begin(Track{Core: 2, Name: "ros:main"}, "test", "elsewhere", 105)
	if other.Depth != 0 || other.Parent() != nil {
		t.Error("tracks must have independent stacks")
	}
	other.EndAt(120)
}

func TestSpanOrderingCanonical(t *testing.T) {
	// Regardless of completion order, Spans() sorts by start time, then
	// track, then depth — the order exports depend on.
	tr := New()
	a := tr.Begin(Track{1, "hrt"}, "t", "outer", 100)
	b := tr.Begin(Track{1, "hrt"}, "t", "inner", 100) // same start, deeper
	c := tr.Begin(Track{0, "ros:main"}, "t", "early", 50)
	b.EndAt(150)
	a.EndAt(200)
	c.EndAt(60)

	got := tr.Spans()
	want := []string{"early", "outer", "inner"}
	if len(got) != len(want) {
		t.Fatalf("got %d spans, want %d", len(got), len(want))
	}
	for i, sp := range got {
		if sp.Name != want[i] {
			t.Errorf("span[%d] = %q, want %q", i, sp.Name, want[i])
		}
	}
}

func TestSpanEndOutOfOrder(t *testing.T) {
	// Ending an outer span before its inner one must not wedge the track.
	tr := New()
	tk := Track{0, "ros:main"}
	outer := tr.Begin(tk, "t", "outer", 10)
	inner := tr.Begin(tk, "t", "inner", 20)
	outer.EndAt(30)
	inner.EndAt(40)

	next := tr.Begin(tk, "t", "next", 50)
	if next.Depth != 0 {
		t.Errorf("track stack not drained: next.Depth = %d", next.Depth)
	}
	next.EndAt(60)

	// EndAt clamps to Start: a span can never have negative extent.
	back := tr.Begin(tk, "t", "back", 100)
	back.EndAt(90)
	if back.Duration() != 0 {
		t.Errorf("clamped duration = %d, want 0", back.Duration())
	}

	// Double-end is a no-op.
	back.EndAt(200)
	if back.End != 100 {
		t.Errorf("double EndAt moved End to %d", back.End)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	sp := tr.Begin(Track{0, "x"}, "t", "n", 1)
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	// All span methods must tolerate the nil result.
	sp.SetAttr("k", 1)
	sp.LinkOut(2)
	sp.LinkIn(3)
	sp.EndAt(4)
	if sp.Duration() != 0 || sp.Parent() != nil {
		t.Error("nil span accessors not zero")
	}
	if tr.Spans() != nil || tr.Tracks() != nil {
		t.Error("nil tracer yielded spans/tracks")
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewRegistry().Histogram("h", []cycles.Cycles{10, 100, 1000})

	// A value equal to an upper edge lands in that bucket; one past it
	// lands in the next.
	h.Observe(10)   // bucket 0 (<=10)
	h.Observe(11)   // bucket 1
	h.Observe(100)  // bucket 1 (<=100)
	h.Observe(101)  // bucket 2
	h.Observe(1000) // bucket 2
	h.Observe(1001) // overflow
	h.Observe(0)    // bucket 0

	want := []uint64{2, 2, 2, 1}
	for i, n := range want {
		if got := h.BucketCount(i); got != n {
			t.Errorf("bucket[%d] = %d, want %d", i, got, n)
		}
	}
	if h.Count() != 7 {
		t.Errorf("Count = %d, want 7", h.Count())
	}
	if h.Sum() != 10+11+100+101+1000+1001 {
		t.Errorf("Sum = %d", h.Sum())
	}
}

// TestDefaultHistogramSharesEdges: every default-bucket histogram (one
// per group and syscall kind for the SLO histograms) shares one copy of
// the default edges, so creating one allocates only the histogram and its
// bucket counts.
func TestDefaultHistogramSharesEdges(t *testing.T) {
	const runs = 1000
	r := NewRegistry()
	names := make([]string, runs+1) // AllocsPerRun adds one warm-up run
	for i := range names {
		names[i] = "slo.g" + strconv.Itoa(i) + ".write"
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		r.LatencyHistogram(names[i])
		i++
	})
	if allocs > 2 {
		t.Errorf("new default histogram: %.0f allocs, want <= 2 (histogram + bucket counts)", allocs)
	}
	h := r.LatencyHistogram(names[0])
	edges := h.Edges()
	edges[0] = 1
	if got := r.LatencyHistogram(names[1]).Edges()[0]; got != DefaultLatencyBuckets()[0] {
		t.Errorf("Edges() copy leaked into the shared edges: first edge %d", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewRegistry().Histogram("q", []cycles.Cycles{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5) // bucket 0
	}
	for i := 0; i < 10; i++ {
		h.Observe(500) // bucket 2
	}
	if got := h.Quantile(0.50); got != 10 {
		t.Errorf("p50 = %d, want 10", got)
	}
	if got := h.Quantile(0.99); got != 1000 {
		t.Errorf("p99 = %d, want 1000", got)
	}

	// Overflow observations report the last edge, deterministically.
	h2 := NewRegistry().Histogram("q2", []cycles.Cycles{10})
	h2.Observe(999)
	if got := h2.Quantile(0.5); got != 10 {
		t.Errorf("overflow quantile = %d, want last edge 10", got)
	}

	var empty *Histogram
	if empty.Quantile(0.5) != 0 || empty.Count() != 0 {
		t.Error("nil histogram not zero")
	}
}

func TestRegistryNilAndDumpOrder(t *testing.T) {
	var r *Registry
	// Nil registries hand out nil instruments whose methods are no-ops.
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.LatencyHistogram("h").Observe(5)
	if r.Dump() != "" {
		t.Error("nil registry dumped output")
	}

	reg := NewRegistry()
	reg.Counter("zz.last").Inc()
	reg.Counter("aa.first").Add(3)
	reg.Gauge("mid").Set(7)
	reg.LatencyHistogram("lat").Observe(100)
	dump := reg.Dump()
	if strings.Index(dump, "aa.first") > strings.Index(dump, "zz.last") {
		t.Errorf("dump not name-sorted:\n%s", dump)
	}
	for _, want := range []string{"aa.first", "zz.last", "mid", "lat"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
	// Same registry contents dump identically every time.
	if dump != reg.Dump() {
		t.Error("Dump not deterministic")
	}
}

// TestFindDoesNotRegister pins the lookup-only reads: a name nobody
// registered reads 0 and stays out of the dump, and a registered one
// reads its value through the same handle.
func TestFindDoesNotRegister(t *testing.T) {
	reg := NewRegistry()
	if v := reg.FindCounter("absent").Value(); v != 0 {
		t.Errorf("absent counter reads %d", v)
	}
	if n := reg.FindHistogram("absent.latency").Count(); n != 0 {
		t.Errorf("absent histogram counts %d", n)
	}
	if v := reg.FindGauge("absent.gauge").Value(); v != 0 {
		t.Errorf("absent gauge reads %d", v)
	}
	if dump := reg.Dump(); dump != "" {
		t.Errorf("lookups registered instruments:\n%s", dump)
	}
	reg.Counter("present").Add(3)
	reg.LatencyHistogram("present.latency").Observe(9)
	if reg.FindCounter("present") != reg.Counter("present") || reg.FindCounter("present").Value() != 3 {
		t.Error("FindCounter did not return the registered counter")
	}
	if reg.FindHistogram("present.latency").Sum() != 9 {
		t.Error("FindHistogram did not return the registered histogram")
	}
	reg.Gauge("present.gauge").Set(5)
	if reg.FindGauge("present.gauge").Value() != 5 {
		t.Error("FindGauge did not return the registered gauge")
	}
	var nilReg *Registry
	if nilReg.FindCounter("c") != nil || nilReg.FindHistogram("h") != nil || nilReg.FindGauge("g") != nil {
		t.Error("nil registry found an instrument")
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr := New()
	tk := Track{Core: 1, Name: "hrt"}
	root := tr.Begin(tk, "test", "outer", 2200) // 1 us at 2.2 GHz
	root.SetAttr("addr", 0xdead)
	root.LinkOut(42)
	root.EndAt(4400)
	svc := tr.Begin(Track{Core: 0, Name: "ros:main"}, "test", "service", 3300)
	svc.LinkIn(42)
	svc.EndAt(5500)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"ph":"X"`,                 // complete events
		`"ph":"M"`, "process_name", // track metadata
		`"ph":"s"`, `"ph":"f"`, // flow link
		`"name":"outer"`, `"name":"service"`,
		`"cycles":2200`, // exact value survives in args
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}

	// Byte-identical on re-export: nothing in the writer depends on map
	// order or wall-clock time.
	var buf2 bytes.Buffer
	if err := tr.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-export differs")
	}
}

// TestSpanAttrsStayPrivate: spans share attribute slabs, so an attribute
// added after Begin must not land in the next span's attributes.
func TestSpanAttrsStayPrivate(t *testing.T) {
	tr := New()
	tk := Track{Core: 0, Name: "hrt"}
	a := tr.Begin(tk, "c", "a", 1, Attr{Key: "x", Val: 1})
	b := tr.Begin(tk, "c", "b", 2, Attr{Key: "y", Val: 2})
	a.SetAttr("z", 3)
	b.EndAt(3)
	a.EndAt(4)
	if len(a.Attrs) != 2 || a.Attrs[0] != (Attr{"x", 1}) || a.Attrs[1] != (Attr{"z", 3}) {
		t.Errorf("a.Attrs = %v, want [{x 1} {z 3}]", a.Attrs)
	}
	if len(b.Attrs) != 1 || b.Attrs[0] != (Attr{"y", 2}) {
		t.Errorf("b.Attrs = %v, want [{y 2}]", b.Attrs)
	}
}
