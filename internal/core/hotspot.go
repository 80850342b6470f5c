package core

import (
	"fmt"
	"sort"
	"strings"

	"multiverse/internal/cycles"
	"multiverse/internal/telemetry"
)

// The hotspot profile operationalizes the paper's incremental methodology:
// "The runtime developer can then identify hot spots in the legacy
// interface and move their implementations (possibly even changing their
// interfaces) into the AeroKernel." Every system call HRT code issues is
// attributed here with the cost its thread saw — forwarded calls and
// router-answered ones alike — and so is every access whose page fault
// the thread forwarded to the ROS. The report ranks legacy dependencies
// by the cycles they burn — the porting worklist.
//
// The profile keeps no bookkeeping of its own: it is a read view over the
// system's telemetry registry. A system call's entry sums, across groups,
// the count and cycle total of the per-group SLO histograms
// `slo.g<group>.<syscall>` the HRT syscall boundary records; page faults
// are the counter pair `hotspot.page-fault.count` and
// `hotspot.page-fault.cycles`. The same numbers therefore appear in the
// --metrics dump.

// faultHotspot names the forwarded-page-fault entry, and its counters in
// the registry.
const (
	faultHotspot      = "page-fault"
	faultCountMetric  = "hotspot." + faultHotspot + ".count"
	faultCyclesMetric = "hotspot." + faultHotspot + ".cycles"
)

// HotspotEntry is one legacy dependency's aggregate cost.
type HotspotEntry struct {
	Name   string // syscall name, or "page-fault"
	Count  uint64
	Cycles cycles.Cycles
}

// HotspotProfile reads HRT boundary costs out of a metrics registry.
type HotspotProfile struct {
	reg *telemetry.Registry
}

// recordFault attributes one access whose page fault was forwarded.
func (hp *HotspotProfile) recordFault(cost cycles.Cycles) {
	hp.reg.Counter(faultCountMetric).Inc()
	hp.reg.Counter(faultCyclesMetric).Add(uint64(cost))
}

// Entries returns the profile sorted by total cycles, descending.
func (hp *HotspotProfile) Entries() []HotspotEntry {
	byName := make(map[string]*HotspotEntry)
	entry := func(name string) *HotspotEntry {
		e := byName[name]
		if e == nil {
			e = &HotspotEntry{Name: name}
			byName[name] = e
		}
		return e
	}
	hp.reg.EachHistogram(func(name string, h *telemetry.Histogram) {
		rest, ok := strings.CutPrefix(name, telemetry.SLOPrefix)
		if !ok {
			return
		}
		_, call, ok := strings.Cut(rest, ".") // drop the "g<group>" part
		if !ok {
			return
		}
		e := entry(call)
		e.Count += h.Count()
		e.Cycles += h.Sum()
	})
	hp.reg.EachCounter(func(name string, v uint64) {
		switch name {
		case faultCountMetric:
			entry(faultHotspot).Count = v
		case faultCyclesMetric:
			entry(faultHotspot).Cycles = cycles.Cycles(v)
		}
	})
	out := make([]HotspotEntry, 0, len(byName))
	for _, e := range byName {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Total returns the aggregate count and cost of every entry.
func (hp *HotspotProfile) Total() (count uint64, total cycles.Cycles) {
	for _, e := range hp.Entries() {
		count += e.Count
		total += e.Cycles
	}
	return count, total
}

// Report renders the porting worklist.
func (hp *HotspotProfile) Report() string {
	entries := hp.Entries()
	_, total := hp.Total()
	var b strings.Builder
	b.WriteString("Legacy-interface hotspots (port these to the AeroKernel first):\n")
	fmt.Fprintf(&b, "  %-14s %10s %14s %7s\n", "dependency", "count", "cycles", "share")
	for _, e := range entries {
		share := 0.0
		if total > 0 {
			share = 100 * float64(e.Cycles) / float64(total)
		}
		fmt.Fprintf(&b, "  %-14s %10d %14d %6.1f%%\n", e.Name, e.Count, uint64(e.Cycles), share)
	}
	fmt.Fprintf(&b, "  total forwarding time: %s\n", total)
	return b.String()
}

// Hotspots returns the system's HRT boundary profile (populated while
// hybridized code runs).
func (s *System) Hotspots() *HotspotProfile { return &HotspotProfile{reg: s.metrics} }
