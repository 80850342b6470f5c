package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// flightCmd decodes a flight-recorder dump (written by `mvrun -flight
// FILE`, the /flight endpoint, or an auto-dump on stderr) back into an
// annotated causal timeline: the Site/A/B integers of every event are
// expanded per event code, so a migration reads as
//
//	checkpoint        group=3  delta-slots=12 inflight-seqnos=1
//	restore           group=3  from-node=1 to-node=0
//	migrate-complete  group=3  latency-cycles=2273960 target-node=0
//
// instead of three rows of bare integers. -summary prints per-code
// counts only; -code / -site filter the timeline.
func flightCmd(args []string) error {
	fs := flag.NewFlagSet("flight", flag.ExitOnError)
	codeFilter := fs.String("code", "", "show only events with this code name (e.g. checkpoint, node-kill)")
	siteFilter := fs.Int64("site", -1, "show only events at this site id (group/node/channel, per code)")
	summary := fs.Bool("summary", false, "print per-code event counts instead of the timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var in io.Reader
	switch fs.NArg() {
	case 0:
		in = os.Stdin
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return fmt.Errorf("flight takes at most one dump file (stdin when omitted)")
	}

	events, header, err := parseFlightDump(in)
	if err != nil {
		return err
	}
	if header != "" {
		fmt.Println(header)
	}
	if *summary {
		counts := map[string]int{}
		for _, e := range events {
			counts[e.code]++
		}
		names := make([]string, 0, len(counts))
		for n := range counts {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-18s %d\n", n, counts[n])
		}
		return nil
	}
	shown := 0
	for _, e := range events {
		if *codeFilter != "" && e.code != *codeFilter {
			continue
		}
		if *siteFilter >= 0 && e.site != uint64(*siteFilter) {
			continue
		}
		fmt.Printf("vt=%-12d %-18s %s\n", e.vt, e.code, decodeFlightEvent(e))
		shown++
	}
	if shown == 0 {
		fmt.Println("(no events matched)")
	}
	return nil
}

// flightEvent is one parsed dump row.
type flightEvent struct {
	vt   uint64
	code string
	site uint64
	req  uint64
	a, b uint64
}

// parseFlightDump reads a rendered recorder dump. Lines that are not
// event rows (the === framing, the retained/total line, stray log
// output around an auto-dump) pass through as context: the dump reason
// line is returned as the header, everything else is skipped.
func parseFlightDump(r io.Reader) ([]flightEvent, string, error) {
	var events []flightEvent
	var header string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "=== flight recorder dump:") {
			header = strings.TrimSuffix(strings.TrimPrefix(line, "=== "), " ===")
			continue
		}
		e, ok := parseFlightLine(line)
		if !ok {
			continue
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, "", err
	}
	if len(events) == 0 && header == "" {
		return nil, "", fmt.Errorf("no flight-recorder events found (expecting a dump from mvrun -flight or /flight)")
	}
	return events, header, nil
}

// parseFlightLine parses one event row:
//
//	vt=12345        checkpoint       site=3      req=0x2a               a=12       b=1
func parseFlightLine(line string) (flightEvent, bool) {
	fields := strings.Fields(line)
	if len(fields) != 6 || !strings.HasPrefix(fields[0], "vt=") {
		return flightEvent{}, false
	}
	var e flightEvent
	var err error
	if e.vt, err = strconv.ParseUint(fields[0][len("vt="):], 10, 64); err != nil {
		return flightEvent{}, false
	}
	e.code = fields[1]
	for _, kv := range []struct {
		prefix string
		dst    *uint64
	}{
		{"site=", &e.site}, {"req=", &e.req}, {"a=", &e.a}, {"b=", &e.b},
	} {
		var raw string
		for _, f := range fields[2:] {
			if strings.HasPrefix(f, kv.prefix) {
				raw = f[len(kv.prefix):]
			}
		}
		if raw == "" {
			return flightEvent{}, false
		}
		// req renders as %#x; ParseUint with base 0 accepts both forms.
		if *kv.dst, err = strconv.ParseUint(raw, 0, 64); err != nil {
			return flightEvent{}, false
		}
	}
	return e, true
}

// decodeFlightEvent expands Site/A/B per event code. The grid and
// migration codes get full decoding; channel/router codes get their
// common shape; anything unrecognized falls back to raw fields so new
// codes degrade gracefully instead of hiding data.
func decodeFlightEvent(e flightEvent) string {
	req := ""
	if e.req != 0 {
		req = fmt.Sprintf(" req=%#x", e.req)
	}
	switch e.code {
	case "checkpoint":
		return fmt.Sprintf("group=%d delta-slots=%d inflight-seqnos=%d%s", e.site, e.a, e.b, req)
	case "restore":
		return fmt.Sprintf("group=%d from-node=%d to-node=%d%s", e.site, e.a, e.b, req)
	case "drain":
		return fmt.Sprintf("node=%d groups-migrated-off=%d%s", e.site, e.a, req)
	case "node-kill":
		return fmt.Sprintf("node=%d victim-groups=%d%s", e.site, e.a, req)
	case "migrate-complete":
		return fmt.Sprintf("group=%d latency-cycles=%d target-node=%d%s", e.site, e.a, e.b, req)
	case "wedged":
		return fmt.Sprintf("group=%d%s", e.site, req)
	case "respawn":
		return fmt.Sprintf("group=%d generation=%d replayed=%d%s", e.site, e.a, e.b, req)
	case "degrade":
		return fmt.Sprintf("group=%d recoveries=%d%s", e.site, e.a, req)
	case "requeue":
		return fmt.Sprintf("channel=%d seq=%d%s", e.site, e.a, req)
	case "doorbell", "deliver", "complete", "dedup", "corrupt-drop":
		return fmt.Sprintf("channel=%d seq=%d%s", e.site, e.a, req)
	case "retransmit":
		return fmt.Sprintf("channel=%d seq=%d attempt=%d%s", e.site, e.a, e.b, req)
	case "sync-call":
		return fmt.Sprintf("channel=%d seq=%d retransmits=%d%s", e.site, e.a, e.b, req)
	case "merge-delta":
		return fmt.Sprintf("core=%d entries=%d%s", e.site, e.a, req)
	case "fault-roll":
		return fmt.Sprintf("roll-site=%d kind=%d seq=%d%s", e.site, e.a, e.b, req)
	case "tier-local", "tier-cache":
		return fmt.Sprintf("core=%d syscall=%d%s", e.site, e.a, req)
	default:
		return fmt.Sprintf("site=%d a=%d b=%d%s", e.site, e.a, e.b, req)
	}
}
